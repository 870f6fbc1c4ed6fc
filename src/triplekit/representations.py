"""Representations and actions of Lie triple systems, and semidirect products.

A representation of L on V assigns matrices theta(e_i, e_j) in End(V)
subject to the two compatibility identities

  (R1) theta(c,d) theta(a,b) - theta(b,d) theta(a,c)
         - theta(a, [b,c,d]) + D(b,c) theta(a,d) = 0
  (R2) theta(c,d) D(a,b) - D(a,b) theta(c,d)
         + theta([a,b,c], d) + theta(c, [a,b,d]) = 0

with D(a,b) = theta(b,a) - theta(a,b).  D is always derived on the
fly, never stored.  Besides the dense matrices, a representation keeps
the nonzero entries of each theta(e_i, e_j), built once, and every
contraction with arbitrary arguments runs over that list, as do the
one evaluator of (R2), which deformations share, and the action check.
An action is a representation on a space that is itself a Lie triple
system, landing in its center and killing its brackets; actions are
exactly what semidirect products need.  The semidirect bracket is
written out once, in :func:`semidirect_brackets`, which brackets every
triple of members of three vector families in one scatter pass; the
semidirect product, the Rota-Baxter defects and the induced
representation of an operator are all tables of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .linalg import Matrix, Scalar, StructureError, Vector, ZERO, vec_is_zero
from .lts import LieTripleSystem, center
from .reporting import Report, Violation

ThetaTensor = tuple[tuple[Matrix, ...], ...]


@dataclass(frozen=True)
class RepresentationData:
    """theta[i][j] is the matrix of theta(e_i, e_j) acting on F^space_dim."""

    algebra: LieTripleSystem
    space_dim: int
    theta: ThetaTensor
    # (i, j, ((row, col, value), ...)) for every nonzero theta[i][j],
    # listing its nonzero entries; the contractions run over this
    # instead of the dense matrices.
    nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.algebra.dim
        if len(self.theta) != d or any(len(row) != d for row in self.theta):
            raise StructureError("theta tensor is not dim x dim")
        for row in self.theta:
            for mat in row:
                if mat.rows != self.space_dim or mat.cols != self.space_dim:
                    raise StructureError("theta matrix shape differs from space_dim")
        nz = []
        for i, j in product(range(d), repeat=2):
            entries = tuple(
                (r, c, a)
                for r, row in enumerate(self.theta[i][j].entries)
                for c, a in enumerate(row)
                if a
            )
            if entries:
                nz.append((i, j, entries))
        object.__setattr__(self, "nonzero", tuple(nz))

    def d_basis(self, i: int, j: int) -> Matrix:
        """D(e_i, e_j) = theta(e_j, e_i) - theta(e_i, e_j), recomputed on demand."""
        return self.theta[j][i] - self.theta[i][j]

    def theta_vec(self, x: Vector, y: Vector) -> Matrix:
        """Bilinear extension of theta to arbitrary arguments, summed in one pass."""
        d, n = self.algebra.dim, self.space_dim
        if len(x) != d or len(y) != d:
            raise StructureError("theta argument length differs from algebra dimension")
        acc = [[ZERO] * n for _ in range(n)]
        for i, j, entries in self.nonzero:
            c = x[i] * y[j]
            if c:
                for r, col, a in entries:
                    acc[r][col] += c * a
        return Matrix(n, n, tuple(map(tuple, acc)))

    def d_vec(self, x: Vector, y: Vector) -> Matrix:
        return self.theta_vec(y, x) - self.theta_vec(x, y)


def zero_representation(L: LieTripleSystem, space_dim: int) -> RepresentationData:
    z = Matrix.zeros(space_dim, space_dim)
    return RepresentationData(L, space_dim, tuple(tuple(z for _ in range(L.dim)) for _ in range(L.dim)))


def adjoint_representation(L: LieTripleSystem) -> RepresentationData:
    """theta(a,b)c = [c,a,b]; the induced D(a,b) is c -> [a,b,c]."""
    d = L.dim
    theta = tuple(
        tuple(
            Matrix.from_columns([L.bracket[x][i][j] for x in range(d)], d)
            for j in range(d)
        )
        for i in range(d)
    )
    return RepresentationData(L, d, theta)


def verify_representation(r: RepresentationData) -> Report:
    """Check (R1) and (R2) on all basis 4-tuples of the acting algebra;
    (R2) is read off :func:`_theta_equivariance_rows`, one call per pair."""
    d = r.algebra.dim
    out = []
    th, br, E = r.theta, r.algebra.bracket, r.algebra.basis()
    dm = [[r.d_basis(i, j) for j in range(d)] for i in range(d)]
    for a, b, c, dd in product(range(d), repeat=4):
        lhs = (
            th[c][dd] @ th[a][b]
            - th[b][dd] @ th[a][c]
            - r.theta_vec(E[a], br[b][c][dd])
            + dm[b][c] @ th[a][dd]
        )
        if not lhs.is_zero():
            out.append(Violation("module-identity-1", (a + 1, b + 1, c + 1, dd + 1)))
    for a, b in product(range(d), repeat=2):
        rows = _theta_equivariance_rows(r, Matrix.from_columns(br[a][b], d), dm[a][b])
        for c, dd in product(range(d), repeat=2):
            if any(rows[c][dd]):
                out.append(Violation("module-identity-2", (a + 1, b + 1, c + 1, dd + 1)))
    return tuple(out)


def _theta_equivariance_rows(rep: RepresentationData, bx: Matrix, dx: Matrix):
    """rows[x][y] = dx theta(e_x,e_y) - theta(bx e_x, e_y) - theta(e_x, bx e_y)
    - theta(e_x,e_y) dx, flattened row by row, for every basis pair: at
    bx = [e_a, e_b, -] and dx = D(a, b), minus (R2) at (a, b, x, y).

    One pass over the nonzero entries of the theta(e_i, e_j): the entry
    (r, c, a) of theta(e_i, e_j) meets the nonzeros of column r and
    row c of dx in row (i, j), and adds -bx[i][x] a to row (x, j) and
    -bx[j][y] a to row (i, y).  No matrix is built.
    """
    d, dp = rep.algebra.dim, rep.space_dim
    rows = [[[ZERO] * (dp * dp) for _ in range(d)] for _ in range(d)]
    dx_cols = [[(s, b) for s, b in enumerate(dx.column(k)) if b] for k in range(dp)]
    dx_rows = [[(s, b) for s, b in enumerate(row) if b] for row in dx.entries]
    bx_rows = [[(t, b) for t, b in enumerate(row) if b] for row in bx.entries]
    for i, j, entries in rep.nonzero:
        own = rows[i][j]
        for r, c, a in entries:
            for s, b in dx_cols[r]:
                own[s * dp + c] += b * a
            for s, b in dx_rows[c]:
                own[r * dp + s] -= a * b
        # theta(bx e_x, e_y) and theta(e_x, bx e_y), over the nonzeros of bx
        middle = [(rows[x][j], b) for x, b in bx_rows[i]] + [(rows[i][y], b) for y, b in bx_rows[j]]
        for row, b in middle:
            for r, c, a in entries:
                row[r * dp + c] -= b * a
    return rows


@dataclass(frozen=True)
class ActionData:
    """A representation on the underlying space of another system."""

    rep: RepresentationData
    target: LieTripleSystem

    def __post_init__(self):
        if self.rep.space_dim != self.target.dim:
            raise StructureError("representation space dimension differs from target dimension")

    @property
    def algebra(self) -> LieTripleSystem:
        return self.rep.algebra


def self_action(L: LieTripleSystem) -> ActionData:
    """The adjoint representation of L acting on L itself."""
    return ActionData(adjoint_representation(L), L)


def verify_action(a: ActionData) -> Report:
    """theta(x,y) must land in the target's center and kill its brackets.

    Only the nonzero theta(e_i, e_j) can fail, so the check runs over
    ``rep.nonzero``: center membership is tested for the nonzero
    columns alone, and each bracket's image is summed from the entries.
    """
    out = []
    ctr = center(a.target)
    for i, j, entries in a.rep.nonzero:
        mat = a.rep.theta[i][j]
        for u in sorted({c for _r, c, _x in entries}):
            if not ctr.contains(mat.column(u)):
                out.append(Violation("image-in-center", (i + 1, j + 1, u + 1)))
        for u, v, w, vec in a.target.nonzero:
            image = {}
            for r, c, x in entries:
                if vec[c]:
                    image[r] = image.get(r, ZERO) + x * vec[c]
            if any(image.values()):
                out.append(
                    Violation("kills-brackets", (i + 1, j + 1, u + 1, v + 1, w + 1))
                )
    return tuple(out)


def vector_family(x_map: Matrix, u_map: Matrix) -> tuple:
    """The family whose s-th member is (column s of x_map, column s of
    u_map) in L (+) L', given as :func:`semidirect_brackets` reads it:
    for each row of each map, its nonzero (member, coefficient) pairs."""
    def rows(m):
        return tuple(tuple((s, c) for s, c in enumerate(row) if c) for row in m.entries)

    return rows(x_map), rows(u_map)


def _scatter3(acc: dict, size: int, first, second, third, terms) -> None:
    """Add a b c v at position l of acc[(s, t, r)], a fresh zero row of
    ``size`` if absent, for every (s, a) of ``first``, (t, b) of
    ``second``, (r, c) of ``third`` and (l, v) of ``terms``."""
    for s, a in first:
        for t, b in second:
            ab = a * b
            for r, c in third:
                row = acc.get((s, t, r))
                if row is None:
                    row = acc[s, t, r] = [ZERO] * size
                abc = ab * c
                for l, v in terms:
                    row[l] += abc * v


def semidirect_brackets(a: ActionData, weight: Scalar, first, second, third) -> dict:
    """{(s, t, r): (x, p)}: the bracket [(x1,u1),(x2,u2),(x3,u3)] on
    L (+) L' of member s of the first family, t of the second and r of
    the third, for every triple that receives a term; the bracket of
    any other triple is zero.  Families are built by
    :func:`vector_family`.

    The only place the mixed term is written out; every operator
    identity in the package is read off this bracket.  Its L part is
    [x1,x2,x3] and its L' part is

      D(x1,x2)u3 + theta(x2,x3)u1 - theta(x1,x3)u2 + weight [u1,u2,u3]'.

    One pass scatters every term from the nonzeros: each bracket
    coefficient of L (and, times the weight, of L') meets the members
    with a nonzero coefficient in its three argument rows, and each
    entry (row, col, value) of theta(e_i, e_j) meets the members
    nonzero in rows i and j of the L maps and in row col of an L' map,
    once per term it enters: theta(x2,x1)u3 - theta(x1,x2)u3 for D
    (nothing when i = j), theta(x2,x3)u1 and -theta(x1,x3)u2.  No matrix
    is built and no triple that receives nothing is visited.
    """
    L, Lp, rep = a.algebra, a.target, a.rep
    d, dp = L.dim, Lp.dim
    for rows_x, rows_u in (first, second, third):
        if len(rows_x) != d or len(rows_u) != dp:
            raise StructureError("family rows differ from the action's dimensions")
    (x1, u1), (x2, u2), (x3, u3) = first, second, third
    size, acc = d + dp, {}
    for i, j, k, vec in L.nonzero:
        if x1[i] and x2[j] and x3[k]:
            _scatter3(acc, size, x1[i], x2[j], x3[k], [(l, v) for l, v in enumerate(vec) if v])
    if weight:
        for i, j, k, vec in Lp.nonzero:
            if u1[i] and u2[j] and u3[k]:
                _scatter3(acc, size, u1[i], u2[j], u3[k], [(d + l, weight * v) for l, v in enumerate(vec) if v])
    for i, j, entries in rep.nonzero:
        by_col = {}
        for row, col, value in entries:
            by_col.setdefault(col, []).append((d + row, value))
        for col, plus in by_col.items():
            minus = [(l, -v) for l, v in plus]
            if i != j:
                _scatter3(acc, size, x1[j], x2[i], u3[col], plus)
                _scatter3(acc, size, x1[i], x2[j], u3[col], minus)
            _scatter3(acc, size, u1[col], x2[i], x3[j], plus)
            _scatter3(acc, size, x1[i], u2[col], x3[j], minus)
    return {key: (tuple(row[:d]), tuple(row[d:])) for key, row in acc.items()}


def semidirect_product(a: ActionData, weight: Scalar) -> LieTripleSystem:
    """System on L (+) L' whose bracket realizes the mixed formula.

    Basis order is the L basis followed by the L' basis: the bracket
    table of the basis family, read off :func:`semidirect_brackets`.
    The action must verify; otherwise the output need not satisfy the
    axioms.
    """
    if verify_action(a):
        raise StructureError("semidirect product requires a verified action")
    d, n = a.algebra.dim, a.algebra.dim + a.target.dim
    unit = Matrix.identity(n).entries
    basis = vector_family(Matrix(d, n, unit[:d]), Matrix(n - d, n, unit[d:]))
    entries = {
        key: x + p
        for key, (x, p) in semidirect_brackets(a, weight, basis, basis, basis).items()
        if not vec_is_zero(x + p)
    }
    names = tuple(a.algebra.basis_names) + tuple(f"{nm}'" for nm in a.target.basis_names)
    return LieTripleSystem.from_entries(n, entries, names)
