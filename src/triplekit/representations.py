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
contraction with arbitrary arguments runs over that list, as does the
one evaluator of (R2), which deformations share.  An action
is a representation on a space that is itself a Lie triple system,
landing in its center and killing its brackets; actions are exactly
what semidirect products need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .linalg import Matrix, Scalar, StructureError, Vector, ZERO, basis_vector, vec_is_zero
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
    """theta(x,y) must land in the target's center and kill its brackets."""
    out = []
    d = a.rep.algebra.dim
    dp = a.target.dim
    ctr = center(a.target)
    for i, j in product(range(d), repeat=2):
        mat = a.rep.theta[i][j]
        for u in range(dp):
            if not ctr.contains(mat.column(u)):
                out.append(Violation("image-in-center", (i + 1, j + 1, u + 1)))
        for u, v, w, vec in a.target.nonzero:
            if not vec_is_zero(mat.apply(vec)):
                out.append(
                    Violation("kills-brackets", (i + 1, j + 1, u + 1, v + 1, w + 1))
                )
    return tuple(out)


def semidirect_bracket(
    a: ActionData, weight: Scalar, x1: Vector, u1: Vector, x2: Vector, u2: Vector, x3: Vector, u3: Vector
) -> tuple[Vector, Vector]:
    """[(x1,u1),(x2,u2),(x3,u3)] on L (+) L' for the action and weight.

    The only place the mixed term is written out; every operator
    identity in the package is read off this bracket.  Its L' part

      D(x1,x2)u3 + theta(x2,x3)u1 - theta(x1,x3)u2 + weight [u1,u2,u3]'

    is contracted in one pass over the nonzero entries of the
    theta(e_i, e_j): the entry (row, col, value) of theta(e_i, e_j)
    adds value * (c3 u3[col] + c1 u1[col] - c2 u2[col]) to the row,
    with c3 = x2_i x1_j - x1_i x2_j, c1 = x2_i x3_j and c2 = x1_i x3_j.
    No matrix is built.
    """
    L, Lp, rep = a.algebra, a.target, a.rep
    part_l = L.bracket_eval(x1, x2, x3)
    part_p = [weight * v for v in Lp.bracket_eval(u1, u2, u3)]
    # an entry contributes only in a column where some u is nonzero
    cols = [col for col in range(Lp.dim) if u1[col] or u2[col] or u3[col]]
    for i, j, entries in rep.nonzero:
        if not (x1[i] or x2[i]):
            continue  # each of c3, c1, c2 has x1_i or x2_i as a factor
        c3 = x2[i] * x1[j] - x1[i] * x2[j]
        c1 = x2[i] * x3[j]
        c2 = x1[i] * x3[j]
        if c3 or c1 or c2:
            combo = {col: c3 * u3[col] + c1 * u1[col] - c2 * u2[col] for col in cols}
            for r, col, val in entries:
                if s := combo.get(col):
                    part_p[r] += val * s
    return part_l, tuple(part_p)


def semidirect_product(a: ActionData, weight: Scalar) -> LieTripleSystem:
    """System on L (+) L' whose bracket realizes the mixed formula.

    Basis order is the L basis followed by the L' basis.  The action
    must verify; otherwise the output need not satisfy the axioms.
    """
    if verify_action(a):
        raise StructureError("semidirect product requires a verified action")
    d, dp = a.algebra.dim, a.target.dim
    n = d + dp

    def split(idx):
        e = basis_vector(n, idx)
        return e[:d], e[d:]

    entries = {}
    for i, j, k in product(range(n), repeat=3):
        pl, pp = semidirect_bracket(a, weight, *split(i), *split(j), *split(k))
        vec = pl + pp
        if not vec_is_zero(vec):
            entries[(i, j, k)] = vec
    names = tuple(a.algebra.basis_names) + tuple(f"{nm}'" for nm in a.target.basis_names)
    return LieTripleSystem.from_entries(n, entries, names)
