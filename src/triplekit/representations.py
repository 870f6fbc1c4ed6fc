"""Representations and actions of Lie triple systems, and semidirect products.

A representation of L on V assigns matrices theta(e_i, e_j) in End(V)
subject to the two compatibility identities

  (R1) theta(c,d) theta(a,b) - theta(b,d) theta(a,c)
         - theta(a, [b,c,d]) + D(b,c) theta(a,d) = 0
  (R2) theta(c,d) D(a,b) - D(a,b) theta(c,d)
         + theta([a,b,c], d) + theta(c, [a,b,d]) = 0

with D(a,b) = theta(b,a) - theta(a,b).  A representation is stored as
the nonzero entries of its matrices theta(e_i, e_j), pair by pair, and
nothing else: every contraction with arbitrary arguments, both
identities, the action check and D, which is derived on the fly and
never stored, run over that list, and a caller that needs a matrix
builds it from the entries.
An action is a representation on a space that is itself a Lie triple
system, landing in its center and killing its brackets; actions are
exactly what semidirect products need.  The semidirect bracket is
written out once, in :func:`semidirect_brackets`, which brackets every
triple of members of three vector families in one scatter pass; the
semidirect product, the Rota-Baxter defects and the induced
representation of an operator are all tables of it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from .linalg import Matrix, Scalar, StructureError, Vector, ZERO, vec_is_zero
from .lts import LieTripleSystem, bracket_operator, center
from .reporting import Report, Violation


@dataclass(frozen=True)
class RepresentationData:
    """The representation theta of ``algebra`` on F^space_dim."""

    algebra: LieTripleSystem
    space_dim: int
    # (i, j, ((row, col, value), ...)) for every nonzero theta(e_i, e_j),
    # in (i, j) order, its nonzero entries row-major; build through
    # from_entries.
    nonzero: tuple

    @classmethod
    def from_entries(cls, algebra: LieTripleSystem, space_dim: int, entries) -> "RepresentationData":
        """Build from a {(i, j, row, col): value} dict of 0-based entries
        of the theta(e_i, e_j); unlisted and zero entries are zero."""
        d, n = algebra.dim, space_dim
        for i, j, r, c in entries:
            if not (0 <= i < d and 0 <= j < d and 0 <= r < n and 0 <= c < n):
                raise StructureError(f"theta entry index out of range: {(i, j, r, c)}")
        pairs = {}
        for (i, j, r, c), value in sorted(entries.items()):
            if value:
                pairs.setdefault((i, j), []).append((r, c, value))
        return cls(algebra, space_dim, tuple((i, j, tuple(e)) for (i, j), e in pairs.items()))

    def d_basis(self, i: int, j: int) -> Matrix:
        """D(e_i, e_j) = theta(e_j, e_i) - theta(e_i, e_j), from the
        entries of the two pairs, each found by bisection."""
        n, nz = self.space_dim, self.nonzero
        acc = [[ZERO] * n for _ in range(n)]
        for pair, sign in (((j, i), 1), ((i, j), -1)):
            at = bisect_left(nz, pair, key=lambda item: item[:2])
            for r, c, a in nz[at][2] if at < len(nz) and nz[at][:2] == pair else ():
                acc[r][c] += sign * a
        return Matrix(n, n, tuple(map(tuple, acc)))

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
    return RepresentationData(L, space_dim, ())


def adjoint_representation(L: LieTripleSystem) -> RepresentationData:
    """theta(a,b)c = [c,a,b]; the induced D(a,b) is c -> [a,b,c]."""
    entries = {(a, b, l, c): v for c, a, b, vec in L.nonzero for l, v in enumerate(vec) if v}
    return RepresentationData.from_entries(L, L.dim, entries)


def verify_representation(r: RepresentationData) -> Report:
    """Check (R1) and (R2) on all basis 4-tuples of the acting algebra:
    (R1) is read off :func:`_module_identity_rows`, (R2) off
    :func:`_theta_equivariance_rows`, one call per pair."""
    L, rows = r.algebra, _module_identity_rows(r)
    out = [Violation("module-identity-1", tuple(t + 1 for t in key)) for key in sorted(rows) if any(rows[key].values())]
    for a, b in product(range(L.dim), repeat=2):
        rows = _theta_equivariance_rows(r, bracket_operator(L, {(a, b): 1}), r.d_basis(a, b))
        for c, dd in product(range(L.dim), repeat=2):
            if any(rows[c][dd]):
                out.append(Violation("module-identity-2", (a + 1, b + 1, c + 1, dd + 1)))
    return tuple(out)


def _module_identity_rows(rep: RepresentationData) -> dict:
    """{(a, b, c, d): {row * n + col: value}}: the left side of (R1),

      theta(c,d) theta(a,b) - theta(b,d) theta(a,c)
        - theta(a, [b,c,d]) + D(b,c) theta(a,d),

    for every basis 4-tuple that receives a term; (R1) holds at every
    other.  Each product theta(e_p, e_q) theta(e_s, e_t) of two nonzero
    pairs enters four terms: at (s, t, p, q), at (s, p, t, q) negated,
    and through D(b,c) = theta(c,b) - theta(b,c) at (s, q, p, t) and,
    negated, at (s, p, q, t).  Each coordinate v at l of a bracket
    [e_b,e_c,e_d] adds -v theta(e_a, e_l) at (a, b, c, d).
    """
    dp, acc = rep.space_dim, defaultdict(dict)

    def add(key, sign, entries):
        row = acc[key]
        for pos, v in entries:
            row[pos] = row.get(pos, ZERO) + sign * v

    by_row, by_second = defaultdict(list), defaultdict(list)
    for s, t, entries in rep.nonzero:
        for r, c, a in entries:
            by_row[s, t, r].append((c, a))
        by_second[t].append((s, [(r * dp + c, a) for r, c, a in entries]))
    for p, q, first in rep.nonzero:
        for s, t, _ in rep.nonzero:
            if prod := [(r * dp + c, a * b) for r, m, a in first for c, b in by_row.get((s, t, m), ())]:
                for key, sign in (((s, t, p, q), 1), ((s, p, t, q), -1), ((s, q, p, t), 1), ((s, p, q, t), -1)):
                    add(key, sign, prod)
    for b, c, dd, vec in rep.algebra.nonzero:
        for l, v in enumerate(vec):
            for a, entries in by_second[l] if v else ():
                add((a, b, c, dd), -v, entries)
    return acc


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
        columns = {}
        for r, c, x in entries:
            columns.setdefault(c, [ZERO] * a.target.dim)[r] = x
        for u in sorted(columns):
            if not ctr.contains(tuple(columns[u])):
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
