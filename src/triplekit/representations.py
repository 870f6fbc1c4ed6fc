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
builds it from the entries.  D(X) and [X, -] of a wedge are formed in
one place, :func:`_wedge_maps`; ``d_basis``, the (R2) rows, delta and
the equivalence of deformations all read it.
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

from .linalg import Matrix, Scalar, StructureError, Vector, VerificationError, ZERO
from .lts import LieTripleSystem, center
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
        """D(e_i, e_j) = theta(e_j, e_i) - theta(e_i, e_j), the D part of
        :func:`_wedge_maps` at the unit wedge e_i ^ e_j."""
        n, dx = self.space_dim, _wedge_maps(self, {(i, j): 1})[0]
        return Matrix(n, n, tuple(tuple(dx.get((r, c), ZERO) for c in range(n)) for r in range(n)))

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
    entries = {(a, b, l, c): v for c, a, b, terms in L.nonzero for l, v in terms}
    return RepresentationData.from_entries(L, L.dim, entries)


def verify_representation(r: RepresentationData) -> Report:
    """Check (R1) and (R2) on all basis 4-tuples of the acting algebra:
    (R1) is read off :func:`_module_identity_rows`, (R2) off
    :func:`_theta_equivariance_rows` at each pair (a, b) alone."""
    r1 = _module_identity_rows(r)
    out = [Violation("module-identity-1", tuple(t + 1 for t in key)) for key in sorted(r1) if any(r1[key].values())]
    for a, b in product(range(r.algebra.dim), repeat=2):
        r2 = _theta_equivariance_rows(r, _wedge_maps(r, {(a, b): 1}))
        out += [Violation("module-identity-2", (a + 1, b + 1, x + 1, y + 1)) for x, y in sorted(r2) if any(r2[x, y])]
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
    for b, c, dd, terms in rep.algebra.nonzero:
        for l, v in terms:
            for a, entries in by_second[l]:
                add((a, b, c, dd), -v, entries)
    return acc


def _wedge_maps(rep: RepresentationData, wedge: dict) -> tuple[dict, dict]:
    """(D(X), [X, -]) for X = sum c e_a ^ e_b over the {(a, b): c} of
    ``wedge``, as {(row, col): value} without zeros: D(X) on the space,
    [X, e_k]_l at (l, k) on the algebra.  Each D(a, b) = theta(b, a) -
    theta(a, b) and [e_a, e_b, -] is found by bisection, so over all unit
    wedges each nonzero of theta and of the bracket is visited once."""
    # a pair sorts just before the entries it prefixes, so it is its own key
    nz, brackets, dx, kx = rep.nonzero, rep.algebra.nonzero, {}, {}
    for (a, b), co in wedge.items():
        for pair, sign in (((b, a), co), ((a, b), -co)):
            at = bisect_left(nz, pair)
            for r, c, v in nz[at][2] if at < len(nz) and nz[at][:2] == pair else ():
                dx[r, c] = dx.get((r, c), ZERO) + sign * v
        at = bisect_left(brackets, (a, b))
        while at < len(brackets) and brackets[at][:2] == (a, b):
            _, _, k, terms = brackets[at]
            for l, v in terms:
                kx[l, k] = kx.get((l, k), ZERO) + co * v
            at += 1
    return {key: v for key, v in dx.items() if v}, {key: v for key, v in kx.items() if v}


def _theta_equivariance_rows(rep: RepresentationData, maps: tuple[dict, dict]) -> dict:
    """{(x, y): row}: minus (R2) at (a, b, x, y),
    D(a,b) theta(x,y) - theta([a,b,x], y) - theta(x, [a,b,y]) - theta(x,y) D(a,b),
    flattened row by row into a list and summed over the pairs (a, b) of
    a wedge, at every (x, y) that receives a term; ``maps`` is that
    wedge's (D(X), [X, -]) from :func:`_wedge_maps`.

    When both are zero nothing else is visited.  Otherwise the entry
    (r, c, v) of each nonzero theta(e_i, e_j) meets column r and row c of
    D(X) at (i, j), and adds -[X, e_x]_i v at (x, j) and -[X, e_y]_j v at
    (i, y).
    """
    n, d, (dx, kx), d_cols, d_rows, k_rows = rep.space_dim, rep.algebra.dim, maps, {}, {}, {}
    for (r, c), v in dx.items():  # d_cols[c] lists (r * n, D(X)[r][c]), d_rows[r] lists (c, D(X)[r][c])
        d_cols.setdefault(c, []).append((r * n, v))
        d_rows.setdefault(r, []).append((c, v))
    for (l, k), v in kx.items():  # k_rows[l] lists (k, [X, e_k]_l)
        k_rows.setdefault(l, []).append((k, v))
    rows = [[None] * d for _ in range(d)]
    for i, j, entries in rep.nonzero if d_cols or k_rows else ():
        own = rows[i][j] = rows[i][j] or [ZERO] * (n * n)
        for r, c, v in entries:
            for sn, w in d_cols.get(r, ()):
                own[sn + c] += w * v
            for s, w in d_rows.get(c, ()):
                own[r * n + s] -= v * w
        for x, y, w in [(x, j, w) for x, w in k_rows.get(i, ())] + [(i, y, w) for y, w in k_rows.get(j, ())]:
            row = rows[x][y] = rows[x][y] or [ZERO] * (n * n)
            for r, c, v in entries:
                row[r * n + c] -= w * v
    return {(x, y): row for x, line in enumerate(rows) for y, row in enumerate(line) if row}


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
    out, n = [], a.target.dim
    ctr = center(a.target)
    for i, j, entries in a.rep.nonzero:
        columns = {}  # c: {r: theta(e_i, e_j)[r][c]}
        for r, c, x in entries:
            columns.setdefault(c, {})[r] = x
        for u in sorted(columns):
            if not ctr.contains(tuple(columns[u].get(r, ZERO) for r in range(n))):
                out.append(Violation("image-in-center", (i + 1, j + 1, u + 1)))
        for u, v, w, terms in a.target.nonzero:
            image = {}
            for l, y in terms:
                for r, x in columns.get(l, {}).items():
                    image[r] = image.get(r, ZERO) + x * y
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
    for i, j, k, terms in L.nonzero:
        if x1[i] and x2[j] and x3[k]:
            _scatter3(acc, size, x1[i], x2[j], x3[k], terms)
    if weight:
        for i, j, k, terms in Lp.nonzero:
            if u1[i] and u2[j] and u3[k]:
                _scatter3(acc, size, u1[i], u2[j], u3[k], [(d + l, weight * v) for l, v in terms])
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
        raise VerificationError("semidirect product requires a verified action")
    d, n = a.algebra.dim, a.algebra.dim + a.target.dim
    unit = Matrix.identity(n).entries
    basis = vector_family(Matrix(d, n, unit[:d]), Matrix(n - d, n, unit[d:]))
    entries = {key: x + p for key, (x, p) in semidirect_brackets(a, weight, basis, basis, basis).items()}
    names = tuple(a.algebra.basis_names) + tuple(f"{nm}'" for nm in a.target.basis_names)
    return LieTripleSystem.from_entries(n, entries, names)
