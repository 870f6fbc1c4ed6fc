"""Odd cochain complexes for Lie triple systems and for relative
Rota-Baxter operators, with exact cocycle/coboundary dimensions.

Cochains of degree 2n+1 >= 3 satisfy two linear constraints: they
vanish when the arguments in slots 2n-1 and 2n coincide, and their
cyclic sum over the last three argument slots vanishes.  The
constraints are written once, as the explicit reduced echelon basis of
:func:`cochain_space_basis`, sparse rows of at most four nonzeros; no
elimination builds it.  Degree-1
cochains are unconstrained linear maps, and the operator complex has
an extra degree -1 piece, the wedge square of the target system.

The coboundary of f in C^{2n-1} is

  (d f)(x_1..x_{2n+1}) =
      theta(x_{2n}, x_{2n+1}) f(x_1..x_{2n-1})
    - theta(x_{2n-1}, x_{2n+1}) f(x_1..x_{2n-2}, x_{2n})
    + sum_i s(n,i) D(x_{2i-1}, x_{2i}) f(.. omit 2i-1, 2i ..)
    + sum_i sum_{j>2i} (-1)^{i+n+1} f(.. [x_{2i-1}, x_{2i}, x_j] in slot j ..)

Two printed sources disagree on the D-sum sign s(n,i): one uses
(-1)^(i+1), the other (-1)^(n+i); they coincide for n = 1 and differ
by the parity of n otherwise.  Only one can square to zero.  This
module implements both ("definition" and "complex"), audits d(d(f)) = 0
on a generating basis, and surfaces which convention closes the
complex instead of silently picking one; see
:func:`complex_audit` and :attr:`OperatorComplex.audit`, whose closing
convention :meth:`OperatorComplex.cohomology` reports.

The operator complex reads its coefficients theta_T off the projected
semidirect brackets of the basis of L with graph vectors, all built in
one pass; its degree -1 map is
delta X = T D(X) - [X,-] T, written over the nonzero entries of theta,
of T and of the bracket.  Each differential is written once, by one
pass that scatters its entries into sparse columns from those nonzeros:
each entry of theta (read off ``RepresentationData.nonzero``, each
D(a, b) as the two entries theta(b, a) - theta(a, b), so no D matrix is
built) and each nonzero bracket coefficient writes its terms over every
value of the free arguments, and no empty output tuple is visited.  The
pass keeps the D-sum apart, as a block P with the "definition" signs,
from the rest A; the "complex" signs differ from those by (-1)^(n+1),
so d_3 is A + P under one convention and A - P under the other, and one
pass serves both.  :class:`OperatorComplex` assembles each at most once
per operator; the audit is the two sparse products A d_1 and P d_1, and
a degree-1 cochain is closed exactly when d_1 f = 0.  Cocycles,
coboundaries and their quotient come from the sparse elimination of
:func:`triplekit.linalg.echelon` on the images of the constrained
basis and on the incoming columns, so no dense matrix stands between
the constrained basis and H; the tests check them against a dense
elimination kept there as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

from .linalg import (
    Matrix,
    ONE,
    StructureError,
    SubspaceBasis,
    Vector,
    VerificationError,
    ZERO,
    basis_vector,
    invert,
    quotient_dim,
    sparse_kernel,
    sparse_transpose,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from .representations import RepresentationData, semidirect_brackets, vector_family
from .reporting import Report, Violation
from .rota_baxter import (
    RelativeRBO,
    RotaBaxterError,
    _graph_family,
    check_rbo_homomorphism,
    descendent_lts,
)

SIGN_CONVENTIONS = ("definition", "complex")


@dataclass(frozen=True)
class Cochain:
    """Coefficient data for one cochain.

    degree >= 1: ``coeffs`` is a flat tuple of target vectors, one per
    argument index tuple in row-major order (degree many arguments,
    each ranging over source_dim).

    degree -1: ``coeffs`` is the wedge coordinate vector of an element
    of (target algebra) wedge (target algebra), over the ordered pairs
    i < j in lexicographic order; its length is
    target_dim*(target_dim-1)/2.
    """

    degree: int
    source_dim: int
    target_dim: int
    coeffs: tuple

    def __post_init__(self):
        if self.degree == -1:
            want = self.target_dim * (self.target_dim - 1) // 2
            if len(self.coeffs) != want:
                raise StructureError("wedge coordinate vector has wrong length")
        elif self.degree >= 1 and self.degree % 2 == 1:
            if len(self.coeffs) != self.source_dim**self.degree:
                raise StructureError("cochain coefficient count differs from source_dim^degree")
            for vec in self.coeffs:
                if len(vec) != self.target_dim:
                    raise StructureError("cochain value length differs from target_dim")
        else:
            raise StructureError(f"unsupported cochain degree {self.degree}")

    def value(self, args: tuple[int, ...]) -> Vector:
        return self.coeffs[flat_arg_index(args, self.source_dim)]

    def is_zero(self) -> bool:
        return not any(flatten_cochain(self))


def flat_arg_index(args: tuple[int, ...], d: int) -> int:
    idx = 0
    for a in args:
        idx = idx * d + a
    return idx


def zero_cochain(degree: int, source_dim: int, target_dim: int) -> Cochain:
    size = target_dim * (target_dim - 1) // 2 if degree == -1 else source_dim**degree * target_dim
    return unflatten_cochain(degree, source_dim, target_dim, zero_vector(size))


def elementary_cochain(degree: int, source_dim: int, target_dim: int, flat: int) -> Cochain:
    """Basis cochain with a single 1 at flattened coordinate ``flat``."""
    total = source_dim**degree * target_dim
    if not 0 <= flat < total:
        raise StructureError("flat coordinate out of range")
    return unflatten_cochain(degree, source_dim, target_dim, basis_vector(total, flat))


def cochain_from_map(matrix: Matrix) -> Cochain:
    """Degree-1 cochain from the matrix of a linear map (rows = target)."""
    return Cochain(1, matrix.cols, matrix.rows, matrix.transpose().entries)


def cochain_to_map(f: Cochain) -> Matrix:
    if f.degree != 1:
        raise StructureError("only degree-1 cochains are linear maps")
    return Matrix.from_columns(list(f.coeffs), f.target_dim)


def flatten_cochain(f: Cochain) -> Vector:
    return tuple(f.coeffs) if f.degree == -1 else tuple(x for vec in f.coeffs for x in vec)


def unflatten_cochain(degree: int, source_dim: int, target_dim: int, flat: Vector) -> Cochain:
    if degree == -1:
        return Cochain(-1, source_dim, target_dim, tuple(flat))
    count = source_dim**degree
    if len(flat) != count * target_dim:
        raise StructureError("flattened cochain has wrong length")
    coeffs = tuple(tuple(flat[p * target_dim:(p + 1) * target_dim]) for p in range(count))
    return Cochain(degree, source_dim, target_dim, coeffs)


def wedge_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


# ---------------------------------------------------------------------------
# constrained cochain spaces


def cochain_space_basis(
    degree: int, d_source: int, d_target: int, allow_degree_5: bool = False
) -> SubspaceBasis:
    """Basis of the constrained cochain space, in flattened coordinates.

    In degrees 3 and 5 the constraints bind the last three arguments
    (x, y, z): skew in x, y and a vanishing cyclic sum.  For every
    prefix of the other arguments, every (i, j, k) with i < j and
    k >= i, and every target coordinate, one row holds +1 at (i, j, k),
    -1 at (j, i, k) and, when k is neither i nor j, also -1 at (j, k, i)
    and +1 at (k, j, i).  The pivot (i, j, k) is the only one of these
    positions with first argument below the second and third argument
    at least the first, so no row has an entry in another row's pivot
    column; emitted in lexicographic order, the rows already are the
    reduced echelon basis, written sparse as their (column, value)
    pairs.  Per target coordinate and prefix there are
    d(d-1)(d+1)/3 of them, d = d_source.

    Degree 5 spaces grow as d_source^5 and are gated behind
    ``allow_degree_5`` so a size override stays an explicit choice.
    """
    if d_source < 0 or d_target < 0:
        raise StructureError("cochain space dimensions must be non-negative")
    if degree == -1:
        return SubspaceBasis.full_space(d_target * (d_target - 1) // 2)
    if degree == 1:
        return SubspaceBasis.full_space(d_source * d_target)
    if degree not in (3, 5):
        raise StructureError(f"unsupported cochain degree {degree}")
    if degree == 5 and not allow_degree_5:
        raise StructureError("degree-5 cochain spaces require the size override")
    ds, dt = d_source, d_target
    rows = []
    for *head, i, j, k in product(range(ds), repeat=degree):
        if i >= j or k < i:
            continue
        tails = [((i, j, k), ONE), ((j, i, k), -ONE)]
        if k not in (i, j):
            tails += [((j, k, i), -ONE), ((k, j, i), ONE)]
        terms = sorted((flat_arg_index((*head, *tail), ds) * dt, c) for tail, c in tails)
        rows += (tuple((pos + l, c) for pos, c in terms) for l in range(dt))
    return SubspaceBasis(ds**degree * dt, tuple(rows))


# ---------------------------------------------------------------------------
# the coboundary operator


def _columns(entries) -> dict:
    """Sum (column, row, value) entries into a differential: sparse
    columns, the j-th the image of the j-th flat basis cochain."""
    columns = {}
    for j, i, x in entries:
        col = columns.setdefault(j, {})
        col[i] = col.get(i, ZERO) + x
    return _without_zeros(columns)


def _without_zeros(columns: dict) -> dict:
    return {j: nz for j, col in columns.items() if (nz := {i: x for i, x in col.items() if x})}


def _apply(columns, vec: dict) -> dict:
    """The matrix with these columns times a sparse vector."""
    out = {}
    for j, c in vec.items():
        for i, a in columns.get(j, {}).items():
            out[i] = out.get(i, ZERO) + c * a
    return {i: x for i, x in out.items() if x}


def _image(columns, f: Cochain) -> Cochain:
    """The cochain that a differential maps f to."""
    ds, dt, degree = f.source_dim, f.target_dim, 1 if f.degree == -1 else f.degree + 2
    flat = [ZERO] * (ds**degree * dt)
    for i, x in _apply(columns, {j: x for j, x in enumerate(flatten_cochain(f)) if x}).items():
        flat[i] = x
    return unflatten_cochain(degree, ds, dt, tuple(flat))


def _p_sign(convention: str, n: int) -> int:
    """The sign of the D-sum block P in the differential out of degree
    2n - 1.  P is written with the signs (-1)^(i+1) of "definition";
    the (-1)^(n+i) of "complex" differ from them by (-1)^(n+1), the same
    factor for every i."""
    if convention not in SIGN_CONVENTIONS:
        raise StructureError(f"unknown sign convention {convention!r}")
    return -1 if convention == "complex" and n % 2 == 0 else 1


def _offsets(d: int, m: int, degree: int, slots) -> list[tuple[int, int]]:
    """The flat (input, output) positions, times m, of every assignment
    of the free arguments of one term: ``slots`` pairs the input slot of
    each free argument with its output slot, the input tuple having
    ``degree`` slots and the output tuple two more."""
    offsets = [(0, 0)]
    for s, t in slots:
        wi, wo = d ** (degree - 1 - s) * m, d ** (degree + 1 - t) * m
        offsets = [(i + x * wi, o + x * wo) for i, o in offsets for x in range(d)]
    return offsets


def _scatter(columns: dict, offsets, col: int, row: int, sign: int, entries) -> None:
    """Add sign * a at column col + c and row row + r of ``columns``,
    shifted by each (input, output) offset, for each entry (r, c, a)."""
    for r, c, a in entries:
        x, j0, i0 = sign * a, col + c, row + r
        for i, o in offsets:
            column = columns.get(i + j0)
            if column is None:
                columns[i + j0] = {o + i0: x}
            else:
                column[o + i0] = column.get(o + i0, ZERO) + x


def _assemble(rep: RepresentationData, degree: int) -> tuple[dict, dict]:
    """The coboundary out of degree ``degree`` as two blocks of sparse
    columns: P, the D-sum with the signs of "definition", and A, the
    rest; under a convention it is A + _p_sign(convention, n) P.

    Each term of the formula above fixes some output arguments and
    passes the others through, so its entries are scattered from the
    nonzeros of the matrix it applies, over the free arguments: theta
    (x_{2n}, x_{2n+1}) and -theta(x_{2n-1}, x_{2n+1}) from each theta
    entry; D(x_{2i-1}, x_{2i}) = theta(x_{2i}, x_{2i-1}) - theta(x_{2i-1},
    x_{2i}) from each theta entry twice; and each insertion of
    [x_{2i-1}, x_{2i}, x_j] from each nonzero bracket coefficient, as an
    identity block.  No output tuple that receives nothing is visited."""
    d, m, k = rep.algebra.dim, rep.space_dim, degree
    n = (k + 1) // 2
    A, P = {}, {}

    def around(s, fixed=None):
        """Offsets for a term whose output holds a fixed pair in slots
        s, s + 1, and whose input slot ``fixed``, if any, is fixed too."""
        return _offsets(d, m, k, [(t, t if t < s else t + 2) for t in range(k) if t != fixed])

    ends = around(k)
    split = _offsets(d, m, k, [(t, t) for t in range(k - 1)] + [(k - 1, k)])
    for a, b, entries in rep.nonzero:
        _scatter(A, ends, 0, (a * d + b) * m, 1, entries)
        _scatter(A, split, 0, (a * d * d + b) * m, -1, entries)
    for i in range(1, n + 1):
        s, w = 2 * i - 2, d ** (k + 2 - 2 * i) * m  # the pair's slots, its second one's weight
        d_sign, ins_sign = -1 if i % 2 == 0 else 1, -1 if (i + n + 1) % 2 else 1
        offsets = around(s)
        for a, b, entries in rep.nonzero:
            if a != b:  # theta(a, b) enters D(b, a) and, negated, D(a, b)
                _scatter(P, offsets, 0, (b * d + a) * w, d_sign, entries)
                _scatter(P, offsets, 0, (a * d + b) * w, -d_sign, entries)
        for slot in range(s, k):
            wz = d ** (k - 1 - slot) * m
            offsets = around(s, slot)
            for a, b, z, vec in rep.algebra.nonzero:
                for src, c in enumerate(vec):
                    if c:
                        ident = [(l, l, c) for l in range(m)]
                        _scatter(A, offsets, src * wz, (a * d + b) * w + z * wz, ins_sign, ident)
    return _without_zeros(A), _without_zeros(P)


def _combine(a: dict, p: dict, sign: int) -> dict:
    """The columns of A + sign P.  Columns that P leaves alone are A's own."""
    out = dict(a)
    for j, col in p.items():
        merged = dict(a.get(j, ()))
        for i, x in col.items():
            merged[i] = merged.get(i, ZERO) + sign * x
        if nz := {i: x for i, x in merged.items() if x}:
            out[j] = nz
        else:
            out.pop(j, None)
    return out


def coboundary(rep: RepresentationData, f: Cochain, sign_convention: str = "definition") -> Cochain:
    """Coboundary of a degree >= 1 cochain over the given coefficients,
    whose algebra is the source of the arguments and whose space is the
    target: the assembled differential applied to f."""
    if f.degree < 1:
        raise StructureError("coboundary of the wedge piece is operator-specific; use delta_wedge")
    if f.source_dim != rep.algebra.dim or f.target_dim != rep.space_dim:
        raise StructureError("cochain dimensions differ from the coefficient system")
    sign = _p_sign(sign_convention, (f.degree + 1) // 2)
    return _image(_combine(*_assemble(rep, f.degree), sign), f)


def _audit(d1: dict, a3: dict, p3: dict) -> dict[str, bool]:
    """Does d_3 d_1 = A d_1 + s P d_1 vanish, per sign convention?  d_1
    maps a basis of C^1, so this decides d(d(f)) = 0 on C^1; s is +1
    under "definition" and -1 under "complex", so the two products
    decide both conventions."""
    images = [(_apply(a3, col), _apply(p3, col)) for col in d1.values()]
    signs = {c: _p_sign(c, 2) for c in SIGN_CONVENTIONS}
    return {c: all(x == {i: -s * y for i, y in py.items()} for x, py in images) for c, s in signs.items()}


def complex_audit(rep: RepresentationData) -> dict[str, bool]:
    """For each sign convention, does d(d(f)) = 0 on a basis of C^1?"""
    return _audit(_combine(*_assemble(rep, 1), 1), *_assemble(rep, 3))


def _closing_convention(audit: dict[str, bool]) -> str:
    """The convention whose double coboundary vanishes, the printed one first."""
    for convention in SIGN_CONVENTIONS:
        if audit[convention]:
            return convention
    raise VerificationError("no sign convention closes the cochain complex")


# ---------------------------------------------------------------------------
# the operator complex


def induced_rep(rbo: RelativeRBO) -> RepresentationData:
    """Coefficients for the operator complex: the descendent system
    acting on the ambient space by

      theta_T(u,v)x = [x,Tu,Tv] - T( D(x,Tu)v - theta(x,Tv)u ),

    the projected bracket x' - Tp of (x', p) = [(x,0), (Tu,u), (Tv,v)].
    One :func:`triplekit.representations.semidirect_brackets` pass over
    the families (plain, graph, graph) yields every such bracket, and
    its nonzero coordinates are the entries of theta_T.  Its derived
    D_T is the projected bracket of (Tu,u), (Tv,v), (x,0) exactly when
    the ambient identity [Tu,Tv,x] = [x,Tv,Tu] - [x,Tu,Tv] holds, since
    the L' parts of the two agree identically; that identity is checked
    on all basis pairs and vectors before returning, reading the L
    parts of a second pass over (graph, graph, plain) against the L
    parts of the first.
    """
    desc = descendent_lts(rbo)
    action, T = rbo.action, rbo.T
    d, dp = rbo.ambient.dim, rbo.source.dim
    graph = _graph_family(T)
    plain = vector_family(Matrix.identity(d), Matrix.zeros(dp, d))
    table = semidirect_brackets(action, rbo.weight, plain, graph, graph)
    theta = {
        (u, v, l, x): c
        for (x, u, v), (part, p) in table.items()
        for l, c in enumerate(vec_sub(part, T.apply(p)))
        if c
    }
    mixed = semidirect_brackets(action, rbo.weight, graph, graph, plain)
    zero = zero_vector(d)

    def ambient(tab, key):
        got = tab.get(key)
        return zero if got is None else got[0]

    for u, v, x in product(range(dp), range(dp), range(d)):
        if ambient(mixed, (u, v, x)) != vec_sub(ambient(table, (x, v, u)), ambient(table, (x, u, v))):
            raise VerificationError(
                "derived D_T disagrees with its closed formula; input is not a valid operator"
            )
    return RepresentationData.from_entries(desc, d, theta)


def _assemble_delta(rbo: RelativeRBO) -> dict:
    """delta X = T D(X) - [X,-] T, one column per unit wedge e_i ^ e_j:
    (delta X)(v) = T D(e_i, e_j) v - [e_i, e_j, Tv].  Every entry is a
    product of nonzeros: of theta, since D(e_i, e_j) = theta(e_j, e_i)
    - theta(e_i, e_j), of T, and of the bracket."""
    d, dp = rbo.ambient.dim, rbo.source.dim
    wedge = {pair: k for k, pair in enumerate(wedge_pairs(d))}
    T_cols = [[(l, t) for l, t in enumerate(rbo.T.column(w)) if t] for w in range(dp)]
    T_rows = [[(v, t) for v, t in enumerate(row) if t] for row in rbo.T.entries]

    def entries():
        for i, j, theta in rbo.action.rep.nonzero:
            if i != j:
                k, sign = (wedge[i, j], -1) if i < j else (wedge[j, i], 1)
                for w, v, a in theta:
                    for l, t in T_cols[w]:
                        yield k, v * d + l, sign * t * a
        for i, j, x, vec in rbo.ambient.nonzero:
            if i < j:
                for v, t in T_rows[x]:
                    for l, c in enumerate(vec):
                        if c:
                            yield wedge[i, j], v * d + l, -t * c

    return _columns(entries())


class OperatorComplex:
    """The complex of one operator: its induced representation, delta,
    d_1, the two blocks of d_3 and the audit, each built on first use
    and kept.  A command builds one and pays only for what it reads."""

    def __init__(self, rbo: RelativeRBO):
        self.rbo = rbo
        self._built = {}
        self._parts = {}

    @cached_property
    def rep(self) -> RepresentationData:
        return induced_rep(self.rbo)

    def _blocks(self, degree: int) -> tuple[dict, dict]:
        """A and P of the differential out of degree 1 or 3, assembled once."""
        if degree not in self._parts:
            self._parts[degree] = _assemble(self.rep, degree)
        return self._parts[degree]

    def differential(self, degree: int, convention: str = "definition") -> dict:
        """delta (degree -1), d_1 or d_3 as sparse columns; d_3 is A + P
        under "definition" and A - P under "complex"."""
        sign = _p_sign(convention, (degree + 1) // 2)
        key = (degree, sign if degree > 0 else 1)
        if key not in self._built:
            self._built[key] = (
                _assemble_delta(self.rbo) if degree == -1 else _combine(*self._blocks(degree), sign)
            )
        return self._built[key]

    @cached_property
    def audit(self) -> dict[str, bool]:
        return _audit(self.differential(1), *self._blocks(3))

    def apply(self, f: Cochain, convention: str = "definition") -> Cochain:
        """Coboundary of f in degree -1, 1 or 3."""
        if f.degree not in (-1, 1, 3):
            raise StructureError(f"unsupported cochain degree {f.degree}")
        if f.source_dim != self.rbo.source.dim or f.target_dim != self.rbo.ambient.dim:
            raise StructureError(
                "wedge coordinates sized for a different operator" if f.degree == -1
                else "cochain dimensions differ from the coefficient system"
            )
        return _image(self.differential(f.degree, convention), f)

    def cohomology(self, degree: int) -> CohomologyData:
        """Z, B and H in degree 1 or 3: Z is the kernel of the outgoing
        differential on the constrained basis, B the span of the
        incoming one's columns; both are read off the sparse echelon
        form of :func:`triplekit.linalg.echelon`, with no dense matrix."""
        if degree not in (1, 3):
            raise StructureError(f"unsupported cohomology degree {degree}")
        d, dp = self.rbo.ambient.dim, self.rbo.source.dim
        size = dp**degree * d
        audit = self.audit if degree == 3 else {}
        convention = _closing_convention(audit) if audit else "definition"
        basis = dict(enumerate(map(dict, cochain_space_basis(degree, dp, d).rows)))
        images = [_apply(self.differential(degree, convention), vec).items() for vec in basis.values()]
        kernel = sparse_kernel(sparse_transpose(images), len(images))
        # the constrained basis is in reduced echelon form, so its
        # combinations along the echelon kernel basis are too
        cocycles = SubspaceBasis(size, tuple(
            tuple(sorted(_apply(basis, dict(c)).items())) for c in kernel.rows
        ))
        coboundaries = SubspaceBasis.from_sparse(self.differential(degree - 2).values(), size)
        return CohomologyData(CohomologyResult(
            degree, cocycles.dim, coboundaries.dim, quotient_dim(coboundaries, cocycles),
            convention if audit else None, tuple(sorted(audit.items())),
        ), cocycles, coboundaries)


def delta_wedge(rbo: RelativeRBO, wedge: Cochain) -> Cochain:
    """Degree -1 coboundary: delta X = T D(X) - [X,-] T, that is
    (delta X)(v) = T D(X) v - [X, Tv]."""
    if wedge.degree != -1:
        raise StructureError("delta_wedge expects a degree -1 cochain")
    return OperatorComplex(rbo).apply(wedge)


def one_cocycle_check(rbo: RelativeRBO, f: Cochain) -> Report:
    """Closedness of a degree-1 cochain: the basis triples where d_1 f,
    its coboundary in the operator complex, does not vanish.

    d_1 f at (u, v, w) is the t-coefficient of the Rota-Baxter defect
    of T + t f at that triple, so the witnesses are also those of the
    order-t rule of :func:`triplekit.deformations.check_deformation`.
    """
    if f.degree != 1:
        raise StructureError("cocycle check expects a degree-1 cochain")
    if f.source_dim != rbo.source.dim or f.target_dim != rbo.ambient.dim:
        raise StructureError("cochain dimensions differ from the operator's spaces")
    df = OperatorComplex(rbo).apply(f)
    return tuple(
        Violation("one-cocycle", tuple(a + 1 for a in args))
        for args, vec in zip(product(range(f.source_dim), repeat=3), df.coeffs)
        if not vec_is_zero(vec)
    )


# ---------------------------------------------------------------------------
# cohomology groups


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_H: int
    sign_convention: str | None = None
    sign_audit: tuple[tuple[str, bool], ...] = ()


@dataclass(frozen=True)
class CohomologyData:
    """Cocycle and coboundary spaces in flattened cochain coordinates."""

    result: CohomologyResult
    cocycles: SubspaceBasis
    coboundaries: SubspaceBasis


def cohomology_group(rbo: RelativeRBO, degree: int) -> CohomologyResult:
    """Exact dims of cocycles, coboundaries and the quotient.  (RB) is
    checked once, by the descendent system under the induced
    representation, before anything else is computed."""
    cx = OperatorComplex(rbo)
    try:
        cx.rep
    except RotaBaxterError as exc:
        raise VerificationError("cohomology requires the Rota-Baxter identity to hold") from exc
    return cx.cohomology(degree).result


# ---------------------------------------------------------------------------
# functorial transport


def cochain_map_p(h, f: Cochain) -> Cochain:
    """Transport a cochain along an operator homomorphism:

        p(f)(u_1..u_k) = psi_L( f(psi'^-1 u_1, .., psi'^-1 u_k) ).

    Requires an invertible psi_Lprime and a verified homomorphism;
    then p intertwines the two operator coboundaries.
    """
    if f.degree < 1:
        raise StructureError("cochain transport is defined in degrees >= 1")
    psi_inv = invert(h.psi_Lprime)
    if psi_inv is None:
        raise VerificationError("psi_Lprime is singular; cochain transport undefined")
    if check_rbo_homomorphism(h):
        raise VerificationError("cochain transport requires a verified operator homomorphism")
    dp, d = f.source_dim, f.target_dim
    # psi'^-1 u_a = sum_s psi_inv[s][a] u_s: the nonzero (s, coefficient) pairs per a
    pulls = [[(s, c) for s, row in enumerate(psi_inv.entries) if (c := row[a])] for a in range(dp)]
    coeffs = []
    for args in product(range(dp), repeat=f.degree):
        acc = [ZERO] * d
        for terms in product(*(pulls[a] for a in args)):
            c = prod(t for _, t in terms)
            for l, x in enumerate(f.value(tuple(s for s, _ in terms))):
                acc[l] += c * x
        coeffs.append(h.psi_L.apply(tuple(acc)))
    return Cochain(f.degree, dp, d, tuple(coeffs))
