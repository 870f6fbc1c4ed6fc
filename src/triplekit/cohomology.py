"""Odd cochain complexes for Lie triple systems and for relative
Rota-Baxter operators, with exact cocycle/coboundary dimensions.

Cochains of degree 2n+1 >= 3 satisfy two linear constraints: they
vanish when the arguments in slots 2n-1 and 2n coincide, and their
cyclic sum over the last three argument slots vanishes.  The
constraints are written once, as the explicit reduced echelon basis of
:func:`cochain_space_basis`; no elimination builds it.  Degree-1
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
:func:`complex_audit` and :func:`resolve_sign_convention`.

The operator complex reads its coefficients theta_T off the projected
semidirect bracket of graph vectors; its degree -1 map is
delta X = T D(X) - [X,-] T.  Every differential matrix, of delta, d_1
or d_3, is built by one helper that maps basis cochains through
:func:`delta_wedge` or :func:`coboundary`, and a degree-1 cochain is
closed exactly when d_1 f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    kernel_basis,
    quotient_dim,
    vec_is_zero,
    zero_vector,
)
from .representations import RepresentationData
from .reporting import Report, Violation
from .rota_baxter import (
    RelativeRBO,
    _graph_vector,
    _projected_bracket,
    check_rbo,
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
        if self.degree == -1:
            return all(x == 0 for x in self.coeffs)
        return all(vec_is_zero(v) for v in self.coeffs)


def flat_arg_index(args: tuple[int, ...], d: int) -> int:
    idx = 0
    for a in args:
        idx = idx * d + a
    return idx


def zero_cochain(degree: int, source_dim: int, target_dim: int) -> Cochain:
    if degree == -1:
        return Cochain(-1, source_dim, target_dim, (ZERO,) * (target_dim * (target_dim - 1) // 2))
    return Cochain(
        degree, source_dim, target_dim,
        tuple(zero_vector(target_dim) for _ in range(source_dim**degree)),
    )


def elementary_cochain(degree: int, source_dim: int, target_dim: int, flat: int) -> Cochain:
    """Basis cochain with a single 1 at flattened coordinate ``flat``."""
    total = source_dim**degree * target_dim
    if not 0 <= flat < total:
        raise StructureError("flat coordinate out of range")
    pos, l = divmod(flat, target_dim)
    coeffs = [zero_vector(target_dim)] * (source_dim**degree)
    coeffs[pos] = basis_vector(target_dim, l)
    return Cochain(degree, source_dim, target_dim, tuple(coeffs))


def cochain_from_map(matrix: Matrix) -> Cochain:
    """Degree-1 cochain from the matrix of a linear map (rows = target)."""
    return Cochain(
        1, matrix.cols, matrix.rows,
        tuple(matrix.column(j) for j in range(matrix.cols)),
    )


def cochain_to_map(f: Cochain) -> Matrix:
    if f.degree != 1:
        raise StructureError("only degree-1 cochains are linear maps")
    return Matrix.from_columns(list(f.coeffs), f.target_dim)


def flatten_cochain(f: Cochain) -> Vector:
    if f.degree == -1:
        return tuple(f.coeffs)
    out = []
    for vec in f.coeffs:
        out.extend(vec)
    return tuple(out)


def unflatten_cochain(degree: int, source_dim: int, target_dim: int, flat: Vector) -> Cochain:
    if degree == -1:
        return Cochain(-1, source_dim, target_dim, tuple(flat))
    count = source_dim**degree
    if len(flat) != count * target_dim:
        raise StructureError("flattened cochain has wrong length")
    coeffs = tuple(
        tuple(flat[p * target_dim + l] for l in range(target_dim)) for p in range(count)
    )
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
    reduced echelon basis.  Per target coordinate and prefix there are
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
    width = ds**degree * dt
    rows = []
    for *head, i, j, k in product(range(ds), repeat=degree):
        if i >= j or k < i:
            continue
        tails = [((i, j, k), ONE), ((j, i, k), -ONE)]
        if k not in (i, j):
            tails += [((j, k, i), -ONE), ((k, j, i), ONE)]
        terms = [(flat_arg_index((*head, *tail), ds) * dt, c) for tail, c in tails]
        for l in range(dt):
            row = [ZERO] * width
            for pos, c in terms:
                row[pos + l] = c
            rows.append(tuple(row))
    return SubspaceBasis(width, tuple(rows))


# ---------------------------------------------------------------------------
# the coboundary operator


def _d_sum_sign(convention: str, n: int, i: int) -> int:
    if convention == "definition":
        return -1 if i % 2 == 0 else 1            # (-1)^(i+1)
    if convention == "complex":
        return -1 if (n + i) % 2 else 1           # (-1)^(n+i)
    raise StructureError(f"unknown sign convention {convention!r}")


def coboundary(rep: RepresentationData, f: Cochain, sign_convention: str = "definition") -> Cochain:
    """Coboundary of a degree >= 1 cochain over the given coefficients.

    ``rep.algebra`` is the source of the cochain arguments and the
    representation space is the target.
    """
    if f.degree < 1:
        raise StructureError("coboundary of the wedge piece is operator-specific; use delta_wedge")
    d, m = rep.algebra.dim, rep.space_dim
    if f.source_dim != d or f.target_dim != m:
        raise StructureError("cochain dimensions differ from the coefficient system")
    n = (f.degree + 1) // 2
    L = rep.algebra
    theta = rep.theta
    dmat = [[rep.d_basis(i, j) for j in range(d)] for i in range(d)]
    out = []
    for args in product(range(d), repeat=f.degree + 2):
        acc = list(theta[args[-2]][args[-1]].apply(f.value(args[:-2])))
        t = theta[args[-3]][args[-1]].apply(f.value(args[:-3] + (args[-2],)))
        for l in range(m):
            acc[l] -= t[l]
        for i in range(1, n + 1):
            reduced = args[: 2 * i - 2] + args[2 * i:]
            sgn = _d_sum_sign(sign_convention, n, i)
            t = dmat[args[2 * i - 2]][args[2 * i - 1]].apply(f.value(reduced))
            if sgn > 0:
                for l in range(m):
                    acc[l] += t[l]
            else:
                for l in range(m):
                    acc[l] -= t[l]
            ins_sgn = -1 if (i + n + 1) % 2 else 1
            for jpos in range(2 * i, f.degree + 2):
                w = L.bracket[args[2 * i - 2]][args[2 * i - 1]][args[jpos]]
                if vec_is_zero(w):
                    continue
                red = list(reduced)
                slot = jpos - 2
                for lsrc in range(d):
                    if w[lsrc]:
                        red[slot] = lsrc
                        t = f.value(tuple(red))
                        coef = w[lsrc] if ins_sgn > 0 else -w[lsrc]
                        for l in range(m):
                            acc[l] += coef * t[l]
        out.append(tuple(acc))
    return Cochain(f.degree + 2, d, m, tuple(out))


def _differential(
    rep: RepresentationData, degree: int, vectors, convention: str = "definition",
    rbo: RelativeRBO | None = None,
) -> Matrix:
    """Matrix of the differential on degree-``degree`` cochains: column k
    is the flattened image of the k-th flat cochain in ``vectors``.

    Degrees 1 and 3 go through :func:`coboundary` over ``rep``; degree
    -1 goes through :func:`delta_wedge` of ``rbo``, whose induced
    representation ``rep`` is.
    """
    dp, d = rep.algebra.dim, rep.space_dim
    height = dp * d if degree == -1 else dp ** (degree + 2) * d
    cols = []
    for vec in vectors:
        f = unflatten_cochain(degree, dp, d, vec)
        img = delta_wedge(rbo, f) if degree == -1 else coboundary(rep, f, convention)
        cols.append(flatten_cochain(img))
    return Matrix.from_columns(cols, height)


def complex_audit(rep: RepresentationData) -> dict[str, bool]:
    """For each sign convention, does d(d(f)) = 0 on a basis of C^1?

    The double coboundary is linear in f, so checking every elementary
    degree-1 cochain decides the property on all of C^1 exactly.  d_1
    has n = 1, where both conventions agree, so it is built once and
    each convention's d_3 is applied to its columns.
    """
    d, m = rep.algebra.dim, rep.space_dim
    d1 = _differential(rep, 1, cochain_space_basis(1, d, m).vectors)
    images = [d1.column(k) for k in range(d1.cols)]
    return {
        convention: _differential(rep, 3, images, convention).is_zero()
        for convention in SIGN_CONVENTIONS
    }


def resolve_sign_convention(rep: RepresentationData) -> tuple[str, dict[str, bool]]:
    """Pick the convention whose double coboundary vanishes.

    The printed definition is preferred when it passes; otherwise the
    variant from the functoriality argument is used and the audit dict
    records the discrepancy for the caller to surface.
    """
    audit = complex_audit(rep)
    for convention in SIGN_CONVENTIONS:
        if audit[convention]:
            return convention, audit
    raise VerificationError("no sign convention closes the cochain complex")


# ---------------------------------------------------------------------------
# the operator complex


def induced_rep(rbo: RelativeRBO) -> RepresentationData:
    """Coefficients for the operator complex: the descendent system
    acting on the ambient space by

      theta_T(u,v)x = [x,Tu,Tv] - T( D(x,Tu)v - theta(x,Tv)u ),

    the projected bracket of (x,0), (Tu,u), (Tv,v).  The derived D_T is
    checked against the projected bracket of (Tu,u), (Tv,v), (x,0)
    on all basis pairs before returning.
    """
    desc = descendent_lts(rbo)
    d, dp = rbo.ambient.dim, rbo.source.dim
    graph = [_graph_vector(rbo.T, u) for u in range(dp)]
    plain = [(basis_vector(d, x), zero_vector(dp)) for x in range(d)]

    def projected(a, b, c):
        return _projected_bracket(rbo.action, rbo.weight, rbo.T, a, b, c)

    theta_t = tuple(
        tuple(
            Matrix.from_columns([projected(ex, graph[u], graph[v]) for ex in plain], d)
            for v in range(dp)
        )
        for u in range(dp)
    )
    out = RepresentationData(desc, d, theta_t)
    for u, v in product(range(dp), repeat=2):
        direct = Matrix.from_columns([projected(graph[u], graph[v], ex) for ex in plain], d)
        if direct != out.d_basis(u, v):
            raise VerificationError(
                "derived D_T disagrees with its closed formula; input is not a valid operator"
            )
    return out


def wedge_bracket_operator(rbo: RelativeRBO, wedge: Cochain) -> Matrix:
    """[X, -] on the ambient system: x -> sum a_ij [e_i, e_j, x]."""
    L = rbo.ambient
    pairs = wedge_pairs(L.dim)
    cols = []
    for x in range(L.dim):
        acc = [ZERO] * L.dim
        for (i, j), co in zip(pairs, wedge.coeffs):
            if co:
                vec = L.bracket[i][j][x]
                for l in range(L.dim):
                    acc[l] += co * vec[l]
        cols.append(tuple(acc))
    return Matrix.from_columns(cols, L.dim)


def wedge_d_operator(rbo: RelativeRBO, wedge: Cochain) -> Matrix:
    """D(X) on the source space: sum a_ij D(e_i, e_j) through the action."""
    rep = rbo.action.rep
    pairs = wedge_pairs(rbo.ambient.dim)
    acc = Matrix.zeros(rbo.source.dim, rbo.source.dim)
    for (i, j), co in zip(pairs, wedge.coeffs):
        if co:
            acc = acc + rep.d_basis(i, j).scale(co)
    return acc


def delta_wedge(rbo: RelativeRBO, wedge: Cochain) -> Cochain:
    """Degree -1 coboundary: delta X = T D(X) - [X,-] T, that is
    (delta X)(v) = T D(X) v - [X, Tv]."""
    if wedge.degree != -1:
        raise StructureError("delta_wedge expects a degree -1 cochain")
    if wedge.target_dim != rbo.ambient.dim or wedge.source_dim != rbo.source.dim:
        raise StructureError("wedge coordinates sized for a different operator")
    T = rbo.T
    return cochain_from_map(
        T @ wedge_d_operator(rbo, wedge) - wedge_bracket_operator(rbo, wedge) @ T
    )


def coboundary_T(rbo: RelativeRBO, f: Cochain, sign_convention: str = "definition") -> Cochain:
    """Coboundary in the operator complex (degrees -1, 1, 3)."""
    if f.degree == -1:
        return delta_wedge(rbo, f)
    if f.degree not in (1, 3):
        raise StructureError(f"unsupported cochain degree {f.degree}")
    return coboundary(induced_rep(rbo), f, sign_convention)


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
    df = coboundary_T(rbo, f)
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


def cohomology_data(rbo: RelativeRBO, degree: int) -> CohomologyData:
    """Z, B and H of the operator complex in degree 1 or 3: Z is the
    kernel of the outgoing differential on the constrained cochains, B
    the image of the incoming one."""
    if degree not in (1, 3):
        raise StructureError(f"unsupported cohomology degree {degree}")
    rep_t = induced_rep(rbo)
    d, dp = rbo.ambient.dim, rbo.source.dim
    convention, audit = "definition", {}
    if degree == 3:
        convention, audit = resolve_sign_convention(rep_t)
    incoming = cochain_space_basis(degree - 2, dp, d).vectors
    m_in = _differential(rep_t, degree - 2, incoming, convention, rbo)
    constrained = cochain_space_basis(degree, dp, d)
    inner_kernel = kernel_basis(_differential(rep_t, degree, constrained.vectors, convention))
    flat_dim = dp**degree * d
    z_vectors = []
    for coeffs in inner_kernel.vectors:
        flat = [ZERO] * flat_dim
        for c, vec in zip(coeffs, constrained.vectors):
            if c:
                for t in range(flat_dim):
                    flat[t] += c * vec[t]
        z_vectors.append(tuple(flat))
    cocycles = SubspaceBasis.from_spanning(z_vectors, flat_dim)
    coboundaries = SubspaceBasis.from_spanning(
        [m_in.column(k) for k in range(m_in.cols)], flat_dim
    )
    result = CohomologyResult(
        degree,
        cocycles.dim,
        coboundaries.dim,
        quotient_dim(coboundaries, cocycles),
        convention if audit else None,
        tuple(sorted(audit.items())),
    )
    return CohomologyData(result, cocycles, coboundaries)


def cohomology_group(rbo: RelativeRBO, degree: int) -> CohomologyResult:
    """Exact dims of cocycles, coboundaries and the quotient."""
    if check_rbo(rbo.action, rbo.weight, rbo.T):
        raise VerificationError("cohomology requires the Rota-Baxter identity to hold")
    return cohomology_data(rbo, degree).result


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
    coeffs = list(f.coeffs)
    for slot in range(f.degree):
        stride = dp ** (f.degree - 1 - slot)
        new = [None] * len(coeffs)
        for pos in range(len(coeffs)):
            digits_slot = (pos // stride) % dp
            if digits_slot != 0:
                continue
            base = pos
            for jnew in range(dp):
                acc = [ZERO] * d
                for iold in range(dp):
                    c = psi_inv.entries[iold][jnew]
                    if c:
                        vec = coeffs[base + iold * stride]
                        for l in range(d):
                            acc[l] += c * vec[l]
                new[base + jnew * stride] = tuple(acc)
        coeffs = new
    coeffs = [tuple(h.psi_L.apply(vec)) for vec in coeffs]
    return Cochain(f.degree, dp, d, tuple(coeffs))
