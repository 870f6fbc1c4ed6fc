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

The coboundary of f in C^{2n-1} is Yamaguti's ("On the cohomology
space of Lie triple system", Kumamoto J. Sci. A 5, 1960; restated by
Kubo and Taniguchi, J. Algebra 278, 2004):

  (d f)(x_1..x_{2n+1}) =
      theta(x_{2n}, x_{2n+1}) f(x_1..x_{2n-1})
    - theta(x_{2n-1}, x_{2n+1}) f(x_1..x_{2n-2}, x_{2n})
    + sum_i (-1)^{n+i} D(x_{2i-1}, x_{2i}) f(.. omit 2i-1, 2i ..)
    + sum_i sum_{j>2i} (-1)^{n+i+1} f(.. [x_{2i-1}, x_{2i}, x_j] in slot j ..)

It is written once, as one function of a sparse vector
(:func:`_differential`): each input coordinate is pushed to the output
coordinates it reaches through the nonzeros of theta (each D(a, b) as
the two entries theta(b, a) - theta(a, b)) and of the bracket, so no
empty output tuple is visited, and the image is summed in place.  The
coboundary of one cochain, :meth:`OperatorComplex.apply` and
:func:`coboundary`, is that function at its nonzeros; Z, B and the
audits d_1 delta = 0 and d_3 d_1 = 0, which check every cohomology,
are the same function at unit vectors and at the constrained basis
rows, and no differential is held as columns.

Another printed form puts (-1)^(i+1) on the D-sum.  It agrees with
Yamaguti's out of degrees 1 and 5, and out of degree 3 it fails
d d = 0 on the adjoint of sl2; ``tests/dense_oracle.py`` keeps it as
the oracle that shows this.  A degree-3 cohomology still prints a
convention name and its audit, by a rule that names one d_3 either
way: "definition", audited under both names, when D_T = 0, where
theta_T is symmetric, the D-sum vanishes and the two forms agree;
otherwise "complex" alone.

At a nonzero weight the complex needs the paper's hypothesis that the
action passes :func:`triplekit.representations.verify_action`;
:class:`OperatorComplex` checks it once, on the first degree-3 use, and
raises when it fails.  At weight 0 neither theta_T nor the descendent
bracket reads the bracket of L', so nothing is checked.

The operator complex reads its coefficients theta_T off the projected
semidirect brackets of the basis of L with graph vectors, all built in
one pass and projected as the (RB) defects are.  Its degree -1 map
delta X = T D(X) - [X,-] T is the evaluation at (T, T) of
left D(X) - [X,-] right, read off the one contraction
:func:`triplekit.representations._wedge_maps` of a wedge.
:class:`OperatorComplex` alone turns wedge coordinates into that
contraction and keeps delta and the unit-wedge contractions: B^1 is
spanned by delta at each unit wedge, the coboundary of one wedge is
delta at its own contraction, and the equivalence of deformations reads
(E1) off the same delta at the same contractions.  Cocycles,
coboundaries and their quotient come from the sparse elimination of
:func:`triplekit.linalg.echelon` on the images of the constrained basis
and of the unit vectors, checked in the tests against a dense
elimination.
"""

from __future__ import annotations

import sys
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
    invert,
    quotient_dim,
    sparse_kernel,
    sparse_transpose,
    vec_sub,
    zero_vector,
)
from .representations import RepresentationData, _wedge_maps, semidirect_brackets, vector_family, verify_action
from .reporting import Report, Violation
from .rota_baxter import (
    RelativeRBO,
    RotaBaxterError,
    _graph_family,
    _graph_projection,
    check_rbo_homomorphism,
    descendent_lts,
)

# every degree of a representation's complex, which has no wedge piece
POSITIVE_DEGREES = range(1, sys.maxsize, 2)


@dataclass(frozen=True)
class Cochain:
    """Coefficient data for one cochain.

    degree >= 1: ``coeffs`` is a flat tuple of target vectors, one per
    argument index tuple in row-major order (degree many arguments,
    each ranging over source_dim).  The zero value vectors of a
    coboundary are all one shared tuple, so callers compare value
    vectors by value, never by identity.

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
        return not any(self.coeffs) if self.degree == -1 else not any(map(any, self.coeffs))


def flat_arg_index(args: tuple[int, ...], d: int) -> int:
    idx = 0
    for a in args:
        idx = idx * d + a
    return idx


def zero_cochain(degree: int, source_dim: int, target_dim: int) -> Cochain:
    size = target_dim * (target_dim - 1) // 2 if degree == -1 else source_dim**degree * target_dim
    return unflatten_cochain(degree, source_dim, target_dim, zero_vector(size))


def cochain_from_map(matrix: Matrix) -> Cochain:
    """Degree-1 cochain from the matrix of a linear map (rows = target)."""
    return Cochain(1, matrix.cols, matrix.rows, matrix.transpose().entries)


def cochain_to_map(f: Cochain) -> Matrix:
    if f.degree != 1:
        raise StructureError("only degree-1 cochains are linear maps")
    return Matrix(f.source_dim, f.target_dim, f.coeffs).transpose()


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


def cochain_coordinates(f: Cochain, degrees, source_dim: int, target_dim: int) -> dict:
    """The nonzero flat coordinates {i: value} of f, checked to be a
    cochain of one of ``degrees`` from source_dim to target_dim; the one
    door for cochain values into a complex.  A wedge lies in the wedge
    square of the target alone, so it is checked by its number of
    coordinates: neither of its dims is read, and a file with none
    cannot tell target_dim 0 from 1."""
    if f.degree not in degrees:
        want = f">= {degrees.start}" if isinstance(degrees, range) else "/".join(map(str, degrees))
        raise StructureError(f"cochain of degree {f.degree}, expected degree {want}")
    if f.degree == -1 and len(f.coeffs) != target_dim * (target_dim - 1) // 2:
        raise StructureError("wedge coordinates sized for a different operator")
    if f.degree > 0 and (f.source_dim, f.target_dim) != (source_dim, target_dim):
        raise StructureError(f"cochain dims {f.source_dim} -> {f.target_dim}, expected {source_dim} -> {target_dim}")
    if f.degree == -1:
        return {i: x for i, x in enumerate(f.coeffs) if x}
    return {p * target_dim + l: x for p, vec in enumerate(f.coeffs) if any(vec) for l, x in enumerate(vec) if x}


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


def _apply(columns, vec: dict) -> dict:
    """The matrix with these columns times a sparse vector."""
    out = {}
    for j, c in vec.items():
        for i, a in columns.get(j, {}).items():
            out[i] = out.get(i, ZERO) + c * a
    return {i: x for i, x in out.items() if x}


def _image(image: dict, degree: int, ds: int, dt: int) -> Cochain:
    """The cochain of this degree and shape with the sparse flat
    coordinates ``image``, a differential's image of a cochain: each
    flat coordinate i of a nonzero is slot i mod dt of value vector
    i // dt, and every value vector that receives nothing is one shared
    zero tuple, so the cost follows the nonzeros of d f and not the size
    of its cochain space."""
    written = {}
    for i, x in image.items():
        p, l = divmod(i, dt)
        vec = written.get(p)
        if vec is None:
            vec = written[p] = [ZERO] * dt
        vec[l] = x
    coeffs = [zero_vector(dt)] * ds**degree
    for p, vec in written.items():
        coeffs[p] = tuple(vec)
    return Cochain(degree, ds, dt, tuple(coeffs))


def _differential(rep: RepresentationData, degree: int):
    """The coboundary out of degree k = ``degree`` as the function from
    the nonzero flat coordinates {j: value} of a cochain to those of its
    image, each output coordinate i summed in place from every j that
    reaches it.  Coordinate j, argument tuple alpha and target slot l,
    reaches

    - through each entry theta(a, b)[r][l]: (alpha, a, b) and, negated,
      (alpha_1..alpha_{k-1}, a, alpha_k, b), at slot r;
    - through D(x_{2i-1}, x_{2i}) = theta(x_{2i}, x_{2i-1}) -
      theta(x_{2i-1}, x_{2i}), from the same entries: alpha with (b, a)
      and, negated, (a, b) in slots 2i-1, 2i, at slot r, times
      (-1)^(n+i);
    - through each bracket [a, b, z] whose component c at alpha_t, for
      t >= 2i - 1, is nonzero: alpha with (a, b) in slots 2i-1, 2i and z
      in place of alpha_t, at slot l, times (-1)^(n+i+1) c.

    Every term inserts a pair below a flat weight w, so j reaches
    j // w * w * d^2 + j % w + o for each (o, x) that the term's table
    holds at one digit of j: l, alpha_t, or alpha_k and l.  The tables
    are built once, here, for every cochain the function is given."""
    d, m, k = rep.algebra.dim, rep.space_dim, degree
    n = (k + 1) // 2
    theta = {}  # l: (a, b, r, x) of each theta(a, b)[r][l] = x
    for a, b, entries in rep.nonzero:
        for r, l, x in entries:
            theta.setdefault(l, []).append((a, b, r, x))
    bracket = {}  # s: (a, b, z, c) of each [a, b, z]_s = c
    for a, b, z, vec in rep.algebra.nonzero:
        for s, c in enumerate(vec):
            if c:
                bracket.setdefault(s, []).append((a, b, z, c))
    # (w, kw, kd, table): the table holds its entries at the digits
    # j // kw % kd that have any
    terms = [
        (m, 1, m, {l: [((a * d + b) * m + r - l, x) for a, b, r, x in col] for l, col in theta.items()}),
        (d * m, 1, d * m, {
            y * m + l: [((a * d + y) * d * m + (b - y) * m + r - l, -x) for a, b, r, x in col]
            for l, col in theta.items() for y in range(d)
        }),
    ]
    for i in range(1, n + 1):
        w = d ** (k + 2 - 2 * i) * m  # the flat weight below the pair's slots
        sign = -1 if (n + i) % 2 else 1
        terms.append((w, 1, m, {
            l: [o for a, b, r, x in col if a != b
                for o in (((b * d + a) * w + r - l, sign * x), ((a * d + b) * w + r - l, -sign * x))]
            for l, col in theta.items()
        }))
        for t in range(2 * i - 2, k):
            wt = d ** (k - 1 - t) * m
            terms.append((w, wt, d, {
                y: [((a * d + b) * w + (z - y) * wt, -sign * c) for a, b, z, c in entries]
                for y, entries in bracket.items()
            }))
    terms = [term for term in terms if term[3]]
    dd = d * d

    def push(coords: dict) -> dict:
        out = {}
        for j, c in coords.items():
            for w, kw, kd, table in terms:
                if entries := table.get(j // kw % kd):
                    base = j // w * w * dd + j % w
                    for o, x in entries:
                        out[base + o] = out.get(base + o, ZERO) + c * x
        return {i: x for i, x in out.items() if x}

    return push


def coboundary(rep: RepresentationData, f: Cochain) -> Cochain:
    """Coboundary of a degree >= 1 cochain over the given coefficients,
    whose algebra is the source of the arguments and whose space is the
    target, pushed from f's nonzeros."""
    ds, dt = rep.algebra.dim, rep.space_dim
    coords = cochain_coordinates(f, POSITIVE_DEGREES, ds, dt)
    return _image(_differential(rep, f.degree)(coords), f.degree + 2, ds, dt)


def complex_audit(rep: RepresentationData) -> bool:
    """Does d(d(f)) = 0 hold on a basis of C^1?"""
    d1, d3 = _differential(rep, 1), _differential(rep, 3)
    return not any(d3(d1({j: ONE})) for j in range(rep.algebra.dim * rep.space_dim))


# ---------------------------------------------------------------------------
# the operator complex


def induced_rep(rbo: RelativeRBO) -> RepresentationData:
    """Coefficients for the operator complex: the descendent system
    acting on the ambient space by

      theta_T(u,v)x = [x,Tu,Tv] - T( D(x,Tu)v - theta(x,Tv)u ),

    the projected bracket x' - Tp of (x', p) = [(x,0), (Tu,u), (Tv,v)],
    by the same projection as the (RB) defects.  One
    :func:`triplekit.representations.semidirect_brackets` pass over the
    families (plain, graph, graph) yields every such bracket, and its
    nonzero coordinates are the entries of theta_T.  Its derived D_T is
    the projected bracket of (Tu,u), (Tv,v), (x,0) exactly when the
    ambient identity [Tu,Tv,x] = [x,Tv,Tu] - [x,Tu,Tv] holds, since the
    L' parts of the two agree identically; that identity is checked
    before returning, reading the L parts of a second pass over (graph,
    graph, plain) against the L parts of the first, at every key that
    receives a term from either pass: both sides are zero at the rest.
    """
    desc = descendent_lts(rbo)
    action, T = rbo.action, rbo.T
    d, dp = rbo.ambient.dim, rbo.source.dim
    graph, project = _graph_family(T), _graph_projection(T)
    plain = vector_family(Matrix.identity(d), Matrix.zeros(dp, d))
    table = semidirect_brackets(action, rbo.weight, plain, graph, graph)
    theta = {(u, v, l, x): c for (x, u, v), got in table.items() for l, c in enumerate(project(*got)) if c}
    mixed = semidirect_brackets(action, rbo.weight, graph, graph, plain)
    zero = zero_vector(d)

    def ambient(tab, key):
        got = tab.get(key)
        return zero if got is None else got[0]

    for u, v, x in mixed.keys() | {(u, v, x) for x, v, u in table} | {(u, v, x) for x, u, v in table}:
        if ambient(mixed, (u, v, x)) != vec_sub(ambient(table, (x, v, u)), ambient(table, (x, u, v))):
            raise VerificationError(
                "derived D_T disagrees with its closed formula; input is not a valid operator"
            )
    return RepresentationData.from_entries(desc, d, theta)


def _wedge_delta(left: Matrix, right: Matrix):
    """left D(X) - [X,-] right, for maps left, right : L' -> L, as the
    function of a wedge's (D(X), [X,-]) that gives its flat degree-1
    coordinates {v * d + l: value} without zeros, column v holding
    left D(X) v - [X, right v]."""
    d = left.rows
    left_cols = [[(l, t) for l, t in enumerate(col) if t] for col in zip(*left.entries)]
    right_rows = [[(v, t) for v, t in enumerate(row) if t] for row in right.entries]

    def at(maps: tuple[dict, dict]) -> dict:
        dx, kx, out = *maps, {}
        for (w, v), a in dx.items():
            for l, t in left_cols[w]:
                out[v * d + l] = out.get(v * d + l, ZERO) + t * a
        for (l, x), c in kx.items():
            for v, t in right_rows[x]:
                out[v * d + l] = out.get(v * d + l, ZERO) - c * t
        return {i: x for i, x in out.items() if x}

    return at


class OperatorComplex:
    """The complex of one operator: its induced representation and its
    differentials delta, d_1 and d_3, each the function from a sparse
    vector's flat coordinates to its image's, built on first use and
    kept.  A command builds one and pays only for what it reads.
    :meth:`apply` is the differential at a cochain's nonzeros, and
    :meth:`cohomology` reads the incoming one at the unit vectors and
    the outgoing one at those images (the audit d_1 delta = 0 or
    d_3 d_1 = 0) and at the constrained basis rows; no differential is
    held as columns.  Degree 3 is entered through the paper's hypothesis
    on the action at a nonzero weight."""

    def __init__(self, rbo: RelativeRBO):
        self.rbo = rbo
        self._differentials = {}

    @cached_property
    def rep(self) -> RepresentationData:
        return induced_rep(self.rbo)

    @cached_property
    def _degree_3_rep(self) -> RepresentationData:
        """The induced representation, once the hypothesis of degree 3
        holds: at a nonzero weight the action passes verify_action.  At
        weight 0 neither theta_T nor the descendent bracket reads the
        bracket of L', so nothing is checked."""
        rep = self.rep
        if self.rbo.weight and verify_action(self.rbo.action):
            raise VerificationError("degree 3 at a nonzero weight requires the action to pass verify_action")
        return rep

    @cached_property
    def delta(self):
        """delta X = T D(X) - [X,-] T as the function of X's contraction
        that gives its flat degree-1 coordinates."""
        return _wedge_delta(self.rbo.T, self.rbo.T)

    @cached_property
    def contraction(self):
        """The function from a wedge's flat coordinates {k: value} to its
        (D(X), [X,-]) under the action."""
        rep, pairs = self.rbo.action.rep, wedge_pairs(self.rbo.ambient.dim)
        return lambda coords: _wedge_maps(rep, {pairs[k]: c for k, c in coords.items()})

    @cached_property
    def unit_contractions(self) -> tuple:
        """The contraction of each unit wedge, in wedge-coordinate order."""
        d = self.rbo.ambient.dim
        return tuple(self.contraction({k: 1}) for k in range(d * (d - 1) // 2))

    def differential(self, degree: int):
        """delta (degree -1), d_1 or d_3 as the function from the nonzero
        flat coordinates of a cochain to those of its image: delta at the
        wedge's contraction, d_1 and d_3 pushed from the nonzeros."""
        if degree not in (-1, 1, 3):
            raise StructureError(f"unsupported differential degree {degree}")
        if degree not in self._differentials:
            self._differentials[degree] = (
                (lambda coords: self.delta(self.contraction(coords))) if degree == -1
                else _differential(self._degree_3_rep if degree == 3 else self.rep, degree)
            )
        return self._differentials[degree]

    def apply(self, f: Cochain) -> Cochain:
        """Coboundary of f in degree -1, 1 or 3: the differential at f's
        nonzeros."""
        dp, d = self.rbo.source.dim, self.rbo.ambient.dim
        coords = cochain_coordinates(f, (-1, 1, 3), dp, d)
        return _image(self.differential(f.degree)(coords), f.degree + 2, dp, d)

    def cohomology(self, degree: int) -> CohomologyData:
        """Z, B and H in degree 1 or 3.  B is the span of the incoming
        differential's images of the unit vectors: delta at the unit
        wedges' contractions, or d_1 at each unit of C^1.  The outgoing
        one must vanish on each of those images, or this raises naming
        the product, d_1 delta or d_3 d_1, that is not zero; Z is the
        kernel of its images of the constrained basis rows.  Both are
        read off the sparse echelon form of
        :func:`triplekit.linalg.echelon`, with no dense matrix.  Degree 3
        names its convention: "definition", audited under both names,
        when theta_T is symmetric, so that D_T = 0 and both printed forms
        are this d_3, and otherwise "complex"."""
        if degree not in (1, 3):
            raise StructureError(f"unsupported cohomology degree {degree}")
        d, dp = self.rbo.ambient.dim, self.rbo.source.dim
        size = dp**degree * d
        outgoing = self.differential(degree)
        if degree == 1:
            incoming = list(map(self.delta, self.unit_contractions))
        else:
            d1 = self.differential(1)
            incoming = [d1({j: ONE}) for j in range(dp * d)]
        if any(map(outgoing, incoming)):
            product = "d_3 d_1" if degree == 3 else "d_1 delta"
            raise VerificationError(f"{product} is not zero: the cochain complex does not close")
        convention, names = None, ()
        if degree == 3:
            theta = {(a, b): entries for a, b, entries in self.rep.nonzero}
            symmetric = all(theta.get((b, a)) == entries for (a, b), entries in theta.items())
            convention, names = ("definition", ("complex", "definition")) if symmetric else ("complex", ("complex",))
        basis = dict(enumerate(map(dict, cochain_space_basis(degree, dp, d).rows)))
        images = [outgoing(vec).items() for vec in basis.values()]
        kernel = sparse_kernel(sparse_transpose(images), len(images))
        # the constrained basis is in reduced echelon form, so its
        # combinations along the echelon kernel basis are too
        cocycles = SubspaceBasis(size, tuple(
            tuple(sorted(_apply(basis, dict(c)).items())) for c in kernel.rows
        ))
        coboundaries = SubspaceBasis.from_sparse(incoming, size)
        return CohomologyData(CohomologyResult(
            degree, cocycles.dim, coboundaries.dim, quotient_dim(coboundaries, cocycles),
            convention, tuple((name, True) for name in names),
        ), cocycles, coboundaries)


def delta_wedge(rbo: RelativeRBO, wedge: Cochain) -> Cochain:
    """Degree -1 coboundary: delta X = T D(X) - [X,-] T, that is
    (delta X)(v) = T D(X) v - [X, Tv]: the operator complex's apply
    restricted to wedges."""
    if wedge.degree != -1:
        raise StructureError(f"cochain of degree {wedge.degree}, expected degree -1")
    return OperatorComplex(rbo).apply(wedge)


def one_cocycle_check(rbo: RelativeRBO, f: Cochain) -> Report:
    """Closedness of a degree-1 cochain: the basis triples where d_1 f,
    its coboundary in the operator complex, does not vanish.

    d_1 f at (u, v, w) is the t-coefficient of the Rota-Baxter defect
    of T + t f at that triple, so the witnesses are also those of the
    order-t rule of :func:`triplekit.deformations.check_deformation`,
    read off the value-vector indices i // dim L of the nonzero flat
    coordinates i of d_1 f.
    """
    dp, d = rbo.source.dim, rbo.ambient.dim
    coords = cochain_coordinates(f, (1,), dp, d)
    image = OperatorComplex(rbo).differential(1)(coords)
    return tuple(
        Violation("one-cocycle", (p // dp**2 + 1, p // dp % dp + 1, p % dp + 1))
        for p in sorted({i // d for i in image})
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
    dp, d = h.source.source.dim, h.source.ambient.dim
    cochain_coordinates(f, POSITIVE_DEGREES, dp, d)
    psi_inv = invert(h.psi_Lprime)
    if psi_inv is None:
        raise VerificationError("psi_Lprime is singular; cochain transport undefined")
    if check_rbo_homomorphism(h):
        raise VerificationError("cochain transport requires a verified operator homomorphism")
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
