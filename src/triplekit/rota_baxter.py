"""Relative Rota-Baxter operators of weight lambda.

Given an action theta of L on L', a linear map T : L' -> L is a
relative Rota-Baxter operator of weight lambda when

  [Tu,Tv,Tw] = T( D(Tu,Tv)w - theta(Tu,Tw)v + theta(Tv,Tw)u
                  + lambda [u,v,w]' )                       (RB)

for all u, v, w in L'.  Both sides are read off the semidirect bracket
of the graph vectors (Tu,u), (Tv,v), (Tw,w): the defect of (RB) is that
bracket projected by (x, u) -> x - Tu, so (RB) says the graph {Tu + u}
is a subsystem of the semidirect product.  One scatter pass of
:func:`triplekit.representations.semidirect_brackets` over the family
of graph vectors builds all these brackets at once.  The defects are
sparse: :func:`_rb_defects` yields, in lexicographic order, only the
basis triples that receive a term from that pass, each with its defect
and its L' part; the bracket, and so both, is zero at every other
triple.  Tu is applied through T's nonzero columns, by
:func:`_graph_projection`, which the induced representation shares.
The operator checks and the descendent bracket read the defects as
they come, and the deformation coefficients by key.  The
block lift (x,u) -> (x + Tu, 0) being a Nijenhuis operator is an equivalent
characterization; the Nijenhuis torsion is evaluated nested, with three
applications of N per triple.  The identity (RB) is affine in lambda,
so "operator of every weight" is decided exactly by checking the
constant and linear parts separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import (
    Matrix,
    Scalar,
    StructureError,
    SubspaceBasis,
    Vector,
    VerificationError,
    ZERO,
    basis_vector,
    invert,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from .lts import (
    HomomorphismCandidate,
    LieTripleSystem,
    derived_algebra,
    is_abelian_subsystem,
    is_homomorphism,
    skew_first,
)
from .representations import ActionData, self_action, semidirect_brackets, vector_family, verify_action
from .reporting import Report, Violation

# A linear map between based spaces is just its matrix, target rows by
# source columns; T maps L' -> L so T has shape (dim L) x (dim L').
LinearMap = Matrix


class RotaBaxterError(VerificationError):
    """An operation that requires (RB) found basis triples where it fails."""


@dataclass(frozen=True)
class RelativeRBO:
    action: ActionData
    weight: Scalar
    T: LinearMap

    def __post_init__(self):
        _check_dims(self.action, self.T)

    @property
    def source(self) -> LieTripleSystem:
        return self.action.target

    @property
    def ambient(self) -> LieTripleSystem:
        return self.action.algebra


def _graph_family(T: LinearMap) -> tuple:
    """The graph vectors (Tu, u) of the basis vectors u of L'."""
    return vector_family(T, Matrix.identity(T.cols))


def _graph_projection(T: LinearMap):
    """The map (x, p) -> x - Tp from L (+) L' to L, which sends a graph
    vector (Tu, u) to zero; Tp is summed over T's nonzero columns, built
    once here."""
    columns = [[(l, row[u]) for l, row in enumerate(T.entries) if row[u]] for u in range(T.cols)]

    def project(x: Vector, p: Vector) -> Vector:
        out = list(x)
        for u, c in enumerate(p):
            if c:
                for l, t in columns[u]:
                    out[l] -= c * t
        return tuple(out)

    return project


def _rb_defects(action: ActionData, weight: Scalar, T: LinearMap):
    """((u, v, w), x - Tp, p) for every basis triple of L' that receives
    a term from the one :func:`semidirect_brackets` pass over the graph
    vectors, in lexicographic order, where (x, p) is the semidirect
    bracket of the graph vectors of u, v and w: x - Tp is LHS - RHS of
    (RB), the zero vector exactly where (RB) holds, and p is the L'
    part.  Both are zero at every triple not yielded."""
    _check_dims(action, T)
    graph = _graph_family(T)
    table = semidirect_brackets(action, weight, graph, graph, graph)
    project = _graph_projection(T)
    for triple, (x, p) in sorted(table.items()):
        yield triple, project(x, p), p


def _rbo_violations(action: ActionData, weight: Scalar, T: LinearMap):
    """Basis triples where (RB) fails, generated in lexicographic order."""
    for (u, v, w), defect, _ in _rb_defects(action, weight, T):
        if not vec_is_zero(defect):
            yield Violation("rota-baxter-identity", (u + 1, v + 1, w + 1))


def check_rbo(action: ActionData, weight: Scalar, T: LinearMap) -> Report:
    """All basis triples where (RB) fails, in lexicographic order."""
    return tuple(_rbo_violations(action, weight, T))


def is_rbo(action: ActionData, weight: Scalar, T: LinearMap) -> bool:
    """Does (RB) hold?  The bracket pass is whole; only the scan of its
    defects stops at the first that fails."""
    return next(_rbo_violations(action, weight, T), None) is None


def check_rbo_all_weights(action: ActionData, T: LinearMap) -> Report:
    """Decide "operator of every weight" exactly.

    The defect is affine in lambda; the constant part is the defect at
    lambda = 0 and the lambda-coefficient is T applied to the source
    bracket, so both parts are checked independently.
    """
    out, br = [], {(u, v, w): vec for u, v, w, vec in action.target.nonzero}
    defects = {triple: defect for triple, defect, _ in _rb_defects(action, ZERO, T)}
    for u, v, w in sorted(defects.keys() | br.keys()):
        if not vec_is_zero(defects.get((u, v, w), ())):
            out.append(Violation("rota-baxter-constant-part", (u + 1, v + 1, w + 1)))
        if (u, v, w) in br and not vec_is_zero(T.apply(br[u, v, w])):
            out.append(Violation("rota-baxter-weight-part", (u + 1, v + 1, w + 1)))
    return tuple(out)


def _check_dims(action: ActionData, T: LinearMap):
    if T.cols != action.target.dim or T.rows != action.algebra.dim:
        raise StructureError("operator matrix shape differs from action dimensions")


def projection_rbo(
    L: LieTripleSystem, Lprime: SubspaceBasis, complement: SubspaceBasis
) -> LinearMap:
    """Projection of L onto an abelian subsystem along a complement.

    Requirements, each reported by name when violated: the adjoint
    representation is an action of L on itself; Lprime is an abelian
    subsystem; the derived algebra meets Lprime trivially; complement
    and Lprime are an exact direct-sum decomposition.  The resulting
    projection is verified to be an operator of every weight before it
    is returned; that final check also rejects complements that fail
    to absorb the derived algebra.
    """
    act = self_action(L)
    if verify_action(act):
        raise VerificationError("projection requires the adjoint action: derived algebra not central")
    if not is_abelian_subsystem(L, Lprime):
        raise VerificationError("projection requires an abelian subsystem target")
    der = derived_algebra(L)
    inter = sum_dim(der, Lprime) - der.dim - Lprime.dim
    if inter != 0:
        raise VerificationError("projection requires derived algebra to meet the target trivially")
    if complement.ambient_dim != L.dim:
        raise StructureError("complement ambient dimension differs from system dimension")
    if complement.dim + Lprime.dim != L.dim or sum_dim(complement, Lprime) != L.dim:
        raise VerificationError("projection requires complement (+) target = whole space")
    # with B = [complement | Lprime], P = B diag(0, id) B^-1: the
    # columns of Lprime times the last rows of B^-1
    Binv = invert(Matrix.from_columns(complement.vectors + Lprime.vectors, L.dim))
    P = Matrix.from_columns(Lprime.vectors, L.dim) @ Matrix(Lprime.dim, L.dim, Binv.entries[complement.dim:])
    if check_rbo_all_weights(act, P):
        raise VerificationError(
            "projection is not an operator of every weight: complement does not absorb the derived algebra"
        )
    return P


def sum_dim(a: SubspaceBasis, b: SubspaceBasis) -> int:
    return SubspaceBasis.from_sparse(a.rows + b.rows, a.ambient_dim).dim


def graph_subsystem(rbo: RelativeRBO) -> SubspaceBasis:
    """Span of {Tu + u : u basis of L'} inside the semidirect product."""
    dp = rbo.source.dim
    vectors = [rbo.T.column(u) + basis_vector(dp, u) for u in range(dp)]
    return SubspaceBasis.from_spanning(vectors, rbo.ambient.dim + dp)


def descendent_lts(rbo: RelativeRBO) -> LieTripleSystem:
    """The induced system on L' whose bracket is the L' part of the
    semidirect bracket of graph vectors:

        [u,v,w]_T = D(Tu,Tv)w + theta(Tv,Tw)u - theta(Tu,Tw)v
                    + lambda [u,v,w]'

    Requires (RB); T is then a homomorphism into L, which callers can
    confirm with :func:`triplekit.lts.is_homomorphism`.  Each triple's
    bracket in the one pass of :func:`_rb_defects` yields both the (RB)
    defect x - Tp and the entry p.
    """
    entries, failing = {}, 0
    for triple, defect, p in _rb_defects(rbo.action, rbo.weight, rbo.T):
        if not vec_is_zero(defect):
            failing += 1
        elif not vec_is_zero(p):
            entries[triple] = p
    if failing:
        raise RotaBaxterError(
            f"descendent system requires the Rota-Baxter identity; {failing} basis triples fail"
        )
    return LieTripleSystem.from_entries(rbo.source.dim, entries, rbo.source.basis_names)


def _nijenhuis_torsion(L: LieTripleSystem, N: Matrix):
    """The Nijenhuis torsion of N as a function of a basis triple
    (x, y, z): LHS - RHS of the Nijenhuis identity, written nested as
    [Nx,Ny,Nz] - N(A - N(B - N[x,y,z])), where A sums the three brackets
    with two arguments under N and B the three with one; three
    applications of N per triple.  N's columns and the basis vectors are
    built once here, not once per triple."""
    if N.rows != L.dim or N.cols != L.dim:
        raise StructureError("Nijenhuis candidate must be square on the system")
    E, cols, br = L.basis(), [N.column(i) for i in range(L.dim)], L.bracket_eval

    def defect(x: int, y: int, z: int) -> Vector:
        ex, ey, ez = E[x], E[y], E[z]
        Nx, Ny, Nz = cols[x], cols[y], cols[z]
        two = tuple(map(sum, zip(br(Nx, Ny, ez), br(Nx, ey, Nz), br(ex, Ny, Nz))))
        one = tuple(map(sum, zip(br(Nx, ey, ez), br(ex, Ny, ez), br(ex, ey, Nz))))
        inner = N.apply(vec_sub(one, N.apply(br(ex, ey, ez))))
        return vec_sub(br(Nx, Ny, Nz), N.apply(vec_sub(two, inner)))

    return defect


def nijenhuis_defect(L: LieTripleSystem, N: Matrix, x: int, y: int, z: int) -> Vector:
    """LHS - RHS of the Nijenhuis identity at basis triple (x, y, z), by
    :func:`_nijenhuis_torsion`."""
    return _nijenhuis_torsion(L, N)(x, y, z)


def _nijenhuis_violations(L: LieTripleSystem, N: Matrix, triples):
    """The basis triples of ``triples`` where the Nijenhuis identity
    fails, generated in the order given."""
    defect = _nijenhuis_torsion(L, N)
    for x, y, z in triples:
        if not vec_is_zero(defect(x, y, z)):
            yield Violation("nijenhuis-identity", (x + 1, y + 1, z + 1))


def nijenhuis_check(L: LieTripleSystem, N: Matrix) -> Report:
    """All basis triples violating the seven-term Nijenhuis identity, in
    lexicographic order."""
    return tuple(_nijenhuis_violations(L, N, product(range(L.dim), repeat=3)))


def is_nijenhuis(L: LieTripleSystem, N: Matrix) -> bool:
    """Early-exit variant of :func:`nijenhuis_check`.  It scans in
    :func:`triplekit.lts.skew_first` order over the indices from the
    highest down: the (x, y, z) with x != y first, where the torsion of
    a system skew in its first two slots can be nonzero, and the
    (x, x, z), where it is zero, last."""
    return next(_nijenhuis_violations(L, N, skew_first(range(L.dim - 1, -1, -1))), None) is None


def nijenhuis_lift(action: ActionData, T: LinearMap) -> Matrix:
    """Block map (x, u) -> (x + Tu, 0) on L (+) L'; idempotent by shape."""
    _check_dims(action, T)
    d, n = action.algebra.dim, action.algebra.dim + action.target.dim
    rows = tuple(basis_vector(d, r) + T.entries[r] for r in range(d))
    return Matrix(n, n, rows + (zero_vector(n),) * action.target.dim)


@dataclass(frozen=True)
class RBOHomomorphism:
    """Maps (psi_L, psi_Lprime) intertwining two operators over one action."""

    source: RelativeRBO
    target: RelativeRBO
    psi_L: LinearMap
    psi_Lprime: LinearMap

    def __post_init__(self):
        d, dp = self.source.ambient.dim, self.source.source.dim
        if self.psi_L.rows != d or self.psi_L.cols != d:
            raise StructureError("psi_L must be square on L")
        if self.psi_Lprime.rows != dp or self.psi_Lprime.cols != dp:
            raise StructureError("psi_Lprime must be square on L'")


def check_rbo_homomorphism(h: RBOHomomorphism) -> Report:
    """Full homomorphism conditions between operators sharing an action.

    Both maps must respect the triple brackets of their spaces, the
    intertwining relation psi_L T = T' psi_Lprime must hold as a
    matrix identity, and psi_Lprime must be equivariant for theta and
    D against psi_L on all basis pairs and vectors.
    """
    if h.source.action is not h.target.action and h.source.action != h.target.action:
        raise StructureError("operator homomorphism requires a shared action")
    if h.source.weight != h.target.weight:
        raise StructureError("operator homomorphism requires equal weights")
    out = []
    L, Lp = h.source.ambient, h.source.source
    rep = h.source.action.rep
    if not is_homomorphism(HomomorphismCandidate(L, L, h.psi_L)):
        out.append(Violation("psi_L-not-system-homomorphism"))
    if not is_homomorphism(HomomorphismCandidate(Lp, Lp, h.psi_Lprime)):
        out.append(Violation("psi_Lprime-not-system-homomorphism"))
    lhs = h.psi_L @ h.source.T
    rhs = h.target.T @ h.psi_Lprime
    if lhs != rhs:
        out.append(Violation("intertwining", (), "psi_L T != T' psi_Lprime"))
    d, E = L.dim, L.basis()
    psiL_cols = [h.psi_L.column(i) for i in range(d)]
    gap = {
        (x, y): rep.theta_vec(psiL_cols[x], psiL_cols[y]) @ h.psi_Lprime - h.psi_Lprime @ rep.theta_vec(E[x], E[y])
        for x, y in product(range(d), repeat=2)
    }
    for x, y in gap:
        if not gap[x, y].is_zero():
            out.append(Violation("theta-equivariance", (x + 1, y + 1)))
        # D(x, y) = theta(y, x) - theta(x, y), and both sides of the
        # check are linear in theta: the D gap at (x, y) is the theta
        # gap at (y, x) less the one at (x, y)
        if gap[y, x] != gap[x, y]:
            out.append(Violation("D-equivariance", (x + 1, y + 1)))
    return tuple(out)
