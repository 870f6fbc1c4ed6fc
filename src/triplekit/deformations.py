"""Infinitesimal deformations T + t*S of a relative Rota-Baxter operator.

The defining identity, the projected semidirect bracket of graph
vectors, is cubic in the operator, so T + t*S satisfies it for every t
exactly when the coefficient equations at t, t^2 and t^3 all hold on
basis triples of the source.  The t coefficient is d_1 S, read off the
operator complex, so verified directions carry a class in its degree-1
cohomology, and equivalent deformations share that class.  The t^3
coefficient is the weight-0 defect of S alone, and the t^2 coefficient
is the defect of T + S less those two.  No t^0 term is left, because
the complex is built only when (RB) holds for T on every basis triple;
on any other base the check raises, naming how many triples fail.

Equivalence of two directions S1, S2 is witnessed by a wedge element X
of the ambient system making (id + t[X,-], id + t D(X)) an operator
homomorphism; extracting first-order coefficients gives two linear
conditions on X:

  (E1)  S1(u) - S2(u) = T D(X) u - [X, Tu]
  (E2)  [X, S1(u)] = S2( D(X) u )

Both are linear in the wedge coordinates, so witnesses are found by
one exact linear solve.  Strict mode additionally demands the
first-order parts of the theta- and D-equivariance conditions of an
operator homomorphism.  The theta rows come from the one (R2)
evaluator of :mod:`triplekit.representations`, a pass over the nonzero
entries of the theta(e_i, e_j), [X,-] and D(X) with no matrix built;
D is theta(b,a) - theta(a,b) and every term is linear in theta, so each
D row is a difference of two theta rows.  Each condition
is written once: the check evaluates it at the witness, the solve
stacks it at the unit wedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .cohomology import Cochain, OperatorComplex, cochain_to_map, flatten_cochain, wedge_pairs, zero_cochain
from .linalg import (
    Matrix,
    StructureError,
    VerificationError,
    ZERO,
    basis_vector,
    echelon,
    solve,
    sparse_transpose,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from .lts import bracket_operator
from .reporting import Report, Violation
from .representations import _theta_equivariance_rows
from .rota_baxter import RelativeRBO, _rb_defects

__all__ = [
    "InfinitesimalDeformation",
    "EquivalenceWitness",
    "check_deformation",
    "deformation_cocycle_class",
    "check_equivalence",
    "find_equivalence_witness",
    "is_trivial_deformation",
    "wedge_bracket_operator",
    "wedge_d_operator",
]


@dataclass(frozen=True)
class InfinitesimalDeformation:
    base: RelativeRBO
    direction: Cochain  # degree 1, source L', target L
    # the base's complex, shared by the questions on this deformation
    complex: OperatorComplex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.direction.degree != 1:
            raise StructureError("deformation direction must be a degree-1 cochain")
        if (
            self.direction.source_dim != self.base.source.dim
            or self.direction.target_dim != self.base.ambient.dim
        ):
            raise StructureError("deformation direction dimensions differ from the operator")
        object.__setattr__(self, "complex", OperatorComplex(self.base))

    def direction_map(self) -> Matrix:
        return cochain_to_map(self.direction)


@dataclass(frozen=True)
class EquivalenceWitness:
    wedge: Cochain  # degree -1

    def __post_init__(self):
        if self.wedge.degree != -1:
            raise StructureError("equivalence witness must be a degree -1 cochain")


def wedge_bracket_operator(rbo: RelativeRBO, wedge: Cochain) -> Matrix:
    """[X, -] on the ambient system: x -> sum a_ij [e_i, e_j, x]."""
    return bracket_operator(rbo.ambient, dict(zip(wedge_pairs(rbo.ambient.dim), wedge.coeffs)))


def wedge_d_operator(rbo: RelativeRBO, wedge: Cochain) -> Matrix:
    """D(X) on the source space: sum a_ij D(e_i, e_j) through the action,
    where theta(e_i, e_j) enters D(e_j, e_i) and, negated, D(e_i, e_j)."""
    coeffs, dp = dict(zip(wedge_pairs(rbo.ambient.dim), wedge.coeffs)), rbo.source.dim
    acc = [[ZERO] * dp for _ in range(dp)]
    for i, j, entries in rbo.action.rep.nonzero:
        if co := coeffs.get((j, i), ZERO) - coeffs.get((i, j), ZERO):
            for r, c, a in entries:
                acc[r][c] += co * a
    return Matrix(dp, dp, tuple(map(tuple, acc)))


def _coefficients(d: InfinitesimalDeformation):
    """((u, v, w), (c1, c2, c3)) for every basis triple, in lexicographic
    order, where c_k is the t^k coefficient of the (RB) defect of
    T + t*S at (u, v, w)."""
    rbo, S = d.base, d.direction_map()
    order_t = d.complex.apply(d.direction).coeffs
    alone = _rb_defects(rbo.action, ZERO, S)
    combined = _rb_defects(rbo.action, rbo.weight, rbo.T + S)
    for c1, (triple, c3, _), (_, full, _) in zip(order_t, alone, combined):
        yield triple, (c1, tuple(x - a - b for x, a, b in zip(full, c1, c3)), c3)


def check_deformation(d: InfinitesimalDeformation) -> Report:
    """Coefficient equations at t, t^2, t^3 on all basis triples."""
    out = []
    for (u, v, w), coeffs in _coefficients(d):
        for rule, c in zip(("order-t", "order-t2", "order-t3"), coeffs):
            if not vec_is_zero(c):
                out.append(Violation(rule, (u + 1, v + 1, w + 1)))
    return tuple(out)


def deformation_cocycle_class(d: InfinitesimalDeformation) -> tuple:
    """Class coordinates of a closed direction in a fixed basis of H^1;
    a direction that is not closed raises.

    The H^1 basis extends the canonical coboundary basis to the
    cocycle space by the cocycle basis vectors that are pivots of one
    sparse elimination (:func:`triplekit.linalg.echelon`) on the
    columns [B basis | Z basis | direction], so the coordinates are
    deterministic for a given operator; they are the direction
    column's entries on the rows of those pivots.
    """
    data = d.complex.cohomology(1)
    zb, bb = data.cocycles, data.coboundaries
    direction = tuple((i, x) for i, x in enumerate(flatten_cochain(d.direction)) if x)
    pivots = echelon(sparse_transpose(bb.rows + zb.rows + (direction,)))
    last = bb.dim + zb.dim
    if last in pivots:
        raise VerificationError("direction is not a 1-cocycle; no cohomology class")
    return tuple(pivots[p].get(last, ZERO) for p in sorted(pivots)[bb.dim:])


def _equivalence_conditions(cx: OperatorComplex, S1: Matrix, S2: Matrix, X: Cochain, strict: bool):
    """(rule, witness, value, target) for every first-order condition on
    the pair (id + t[X,-], id + t D(X)) carrying T + t S1 onto T + t S2,
    in report order; a condition holds when its value equals its target.

    Values are linear in X and targets do not depend on it.  At a unit
    wedge e_a ^ e_b the theta rows are minus (R2) of the action at
    (a, b, x, y).  Since D(x, y) = theta(y, x) - theta(x, y) and every
    term is linear in theta, the D row at (x, y) is the theta row at
    (y, x) minus the one at (x, y).
    """
    rbo = cx.rbo
    d = rbo.ambient.dim
    bx, dx = wedge_bracket_operator(rbo, X), wedge_d_operator(rbo, X)
    delta = cx.apply(X)
    out = []
    for u in range(rbo.source.dim):
        s1 = S1.column(u)
        out.append(("intertwining-order-t", (u + 1,), delta.coeffs[u], vec_sub(s1, S2.column(u))))
        e2 = vec_sub(bx.apply(s1), S2.apply(dx.column(u)))
        out.append(("compatibility-order-t", (u + 1,), e2, zero_vector(d)))
    if strict:
        theta = _theta_equivariance_rows(rbo.action.rep, bx, dx)
        zero = zero_vector(rbo.source.dim ** 2)
        for x, y in product(range(d), repeat=2):
            row = tuple(theta[x][y])
            out.append(("theta-equivariance-order-t", (x + 1, y + 1), row, zero))
            # theta[y][x] - row, skipping the zero entries that make up most of row
            d_row = tuple(a - b if b else a for a, b in zip(theta[y][x], row))
            out.append(("D-equivariance-order-t", (x + 1, y + 1), d_row, zero))
    return out


def _equivalence_system(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, strict: bool = False
):
    """Stack every condition of :func:`_equivalence_conditions` as one
    linear system over wedge coordinates: column k holds the values at
    the k-th unit wedge, the right-hand side the targets."""
    rbo = d1.base
    dp, dd = rbo.source.dim, rbo.ambient.dim
    S1, S2 = d1.direction_map(), d2.direction_map()
    n = len(wedge_pairs(dd))
    # with no wedge coordinates the zero wedge still yields the targets
    units = [Cochain(-1, dp, dd, basis_vector(n, k)) for k in range(n)] or [zero_cochain(-1, dp, dd)]
    evaluated = [_equivalence_conditions(d1.complex, S1, S2, X, strict) for X in units]
    rhs = tuple(x for _, _, _, target in evaluated[0] for x in target)
    cols = [tuple(x for _, _, value, _ in blocks for x in value) for blocks in evaluated[:n]]
    return Matrix.from_columns(cols, len(rhs)), rhs


def check_equivalence(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, w: EquivalenceWitness,
    strict: bool = False,
) -> Report:
    """Do (E1) and (E2) hold for the given witness, on all basis vectors?

    Strict mode also checks the first-order parts of theta- and
    D-equivariance for the pair (id + t[X,-], id + t D(X)).
    """
    if d1.base != d2.base:
        raise StructureError("equivalence is defined for deformations of one operator")
    return tuple(
        Violation(rule, witness)
        for rule, witness, value, target in _equivalence_conditions(
            d1.complex, d1.direction_map(), d2.direction_map(), w.wedge, strict
        )
        if value != target
    )


def find_equivalence_witness(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, strict: bool = False
):
    """A wedge witness making d1 and d2 equivalent, or None.

    Any returned witness has already passed :func:`check_equivalence`.
    """
    if d1.base != d2.base:
        raise StructureError("equivalence is defined for deformations of one operator")
    m, rhs = _equivalence_system(d1, d2, strict=strict)
    x = solve(m, rhs)
    if x is None:
        return None
    rbo = d1.base
    w = EquivalenceWitness(Cochain(-1, rbo.source.dim, rbo.ambient.dim, tuple(x)))
    if check_equivalence(d1, d2, w, strict=strict):
        return None
    return w


def is_trivial_deformation(d: InfinitesimalDeformation, strict: bool = False):
    """Witness equating d with the zero-direction deformation, or None."""
    zero = InfinitesimalDeformation(
        d.base, zero_cochain(1, d.base.source.dim, d.base.ambient.dim)
    )
    return find_equivalence_witness(d, zero, strict=strict)
