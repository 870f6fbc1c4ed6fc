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

Both are linear in the wedge coordinates and both are read off the
operator complex's left D(X) - [X,-] right: (E1) at (T, T) is
delta X, and (E2) at (S2, S1) is compared against zero.  Strict mode
additionally demands the first-order parts of the theta- and
D-equivariance conditions of an operator homomorphism: the theta rows
are minus (R2) of the action summed over the wedge, and since D is
theta(b,a) - theta(a,b) and every term is linear in theta, each D row
is a difference of two theta rows.  All three read one contraction
(D(X), [X,-]) per wedge, formed by the base's operator complex, and
they form one sparse linear system, built once per question, with
(E1) the complex's own delta.  The search builds it at the complex's
unit-wedge contractions, the ones B^1 reads, eliminates its rows with
:func:`triplekit.linalg.echelon` and checks the solution against the
same system; the check builds it at the given witness's contraction
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .cohomology import (
    Cochain,
    OperatorComplex,
    _apply,
    _wedge_delta,
    cochain_coordinates,
    cochain_to_map,
    zero_cochain,
)
from .linalg import (
    Matrix,
    StructureError,
    VerificationError,
    ZERO,
    _solve_rows,
    echelon,
    sparse_transpose,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
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
]

STRICT_RULES = ("theta-equivariance-order-t", "D-equivariance-order-t")


@dataclass(frozen=True)
class InfinitesimalDeformation:
    base: RelativeRBO
    direction: Cochain  # degree 1, source L', target L

    def __post_init__(self):
        cochain_coordinates(self.direction, (1,), self.base.source.dim, self.base.ambient.dim)

    @cached_property
    def complex(self) -> OperatorComplex:
        """The base's complex, shared by the questions on this deformation."""
        return OperatorComplex(self.base)

    def direction_map(self) -> Matrix:
        return cochain_to_map(self.direction)


@dataclass(frozen=True)
class EquivalenceWitness:
    wedge: Cochain  # degree -1

    def __post_init__(self):
        if self.wedge.degree != -1:
            raise StructureError("equivalence witness must be a degree -1 cochain")


def _coefficients(d: InfinitesimalDeformation):
    """((u, v, w), (c1, c2, c3)) for every basis triple, in lexicographic
    order, where c_k is the t^k coefficient of the (RB) defect of
    T + t*S at (u, v, w).  The two defect tables hold only the triples
    their bracket passes reach, so they are read by key."""
    rbo, S = d.base, d.direction_map()
    order_t = d.complex.apply(d.direction).coeffs
    alone = {triple: c for triple, c, _ in _rb_defects(rbo.action, ZERO, S)}
    combined = {triple: c for triple, c, _ in _rb_defects(rbo.action, rbo.weight, rbo.T + S)}
    zero = zero_vector(rbo.ambient.dim)
    for triple, c1 in zip(product(range(rbo.source.dim), repeat=3), order_t):
        c3, full = alone.get(triple, zero), combined.get(triple, zero)
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
    data, rbo = d.complex.cohomology(1), d.base
    zb, bb = data.cocycles, data.coboundaries
    direction = cochain_coordinates(d.direction, (1,), rbo.source.dim, rbo.ambient.dim)
    pivots = echelon(sparse_transpose(bb.rows + zb.rows + (direction.items(),)))
    last = bb.dim + zb.dim
    if last in pivots:
        raise VerificationError("direction is not a 1-cocycle; no cohomology class")
    return tuple(pivots[p].get(last, ZERO) for p in sorted(pivots)[bb.dim:])


def _shared_complex(d1: InfinitesimalDeformation, d2: InfinitesimalDeformation) -> OperatorComplex:
    """The complex of the one operator that both directions deform;
    directions of two operators raise before any wedge is contracted."""
    if d1.base != d2.base:
        raise StructureError("equivalence is defined for deformations of one operator")
    return d1.complex


def _equivalence_system(d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, strict: bool, contractions):
    """The first-order conditions on (id + t[X,-], id + t D(X)) carrying
    T + t S1 onto T + t S2, as one sparse linear system in the
    coordinates of the wedges with the given contractions (D(X), [X,-]):
    (conditions, columns, targets).  ``conditions`` lists the (rule,
    witness) of each in report order; column j, the values at the j-th
    wedge, and ``targets`` are keyed by (condition, coordinate) and hold
    no zeros.  (E1) is d1's complex's delta, with target S1 - S2, (E2)
    left D(X) - [X,-] right at (S2, S1) with target 0, and the D row at
    (x, y) is the theta row at (y, x) less the one at (x, y).
    """
    rbo = d1.base
    d, dp = rbo.ambient.dim, rbo.source.dim
    S1, S2 = d1.direction_map(), d2.direction_map()
    conditions = [(rule, (u + 1,)) for u in range(dp) for rule in ("intertwining-order-t", "compatibility-order-t")]
    if strict:
        conditions += [(rule, (x + 1, y + 1)) for x, y in product(range(d), repeat=2) for rule in STRICT_RULES]
    targets = {(2 * u, l): x for u in range(dp) for l, x in enumerate(vec_sub(S1.column(u), S2.column(u))) if x}
    rep, zero, columns = rbo.action.rep, zero_vector(dp * dp), {}
    blocks = (d1.complex.delta, _wedge_delta(S2, S1))
    for j, maps in enumerate(contractions):
        out = columns[j] = {}
        for block, at in enumerate(blocks):
            for i, x in at(maps).items():
                u, l = divmod(i, d)
                out[2 * u + block, l] = x
        r2 = _theta_equivariance_rows(rep, maps) if strict else {}
        for x, y in r2.keys() | {(y, x) for x, y in r2}:
            # the theta and D conditions at (x, y) follow those of u, in (x, y) order
            at, plus, minus = 2 * (dp + x * d + y), r2.get((y, x), zero), r2.get((x, y), zero)
            for pos, m in enumerate(minus) if any(minus) else ():
                if m:
                    out[at, pos] = m
            for pos, (p, m) in enumerate(zip(plus, minus)) if plus != minus else ():
                if p != m:
                    out[at + 1, pos] = p - m
    return conditions, columns, targets


def _failed(system, coords) -> Report:
    """The conditions that the combination of the system's wedges with
    these coefficients fails, in report order."""
    conditions, columns, targets = system
    image = _apply(columns, {k: c for k, c in enumerate(coords) if c})
    failed = {key[0] for key in image.keys() | targets.keys() if image.get(key, ZERO) != targets.get(key, ZERO)}
    return tuple(Violation(*conditions[c]) for c in sorted(failed))


def check_equivalence(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, w: EquivalenceWitness,
    strict: bool = False,
) -> Report:
    """Do (E1) and (E2) hold for the given witness, on all basis vectors?

    Strict mode also checks the first-order parts of theta- and
    D-equivariance for the pair (id + t[X,-], id + t D(X)).  The system
    is taken in the one coordinate of the witness itself, so it is
    contracted at the witness alone, with no delta column and no unit
    wedge.
    """
    rbo = d1.base
    X = cochain_coordinates(w.wedge, (-1,), rbo.source.dim, rbo.ambient.dim)
    return _failed(_equivalence_system(d1, d2, strict, [_shared_complex(d1, d2).contraction(X)]), (1,))


def find_equivalence_witness(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, strict: bool = False
):
    """A wedge witness making d1 and d2 equivalent, or None.

    The system at the complex's unit-wedge contractions, shared with
    its B^1, is eliminated as sparse rows, the targets in the column after the last wedge
    coordinate, and any returned witness has already satisfied that
    same system.
    """
    rbo, units = d1.base, _shared_complex(d1, d2).unit_contractions
    system, n = _equivalence_system(d1, d2, strict, units), len(units)
    _, columns, targets = system
    x = _solve_rows(sparse_transpose([*(columns.get(k, {}).items() for k in range(n)), targets.items()]), n)
    if x is None or _failed(system, x):
        return None
    return EquivalenceWitness(Cochain(-1, rbo.source.dim, rbo.ambient.dim, x))


def is_trivial_deformation(d: InfinitesimalDeformation, strict: bool = False):
    """Witness equating d with the zero-direction deformation, or None."""
    zero = InfinitesimalDeformation(d.base, zero_cochain(1, d.base.source.dim, d.base.ambient.dim))
    return find_equivalence_witness(d, zero, strict=strict)
