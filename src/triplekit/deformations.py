"""Infinitesimal deformations T + t*S of a relative Rota-Baxter operator.

The defining identity, the projected semidirect bracket of graph
vectors, is cubic in the operator, so T + t*S satisfies it for every t
exactly when the coefficient equations at t, t^2 and t^3 all hold.
Those coefficients are recovered exactly by interpolating the one
defect at t = 0, 1, -1, 2, and each is checked on basis triples of the
source.  The order-t equation is precisely the closedness of S as a
degree-1 cochain, so verified deformation directions carry a class in
the degree-1 cohomology of the operator complex, and equivalent
deformations share that class.

Equivalence of two directions S1, S2 is witnessed by a wedge element X
of the ambient system making (id + t[X,-], id + t D(X)) an operator
homomorphism; extracting first-order coefficients gives two linear
conditions on X:

  (E1)  S1(u) - S2(u) = T D(X) u - [X, Tu]
  (E2)  [X, S1(u)] = S2( D(X) u )

Both are linear in the wedge coordinates, so witnesses are found by
one exact linear solve.  Strict mode additionally demands the
first-order parts of the theta- and D-equivariance conditions of an
operator homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import (
    Cochain,
    cochain_to_map,
    cohomology_data,
    delta_wedge,
    flatten_cochain,
    wedge_bracket_operator,
    wedge_d_operator,
    wedge_pairs,
    zero_cochain,
)
from .linalg import (
    Matrix,
    StructureError,
    SubspaceBasis,
    VerificationError,
    ZERO,
    basis_vector,
    solve,
    vec_is_zero,
    vec_sub,
)
from .reporting import Report, Violation
from .rota_baxter import RelativeRBO, _defect_coefficients

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

    def __post_init__(self):
        if self.direction.degree != 1:
            raise StructureError("deformation direction must be a degree-1 cochain")
        if (
            self.direction.source_dim != self.base.source.dim
            or self.direction.target_dim != self.base.ambient.dim
        ):
            raise StructureError("deformation direction dimensions differ from the operator")

    def direction_map(self) -> Matrix:
        return cochain_to_map(self.direction)


@dataclass(frozen=True)
class EquivalenceWitness:
    wedge: Cochain  # degree -1

    def __post_init__(self):
        if self.wedge.degree != -1:
            raise StructureError("equivalence witness must be a degree -1 cochain")


def check_deformation(d: InfinitesimalDeformation) -> Report:
    """Coefficient equations at t, t^2, t^3 on all basis triples."""
    rbo = d.base
    out = []
    for (u, v, w), coeffs in _defect_coefficients(
        rbo.action, rbo.weight, rbo.T, d.direction_map()
    ):
        for rule, c in zip(("order-t", "order-t2", "order-t3"), coeffs):
            if not vec_is_zero(c):
                out.append(Violation(rule, (u + 1, v + 1, w + 1)))
    return tuple(out)


def deformation_cocycle_class(d: InfinitesimalDeformation):
    """(is_cocycle, class coordinates in a fixed basis of H^1).

    The H^1 basis extends the canonical coboundary basis to the
    cocycle space by greedy pivoting over the cocycle basis vectors,
    so the coordinates are deterministic for a given operator.
    """
    data = cohomology_data(d.base, 1)
    zb, bb = data.cocycles, data.coboundaries
    target = flatten_cochain(d.direction)
    if not zb.contains(target):
        raise VerificationError("direction is not a 1-cocycle; no cohomology class")
    complement = []
    current = list(bb.vectors)
    span = SubspaceBasis.from_spanning(current, zb.ambient_dim)
    for vec in zb.vectors:
        if not span.contains(vec):
            complement.append(vec)
            current.append(vec)
            span = SubspaceBasis.from_spanning(current, zb.ambient_dim)
    cols = list(bb.vectors) + complement
    if not cols:
        return True, ()
    m = Matrix.from_columns(cols, zb.ambient_dim)
    x = solve(m, target)
    if x is None:
        raise VerificationError("cocycle does not decompose over the computed basis")
    return True, tuple(x[len(bb.vectors):])


def _equivalence_system(
    d1: InfinitesimalDeformation, d2: InfinitesimalDeformation, strict: bool = False
):
    """Stack (E1) and (E2) as one linear system over wedge coordinates.

    In strict mode the first-order equivariance conditions are linear
    in X as well and are appended as extra homogeneous rows.
    """
    rbo = d1.base
    L, Lp, rep = rbo.ambient, rbo.source, rbo.action.rep
    dp, dd = Lp.dim, L.dim
    pairs = wedge_pairs(dd)
    S1, S2 = d1.direction_map(), d2.direction_map()
    one = ZERO + 1
    cols = []
    for k in range(len(pairs)):
        unit = Cochain(-1, dp, dd, tuple(
            one if t == k else ZERO for t in range(len(pairs))
        ))
        dx = wedge_d_operator(rbo, unit)
        bx = wedge_bracket_operator(rbo, unit)
        col = list(flatten_cochain(delta_wedge(rbo, unit)))
        for u in range(dp):
            eu = basis_vector(dp, u)
            line2 = vec_sub(bx.apply(S1.column(u)), S2.apply(dx.apply(eu)))
            col.extend(line2)
        if strict:
            for x, y in product(range(dd), repeat=2):
                th = rep.theta[x][y]
                dm = rep.d_basis(x, y)
                ex, ey = basis_vector(dd, x), basis_vector(dd, y)
                th_def = (dx @ th) - rep.theta_vec(bx.apply(ex), ey) \
                    - rep.theta_vec(ex, bx.apply(ey)) - (th @ dx)
                d_def = (dx @ dm) - rep.d_vec(bx.apply(ex), ey) \
                    - rep.d_vec(ex, bx.apply(ey)) - (dm @ dx)
                for mat in (th_def, d_def):
                    for row in mat.entries:
                        col.extend(row)
        cols.append(tuple(col))
    rhs = []
    for u in range(dp):
        rhs.extend(vec_sub(S1.column(u), S2.column(u)))
    rhs.extend([ZERO] * (dp * dd))
    if strict:
        rhs.extend([ZERO] * (dd * dd * 2 * dp * dp))
    height = len(rhs)
    m = Matrix.from_columns(cols, height) if cols else Matrix.zeros(height, 0)
    return m, tuple(rhs)


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
    rbo = d1.base
    L, Lp, rep = rbo.ambient, rbo.source, rbo.action.rep
    dp = Lp.dim
    S1, S2 = d1.direction_map(), d2.direction_map()
    bx = wedge_bracket_operator(rbo, w.wedge)
    dx = wedge_d_operator(rbo, w.wedge)
    delta = delta_wedge(rbo, w.wedge)
    out = []
    for u in range(dp):
        if vec_sub(S1.column(u), S2.column(u)) != delta.coeffs[u]:
            out.append(Violation("intertwining-order-t", (u + 1,)))
        lhs = bx.apply(S1.column(u))
        rhs = S2.apply(dx.apply(basis_vector(dp, u)))
        if lhs != rhs:
            out.append(Violation("compatibility-order-t", (u + 1,)))
    if strict:
        d = L.dim
        for x, y in product(range(d), repeat=2):
            th = rep.theta[x][y]
            dm = rep.d_basis(x, y)
            ex, ey = basis_vector(d, x), basis_vector(d, y)
            th_var = rep.theta_vec(bx.apply(ex), ey) + rep.theta_vec(ex, bx.apply(ey))
            lhs = dx @ th
            rhs = th_var + (th @ dx)
            if lhs != rhs:
                out.append(Violation("theta-equivariance-order-t", (x + 1, y + 1)))
            d_var = rep.d_vec(bx.apply(ex), ey) + rep.d_vec(ex, bx.apply(ey))
            lhs = dx @ dm
            rhs = d_var + (dm @ dx)
            if lhs != rhs:
                out.append(Violation("D-equivariance-order-t", (x + 1, y + 1)))
    return tuple(out)


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
