"""Representations and actions of Lie triple systems, and semidirect products.

A representation of L on V assigns matrices theta(e_i, e_j) in End(V)
subject to the two compatibility identities

  (R1) theta(c,d) theta(a,b) - theta(b,d) theta(a,c)
         - theta(a, [b,c,d]) + D(b,c) theta(a,d) = 0
  (R2) theta(c,d) D(a,b) - D(a,b) theta(c,d)
         + theta([a,b,c], d) + theta(c, [a,b,d]) = 0

with D(a,b) = theta(b,a) - theta(a,b).  D is always derived on the
fly, never stored.  An action is a representation on a space that is
itself a Lie triple system, landing in its center and killing its
brackets; actions are exactly what semidirect products need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import Matrix, StructureError, Vector, ZERO, basis_vector, vec_is_zero
from .lts import LieTripleSystem, center
from .reporting import Report, Violation

ThetaTensor = tuple[tuple[Matrix, ...], ...]


@dataclass(frozen=True)
class RepresentationData:
    """theta[i][j] is the matrix of theta(e_i, e_j) acting on F^space_dim."""

    algebra: LieTripleSystem
    space_dim: int
    theta: ThetaTensor

    def __post_init__(self):
        d = self.algebra.dim
        if len(self.theta) != d or any(len(row) != d for row in self.theta):
            raise StructureError("theta tensor is not dim x dim")
        for row in self.theta:
            for mat in row:
                if mat.rows != self.space_dim or mat.cols != self.space_dim:
                    raise StructureError("theta matrix shape differs from space_dim")

    def d_basis(self, i: int, j: int) -> Matrix:
        """D(e_i, e_j) = theta(e_j, e_i) - theta(e_i, e_j), recomputed on demand."""
        return self.theta[j][i] - self.theta[i][j]

    def theta_vec(self, x: Vector, y: Vector) -> Matrix:
        """Bilinear extension of theta to arbitrary arguments, summed in one pass."""
        d, n = self.algebra.dim, self.space_dim
        if len(x) != d or len(y) != d:
            raise StructureError("theta argument length differs from algebra dimension")
        acc = [[ZERO] * n for _ in range(n)]
        for i in range(d):
            if not x[i]:
                continue
            for j in range(d):
                c = x[i] * y[j]
                if c:
                    for out, row in zip(acc, self.theta[i][j].entries):
                        for col, a in enumerate(row):
                            if a:
                                out[col] += c * a
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
    """Check (R1) and (R2) on all basis 4-tuples of the acting algebra."""
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
    for a, b, c, dd in product(range(d), repeat=4):
        lhs = (
            th[c][dd] @ dm[a][b]
            - dm[a][b] @ th[c][dd]
            + r.theta_vec(br[a][b][c], E[dd])
            + r.theta_vec(E[c], br[a][b][dd])
        )
        if not lhs.is_zero():
            out.append(Violation("module-identity-2", (a + 1, b + 1, c + 1, dd + 1)))
    return tuple(out)


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
    a: ActionData, weight: Fraction, x1: Vector, u1: Vector, x2: Vector, u2: Vector, x3: Vector, u3: Vector
) -> tuple[Vector, Vector]:
    """[(x1,u1),(x2,u2),(x3,u3)] on L (+) L' for the action and weight.

    The only place the mixed term is written out; every operator
    identity in the package is read off this bracket.  A mixed term
    whose L' argument is zero is that zero vector, and its matrix is
    not built.
    """
    L, Lp, rep = a.algebra, a.target, a.rep
    part_l = L.bracket_eval(x1, x2, x3)
    t1 = rep.d_vec(x1, x2).apply(u3) if any(u3) else u3
    t2 = rep.theta_vec(x2, x3).apply(u1) if any(u1) else u1
    t3 = rep.theta_vec(x1, x3).apply(u2) if any(u2) else u2
    lam_part = Lp.bracket_eval(u1, u2, u3)
    part_p = tuple(
        t1[l] + t2[l] - t3[l] + weight * lam_part[l] for l in range(Lp.dim)
    )
    return part_l, part_p


def semidirect_product(a: ActionData, weight: Fraction) -> LieTripleSystem:
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
