"""Finite-dimensional Lie triple systems given by structure constants.

A system of dimension d is stored as its nonzero brackets of basis
vectors, ``(i, j, k, c)`` with ``[e_i, e_j, e_k] = sum_l c[l] e_l``, in
lexicographic (i, j, k) order; every unlisted bracket is zero, and no
dense table is kept beside the list.  The defining axioms:

  (A1)  [a,a,b] = 0
  (A2)  [a,b,c] + [b,c,a] + [c,a,b] = 0
  (A3)  [a,b,[c,d,e]] = [[a,b,c],d,e] + [c,[a,b,d],e] + [c,d,[a,b,e]]

are trilinear apart from (A1), whose polarized form (skew-symmetry in
the first two slots) is equivalent over a field of characteristic 0,
so checking all basis tuples decides them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import (
    Matrix,
    StructureError,
    SubspaceBasis,
    Vector,
    ZERO,
    basis_vector,
    sparse_kernel,
    vec_is_zero,
    zero_vector,
)
from .reporting import Report, Violation


@dataclass(frozen=True)
class LieTripleSystem:
    dim: int
    basis_names: tuple[str, ...]
    # (i, j, k, value-vector) for every nonzero [e_i, e_j, e_k], in
    # lexicographic (i, j, k) order; build through from_entries.
    nonzero: tuple[tuple[int, int, int, Vector], ...]

    @classmethod
    def from_entries(cls, dim, entries, basis_names=None) -> "LieTripleSystem":
        """Build from a {(i, j, k): vector} dict of 0-based brackets.

        Unlisted triples are zero, and so are listed all-zero vectors,
        which are not stored.  Skew pairs are NOT completed here; use
        :func:`triplekit.fileio.load_algebra` for sparse input files.
        """
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        if len(names) != dim:
            raise StructureError("basis name count differs from dimension")
        for (i, j, k), vec in entries.items():
            if not all(0 <= t < dim for t in (i, j, k)):
                raise StructureError(f"bracket index out of range: {(i, j, k)}")
            if len(vec) != dim:
                raise StructureError(f"bracket value at {(i, j, k)} has wrong length")
        nonzero = sorted((*key, tuple(vec)) for key, vec in entries.items() if not vec_is_zero(vec))
        return cls(dim, names, tuple(nonzero))

    def bracket_eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        """Trilinear extension of the brackets to arbitrary vectors."""
        for v in (x, y, z):
            if len(v) != self.dim:
                raise StructureError("bracket argument length differs from dimension")
        out = [ZERO] * self.dim
        for i, j, k, vec in self.nonzero:
            # most argument coordinates are zero on basis-vector arguments
            if x[i] and y[j] and z[k]:
                coef = x[i] * y[j] * z[k]
                for l, val in enumerate(vec):
                    if val:
                        out[l] += coef * val
        return tuple(out)

    def basis(self) -> tuple[Vector, ...]:
        return tuple(basis_vector(self.dim, i) for i in range(self.dim))


def zero_system(dim: int, basis_names=None) -> LieTripleSystem:
    return LieTripleSystem.from_entries(dim, {}, basis_names)


def verify_lts(L: LieTripleSystem) -> Report:
    """All axiom violations, with 1-based witness tuples.

    (A1) is checked in polarized form: c[i][i][k] = 0 together with
    full skew-symmetry c[i][j][k] = -c[j][i][k].  These and (A2) can
    fail only at permutations of a nonzero bracket's triple, so only
    those are visited.  (A3) only needs the pairs (a, b) with K =
    [e_a, e_b, -] nonzero, since every term applies K to something, and
    its two sides' difference is scattered from the nonzeros: coordinate
    m of [e_c, e_d, e_e] meets K e_m at (c, d, e), and coordinate m of
    K e_k meets, negated, each bracket with m in a slot, at its triple
    with k in that slot.  Only the triples that receive a term are
    checked, in lexicographic order.
    """
    d, br, zero = L.dim, {(i, j, k): vec for i, j, k, vec in L.nonzero}, zero_vector(L.dim)

    def at(i, j, k):
        return br.get((i, j, k), zero)

    out = [Violation("alternating", (i + 1, i + 1, k + 1), "[a,a,b] != 0") for i, j, k, _v in L.nonzero if i == j]
    for i, j, k in sorted({(min(i, j), max(i, j), k) for i, j, k in br if i != j}):
        if not vec_is_zero(tuple(a + b for a, b in zip(at(i, j, k), at(j, i, k)))):
            out.append(Violation("skew-symmetry", (i + 1, j + 1, k + 1), "[a,b,c] != -[b,a,c]"))
    for i, j, k in sorted({t for i, j, k in br for t in ((i, j, k), (j, k, i), (k, i, j))}):
        if not vec_is_zero(tuple(map(sum, zip(at(i, j, k), at(j, k, i), at(k, i, j))))):
            out.append(Violation("cyclic-sum", (i + 1, j + 1, k + 1)))
    terms = {key: [(l, v) for l, v in enumerate(vec) if v] for key, vec in br.items()}
    by_slot, left = ({}, {}, {}), {}
    for key, kv in terms.items():
        for s in range(3):
            by_slot[s].setdefault(key[s], []).append((key, kv))
        left.setdefault(key[:2], {})[key[2]] = kv
    for (a, b), K in sorted(left.items()):
        # [a, b, [c, d, e]], then less [[a, b, c], d, e] + [c, [a, b, d], e] + [c, d, [a, b, e]]
        parts = [(key, c, K[m]) for key, kv in terms.items() for m, c in kv if m in K]
        parts += [
            (key[:s] + (k,) + key[s + 1:], -c, mv)
            for k, kv in K.items() for m, c in kv for s in range(3) for key, mv in by_slot[s].get(m, ())
        ]
        acc = {}
        for key, c, vec in parts:
            row = acc.setdefault(key, [ZERO] * d)
            for l, v in vec:
                row[l] += c * v
        out += [Violation("derivation", (a + 1, b + 1, *(t + 1 for t in key))) for key in sorted(acc) if any(acc[key])]
    return tuple(out)


def derived_algebra(L: LieTripleSystem) -> SubspaceBasis:
    """Span of all basis brackets, i.e. [L, L, L]."""
    return SubspaceBasis.from_spanning([vec for _i, _j, _k, vec in L.nonzero], L.dim)


def center(L: LieTripleSystem) -> SubspaceBasis:
    """{x : [x, y, z] = 0 for all y, z}: the kernel of the rows, one per
    (j, k, l), whose entry i is coordinate l of [e_i, e_j, e_k]."""
    rows = {}
    for i, j, k, vec in L.nonzero:
        for l, c in enumerate(vec):
            if c:
                rows.setdefault((j, k, l), {})[i] = c
    return sparse_kernel(rows.values(), L.dim)


def skew_first(indices):
    """Every triple over ``indices``, the (x, y, z) with x != y first and
    then the (x, x, z), each group in the order of ``product(indices,
    repeat=3)``.  A system skew in its first two slots has a zero bracket
    at every (x, x, z), so a scan that stops at its first failure reaches
    them last; it still visits them, so a system that is not skew gets
    every triple checked."""
    indices = tuple(indices)
    yield from ((x, y, z) for x, y, z in product(indices, repeat=3) if x != y)
    yield from ((x, x, z) for x in indices for z in indices)


def _brackets_of_basis(L: LieTripleSystem, S: SubspaceBasis):
    """The brackets of all triples of basis vectors of S, lazily and in
    :func:`skew_first` order, so a caller's test can stop at the first
    that fails it."""
    if S.ambient_dim != L.dim:
        raise StructureError("subspace ambient dimension differs from system dimension")
    V = S.vectors
    return (L.bracket_eval(V[x], V[y], V[z]) for x, y, z in skew_first(range(len(V))))


def is_subsystem(L: LieTripleSystem, S: SubspaceBasis) -> bool:
    """True when the bracket of any three basis vectors of S stays in span(S)."""
    return all(map(S.contains, _brackets_of_basis(L, S)))


def is_abelian_subsystem(L: LieTripleSystem, S: SubspaceBasis) -> bool:
    """True when every bracket of basis vectors of S vanishes; zero
    brackets lie in span(S), so S is then a subsystem too."""
    return all(map(vec_is_zero, _brackets_of_basis(L, S)))


@dataclass(frozen=True)
class HomomorphismCandidate:
    source: LieTripleSystem
    target: LieTripleSystem
    map: Matrix  # target.dim x source.dim

    def __post_init__(self):
        if self.map.cols != self.source.dim or self.map.rows != self.target.dim:
            raise StructureError("homomorphism matrix shape differs from source/target dims")


def is_homomorphism(h: HomomorphismCandidate) -> bool:
    """phi[x,y,z]_source == [phi x, phi y, phi z]_target on all basis
    triples, scanned in :func:`skew_first` order up to the first failure."""
    src, dst, phi = h.source, h.target, h.map
    E, cols = src.basis(), [phi.column(i) for i in range(src.dim)]
    for i, j, k in skew_first(range(src.dim)):
        lhs = phi.apply(src.bracket_eval(E[i], E[j], E[k]))
        rhs = dst.bracket_eval(cols[i], cols[j], cols[k])
        if lhs != rhs:
            return False
    return True
