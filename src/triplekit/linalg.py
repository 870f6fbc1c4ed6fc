"""Exact linear algebra over the rationals.

Everything downstream (axiom checks, cohomology ranks, deformation
classes) needs exact ranks and kernels, so every scalar is exact: an
integral value is a plain ``int`` and only a non-integral value is a
``fractions.Fraction``.  Integral data, such as every bundled fixture,
then runs on machine-speed int arithmetic.  Sums, differences and
products of ints and Fractions stay exact by themselves; a quotient of
two ints would be a float, so every division goes through
:func:`exact_div` and no other code divides scalars.  Vectors are
tuples of scalars, matrices are tuples of row tuples; all values are
immutable and safe to share.

Scalars serialize as ``"p/q"``, or ``"p"`` when the denominator is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

Scalar = int | Fraction
Vector = tuple[Scalar, ...]

ZERO = 0
ONE = 1


def _normal(q: Fraction) -> Scalar:
    return q.numerator if q.denominator == 1 else q


def parse_scalar(text) -> Scalar:
    """Parse ``"p/q"`` or ``"p"`` (also accepts ints and Fractions) into a
    scalar: an int when the value is integral, else a Fraction."""
    if isinstance(text, bool):
        raise StructureError(f"not a rational scalar: {text!r}")
    if isinstance(text, int):
        return int(text)
    if isinstance(text, Fraction):
        return _normal(text)
    if isinstance(text, str):
        try:
            return _normal(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError(f"not a rational scalar: {text!r}") from exc
    raise StructureError(f"not a rational scalar: {text!r}")


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b: an int when it is integral, else a
    Fraction.  Raises ZeroDivisionError when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _normal(Fraction(a, b))


def format_scalar(value: Scalar) -> str:
    """Render a scalar as ``"p/q"`` (or ``"p"`` for integers)."""
    return str(value)


class StructureError(ValueError):
    """Malformed input: bad shapes, unparsable scalars, index range errors."""


class VerificationError(ValueError):
    """An operation was invoked on input that fails its admissibility check."""


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if t == i else ZERO for t in range(n))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix; ``entries`` is a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise StructureError(
                f"matrix entries do not match declared shape {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = tuple(tuple(parse_scalar(x) for x in row) for row in rows)
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise StructureError("ragged rows in matrix literal")
        return cls(len(rows), width, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(basis_vector(n, i) for i in range(n)))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        cols = len(columns)
        return cls(rows, cols, tuple(
            tuple(columns[c][r] for c in range(cols)) for r in range(rows)
        ))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            tuple(self.entries[r][c] for r in range(self.rows)) for c in range(self.cols)
        ))

    def apply(self, vec: Vector) -> Vector:
        if len(vec) != self.cols:
            raise StructureError(f"cannot apply {self.rows}x{self.cols} matrix to length-{len(vec)} vector")
        support = [(j, x) for j, x in enumerate(vec) if x]
        return tuple(sum((row[j] * x for j, x in support), ZERO) for row in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._need_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._need_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise StructureError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose()
        return Matrix(self.rows, other.cols, tuple(
            tuple(sum((a * b for a, b in zip(row, col) if a and b), ZERO) for col in ot.entries)
            for row in self.entries
        ))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def _need_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StructureError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if (p := rows[r][col]) != 1:
            inv = exact_div(ONE, p)
            rows[r] = [x * inv if x else x for x in rows[r]]
        support = [(j, x) for j, x in enumerate(rows[r]) if x]
        for i in range(n_rows):
            if i != r and rows[i][col]:
                f, row = rows[i][col], rows[i]
                for j, x in support:
                    row[j] -= f * x
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rows, pivots = _rref([list(r) for r in m.entries])
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over the rationals, exact."""
    _, pivots = _rref([list(r) for r in m.entries])
    return len(pivots)


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of F^n, kept in reduced row echelon form.

    The RREF normal form makes equality of spans a plain tuple
    comparison and membership a single elimination pass.
    """

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        if any(len(v) != self.ambient_dim for v in self.vectors):
            raise StructureError("basis vector length differs from ambient dimension")
        # membership tests and span equality rely on the reduced echelon
        # normal form, so direct construction must already satisfy it:
        # increasing leads equal to 1, each alone in its column.  Build
        # via from_spanning for arbitrary vector lists
        leads = [next((j for j, x in enumerate(row) if x), None) for row in self.vectors]
        if (
            None in leads
            or any(a >= b for a, b in zip(leads, leads[1:]))
            or any(row[lead] != 1 for row, lead in zip(self.vectors, leads))
            or any(sum(1 for c in leads if row[c]) != 1 for row in self.vectors)
        ):
            raise StructureError("basis rows are not in reduced echelon form; use from_spanning")

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int) -> "SubspaceBasis":
        """Canonical basis (RREF rows) of the span of ``vectors``."""
        rows = [list(v) for v in vectors if not vec_is_zero(v)]
        for v in rows:
            if len(v) != ambient_dim:
                raise StructureError("spanning vector length differs from ambient dimension")
        reduced, pivots = _rref(rows)
        return cls(ambient_dim, tuple(tuple(r) for r in reduced[: len(pivots)]))

    @classmethod
    def full_space(cls, n: int) -> "SubspaceBasis":
        return cls(n, tuple(basis_vector(n, i) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def _rows(self) -> tuple:
        """(lead, ((column, value), ...)) for every row: its lead column
        and its nonzero entries, found once per basis for contains."""
        support = (tuple((j, x) for j, x in enumerate(row) if x) for row in self.vectors)
        return tuple((nz[0][0], nz) for nz in support)

    def contains(self, vec: Vector) -> bool:
        if len(vec) != self.ambient_dim:
            raise StructureError("vector length differs from ambient dimension")
        residue = list(vec)
        for lead, support in self._rows:
            if f := residue[lead]:
                for j, x in support:
                    residue[j] -= f * x
        return vec_is_zero(residue)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise StructureError("ambient dimensions differ")
        return all(other.contains(v) for v in self.vectors)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the right null space of ``m`` (ambient dim = cols)."""
    rows, pivots = _rref([list(r) for r in m.entries])
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for free in free_cols:
        v = [ZERO] * m.cols
        v[free] = ONE
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][free]
        vectors.append(tuple(v))
    return SubspaceBasis.from_spanning(vectors, m.cols)


def quotient_dim(sub: SubspaceBasis, total: SubspaceBasis) -> int:
    """dim(total / sub); requires span(sub) contained in span(total)."""
    if sub.ambient_dim != total.ambient_dim:
        raise StructureError("ambient dimensions differ")
    if not sub.is_subspace_of(total):
        raise VerificationError("quotient undefined: sub is not contained in total")
    return total.dim - sub.dim


def solve(m: Matrix, rhs: Vector):
    """One exact solution of m x = rhs, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise StructureError("right-hand side length differs from row count")
    aug = [list(r) + [rhs[i]] for i, r in enumerate(m.entries)]
    rows, pivots = _rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, pcol in enumerate(pivots):
        x[pcol] = rows[r][m.cols]
    return tuple(x)


def invert(m: Matrix):
    """Exact inverse, or None when singular."""
    if m.rows != m.cols:
        raise StructureError("only square matrices can be inverted")
    n = m.rows
    aug = [list(m.entries[i]) + list(basis_vector(n, i)) for i in range(n)]
    rows, pivots = _rref(aug)
    if list(pivots) != list(range(n)):
        return None
    return Matrix(n, n, tuple(tuple(rows[i][n:]) for i in range(n)))
