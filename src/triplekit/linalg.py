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

Every exact elimination (rank, kernel, span, solve, inverse, quotient
and the reduced row echelon form) runs on one routine, :func:`echelon`,
over sparse rows: dicts from column to nonzero value.  Each row is
reduced once against the pivot rows found so far, and each new pivot is
cleared from the older pivot rows, so the result is fully reduced at
every step and its cost follows the nonzeros, not the shape.  A
:class:`SubspaceBasis` keeps its reduced echelon rows in that sparse
form and builds the dense ``vectors`` only when asked.  The tests keep
a dense column-by-column reduction as the oracle for this routine.

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


def _normal(q: Scalar) -> Scalar:
    """q as an int when it is integral; an int is returned as it is."""
    return q.numerator if q.denominator == 1 else q


def parse_scalar(text) -> Scalar:
    """Parse ``"p/q"`` or ``"p"`` (also accepts ints and Fractions) into a
    scalar: an int when the value is integral, else a Fraction."""
    # text, the common case, is tested first: isinstance with Fraction,
    # an ABC, costs a metaclass call
    if isinstance(text, str):
        try:
            # an ASCII integer, the common case, skips Fraction's regex
            digits = text[1:] if text[:1] == "-" else text
            if digits.isdigit() and digits.isascii():
                return int(text)
            return _normal(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError(f"not a rational scalar: {text!r}") from exc
    if isinstance(text, bool):
        raise StructureError(f"not a rational scalar: {text!r}")
    if isinstance(text, int):
        return int(text)
    if isinstance(text, Fraction):
        return _normal(text)
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


def _nonzero(vec) -> dict:
    """A dense vector's nonzero entries by index; ``any`` passes over an
    all-zero vector in C."""
    return {j: x for j, x in enumerate(vec) if x} if any(vec) else {}


def _subtract(row: dict, f: Scalar, other: dict) -> None:
    """row -= f * other, in place, keeping only nonzero entries, each an
    int when it is integral."""
    for j, x in other.items():
        if y := row.get(j, ZERO) - f * x:
            row[j] = y if type(y) is int else _normal(y)
        else:
            del row[j]


def _reduce(row: dict, pivots: dict) -> dict:
    """Clear every pivot column from ``row`` in place and return it.

    ``pivots`` maps each pivot column to the tail of its row, the entries
    past the implicit 1, and no tail has an entry in another pivot
    column.  Subtracting one pivot row therefore leaves the row's
    entries in the other pivot columns as they were, so one pass over
    the pivot columns the row holds clears them all."""
    for c in [c for c in row if c in pivots]:
        _subtract(row, row.pop(c), pivots[c])
    return row


def echelon(rows) -> dict:
    """The fully reduced echelon form of the span of sparse rows.

    Rows map (or list as pairs) column to value.  Returns {pivot column:
    tail}: the pivot row holds 1 in its pivot column, the tail's entries
    elsewhere, and 0 in every other pivot column.  Each incoming row is
    reduced once against the pivot rows; if anything is left, its first
    column becomes a new pivot, the row is scaled to 1 there and that
    column is cleared from the older pivot rows.  A tail only gains
    entries past a column it already holds, so every pivot row starts at
    its pivot column and, sorted by pivot, the rows are the reduced row
    echelon form.  This is the one exact elimination of the package."""
    pivots = {}
    for row in filter(None, rows):
        row = _reduce(dict(row), pivots)
        if not row:
            continue
        p = min(row)
        if (a := row.pop(p)) != 1:
            inv = exact_div(ONE, a)
            row = {j: _normal(x * inv) for j, x in row.items()}
        for tail in pivots.values():
            if f := tail.pop(p, ZERO):
                _subtract(tail, f, row)
        pivots[p] = row
    return pivots


def sparse_transpose(columns) -> list[dict]:
    """The sparse rows of the matrix whose k-th column lists its
    (row, value) pairs; all-zero rows are left out."""
    rows = {}
    for k, column in enumerate(columns):
        for i, x in column:
            rows.setdefault(i, {})[k] = x
    return list(rows.values())


def rank(m: Matrix) -> int:
    """Rank over the rationals, exact."""
    return len(echelon(map(_nonzero, m.entries)))


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of F^n, kept in reduced row echelon form.

    ``rows`` holds each basis row sparse, as its (column, value) pairs
    in column order.  The RREF normal form makes equality of spans a
    plain tuple comparison and membership a single reduction pass;
    ``vectors`` is the dense view, built on first use.
    """

    ambient_dim: int
    rows: tuple[tuple[tuple[int, Scalar], ...], ...]

    def __post_init__(self):
        # membership tests and span equality rely on the reduced echelon
        # normal form, so direct construction must already satisfy it:
        # each row lists its nonzero entries in column order inside the
        # ambient space, and the leads increase, equal 1 and stand alone
        # in their columns.  Build via from_spanning or from_sparse for
        # arbitrary vector lists
        leads = {row[0][0] for row in self.rows if row}
        previous = -1
        for row in self.rows:
            cols = [j for j, _ in row]
            if not (
                cols and previous < cols[0] and cols[-1] < self.ambient_dim and row[0][1] == 1
                and all(a < b for a, b in zip(cols, cols[1:])) and all(x for _, x in row)
                and sum(j in leads for j in cols) == 1
            ):
                raise StructureError("basis rows are not in reduced echelon form; use from_spanning")
            previous = cols[0]

    @classmethod
    def from_sparse(cls, rows, ambient_dim: int) -> "SubspaceBasis":
        """Canonical basis of the span of sparse rows (column -> value,
        as a mapping or as pairs)."""
        pivots = echelon(rows)
        return cls(ambient_dim, tuple(
            ((p, ONE),) + tuple(sorted(pivots[p].items())) for p in sorted(pivots)
        ))

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int) -> "SubspaceBasis":
        """Canonical basis (RREF rows) of the span of dense ``vectors``."""
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise StructureError("spanning vector length differs from ambient dimension")
        return cls.from_sparse(map(_nonzero, vectors), ambient_dim)

    @classmethod
    def full_space(cls, n: int) -> "SubspaceBasis":
        return cls(n, tuple(((i, ONE),) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def vectors(self) -> tuple[Vector, ...]:
        out = []
        for row in self.rows:
            vec = [ZERO] * self.ambient_dim
            for j, x in row:
                vec[j] = x
            out.append(tuple(vec))
        return tuple(out)

    @cached_property
    def _pivots(self) -> dict:
        """The rows as echelon pivots, {lead: tail}, for membership."""
        return {row[0][0]: dict(row[1:]) for row in self.rows}

    def contains(self, vec: Vector) -> bool:
        if len(vec) != self.ambient_dim:
            raise StructureError("vector length differs from ambient dimension")
        return not _reduce(_nonzero(vec), self._pivots)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise StructureError("ambient dimensions differ")
        return not any(_reduce(dict(row), other._pivots) for row in self.rows)


def sparse_kernel(rows, cols: int) -> SubspaceBasis:
    """Basis of the right null space of the matrix with these sparse
    rows and ``cols`` columns: each free column f of the echelon form
    gives e_f minus the tails' entries at f in their pivot columns."""
    pivots = echelon(rows)
    kernel = {f: {f: ONE} for f in range(cols) if f not in pivots}
    for p, tail in pivots.items():
        for j, x in tail.items():
            kernel[j][p] = -x
    return SubspaceBasis.from_sparse(kernel.values(), cols)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the right null space of ``m`` (ambient dim = cols)."""
    return sparse_kernel(map(_nonzero, m.entries), m.cols)


def quotient_dim(sub: SubspaceBasis, total: SubspaceBasis) -> int:
    """dim(total / sub); requires span(sub) contained in span(total)."""
    if sub.ambient_dim != total.ambient_dim:
        raise StructureError("ambient dimensions differ")
    if not sub.is_subspace_of(total):
        raise VerificationError("quotient undefined: sub is not contained in total")
    return total.dim - sub.dim


def solve(m: Matrix, rhs: Vector):
    """One exact solution of m x = rhs, or None if inconsistent: the one
    that is zero in every free column of the reduced echelon form."""
    if len(rhs) != m.rows:
        raise StructureError("right-hand side length differs from row count")
    return _solve_rows(({**_nonzero(row), m.cols: b} if b else _nonzero(row) for row, b in zip(m.entries, rhs)), m.cols)


def _solve_rows(rows, n: int):
    """:func:`solve` on sparse rows in the unknowns 0..n-1 that hold the
    right-hand side in column n."""
    pivots = echelon(rows)
    if n in pivots:
        return None
    return tuple(pivots[p].get(n, ZERO) if p in pivots else ZERO for p in range(n))


def invert(m: Matrix):
    """Exact inverse, or None when singular."""
    if m.rows != m.cols:
        raise StructureError("only square matrices can be inverted")
    n = m.rows
    pivots = echelon({**_nonzero(row), n + i: ONE} for i, row in enumerate(m.entries))
    if sorted(pivots) != list(range(n)):
        return None
    rows = [[ZERO] * n for _ in range(n)]
    for p, tail in pivots.items():
        for j, x in tail.items():
            rows[p][j - n] = x
    return Matrix(n, n, tuple(map(tuple, rows)))
