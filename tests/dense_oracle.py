"""Dense and hand-expanded oracles for the package's one evaluator per
identity.

``linalg.echelon`` is the package's one elimination; it works on sparse
rows and reduces each row once as it arrives.  This module keeps the
textbook alternative on dense rows, column by column, and rebuilds the
old dense cohomology path on it, so that the tests can require both to
give the same answers.  Everything returns dense tuples.

It also keeps three identities as they were written before each got a
single evaluator: (R2) as a dense matrix loop over basis 4-tuples, the
Nijenhuis torsion expanded into its seven terms with twelve
applications of N, and the D_T self-check of the induced
representation as a comparison of projected brackets.  It keeps the
semidirect bracket evaluated one triple of vectors at a time, with
theta_T built column by column from it, and the action conditions
checked on every dense theta matrix and column.  It keeps the
coboundary assembled as it first was, one sign convention at a time by
a walk over every output argument tuple, with the sign audit as the
product of each d_3 with d_1.  Last, it keeps the nested ``coeffs`` of
a cochain file built as they first were, one recursive call per
argument prefix.

The package stores a system and a representation only as their nonzero
entries; :func:`bracket_tensor` and :func:`theta_tensor` build the dense
views the oracles and the tests index, and :func:`representation`
builds a representation from such a dense table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from triplekit.cohomology import SIGN_CONVENTIONS, _apply, _columns, cochain_space_basis, flat_arg_index
from triplekit.linalg import Matrix, ONE, ZERO, basis_vector, exact_div, format_scalar, vec_sub, zero_vector
from triplekit.lts import center
from triplekit.reporting import Violation
from triplekit.representations import RepresentationData


# the oracles rebuild these views once per call, often once per triple;
# the views are tuples, so a cached one cannot be changed by a caller
@lru_cache(maxsize=32)
def bracket_tensor(L):
    """The dense table c[i][j][k] = [e_i, e_j, e_k] of the system."""
    given = {(i, j, k): vec for i, j, k, vec in L.nonzero}
    zero, d = zero_vector(L.dim), L.dim
    return tuple(
        tuple(tuple(given.get((i, j, k), zero) for k in range(d)) for j in range(d))
        for i in range(d)
    )


@lru_cache(maxsize=32)
def theta_tensor(rep):
    """The dense table th[i][j] = theta(e_i, e_j) of the representation."""
    n, d = rep.space_dim, rep.algebra.dim
    table = [[[[ZERO] * n for _ in range(n)] for _ in range(d)] for _ in range(d)]
    for i, j, entries in rep.nonzero:
        for r, c, a in entries:
            table[i][j][r][c] = a
    return tuple(tuple(Matrix(n, n, tuple(map(tuple, m))) for m in row) for row in table)


def representation(L, n, theta):
    """The representation of L on F^n with the dense table theta[i][j]
    of matrices."""
    return RepresentationData.from_entries(L, n, {
        (i, j, r, c): a
        for i, row in enumerate(theta)
        for j, mat in enumerate(row)
        for r, line in enumerate(mat.entries)
        for c, a in enumerate(line)
    })


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
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


def rref(entries) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    rows, pivots = _rref([list(r) for r in entries])
    return tuple(map(tuple, rows)), tuple(pivots)


def rank(entries) -> int:
    return len(rref(entries)[1])


def span(vectors, n: int) -> tuple[tuple, ...]:
    """The reduced echelon basis of the span of dense vectors."""
    rows, pivots = _rref([list(v) for v in vectors if any(v)])
    assert all(len(r) == n for r in rows)
    return tuple(map(tuple, rows[: len(pivots)]))


def kernel(entries, cols: int) -> tuple[tuple, ...]:
    """The reduced echelon basis of the right null space."""
    rows, pivots = _rref([list(r) for r in entries])
    vectors = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = [ZERO] * cols
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][free]
        vectors.append(v)
    return span(vectors, cols)


def solve(entries, cols: int, rhs):
    rows, pivots = _rref([list(r) + [b] for r, b in zip(entries, rhs)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][cols]
    return tuple(x)


def invert(entries):
    n = len(entries)
    rows, pivots = _rref([list(r) + [ONE if j == i else ZERO for j in range(n)] for i, r in enumerate(entries)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in rows)


def quotient_dim(sub, total, n: int):
    """dim(total / sub), or None when sub is not inside total."""
    if len(span(list(sub) + list(total), n)) != len(total):
        return None
    return len(total) - len(sub)


def cohomology(cx, degree: int, convention: str):
    """(Z, B) of an operator complex as dense reduced echelon bases: Z
    from the kernel of the dense matrix of the images of the constrained
    basis, on their nonzero rows; B from the dense span of the incoming
    differential's columns."""
    d, dp = cx.rbo.ambient.dim, cx.rbo.source.dim
    size = dp**degree * d
    basis = cochain_space_basis(degree, dp, d).vectors
    differential = cx.differential(degree, convention)
    images = []
    for vec in basis:
        out = {}
        for j, c in enumerate(vec):
            for i, a in differential.get(j, {}).items() if c else ():
                out[i] = out.get(i, ZERO) + c * a
        images.append(out)
    rows = sorted(set().union(*images))
    coefficients = kernel([[img.get(i, ZERO) for img in images] for i in rows], len(basis))
    combinations = []
    for coeff in coefficients:
        acc = [ZERO] * size
        for c, vec in zip(coeff, basis):
            for t, x in enumerate(vec) if c else ():
                if x:
                    acc[t] += c * x
        combinations.append(acc)
    incoming = cx.differential(degree - 2).values()
    coboundaries = span([[col.get(i, ZERO) for i in range(size)] for col in incoming], size)
    return span(combinations, size), coboundaries


def cocycle_class(cocycles, coboundaries, direction):
    """The dense reading of an H^1 class: one reduction of the
    columns [B | Z | direction]; None when the direction is no cocycle."""
    columns = list(coboundaries) + list(cocycles) + [tuple(direction)]
    n = len(direction)
    rows, pivots = rref([[col[i] for col in columns] for i in range(n)])
    if len(columns) - 1 in pivots:
        return None
    return tuple(rows[r][-1] for r in range(len(coboundaries), len(pivots)))


def d_sum_sign(convention: str, n: int, i: int) -> int:
    """The sign s(n, i) of the i-th D term in the differential out of degree 2n - 1."""
    if convention == "definition":
        return -1 if i % 2 == 0 else 1            # (-1)^(i+1)
    if convention == "complex":
        return -1 if (n + i) % 2 else 1           # (-1)^(n+i)
    raise ValueError(convention)


def assemble(rep, degree: int, convention: str = "definition") -> dict:
    """The coboundary out of degree ``degree`` on all flat cochains, in
    one pass over the output argument tuples: each term of the formula
    reads f at one argument tuple and writes the entries of the matrix
    it applies there (theta, the two theta terms of D, or a bracket
    coefficient)."""
    d, m, bracket = rep.algebra.dim, rep.space_dim, bracket_tensor(rep.algebra)
    theta = [[()] * d for _ in range(d)]
    for i, j, entries in rep.nonzero:
        theta[i][j] = entries
    ident = [(l, l, ONE) for l in range(m)]
    n = (degree + 1) // 2
    signs = [(d_sum_sign(convention, n, i), -1 if (i + n + 1) % 2 else 1) for i in range(1, n + 1)]

    def entries():
        for pos, args in enumerate(product(range(d), repeat=degree + 2)):
            terms = [(args[:-2], theta[args[-2]][args[-1]], 1),
                     (args[:-3] + args[-2:-1], theta[args[-3]][args[-1]], -1)]
            for i, (d_sign, ins_sign) in enumerate(signs, 1):
                a, b = args[2 * i - 2], args[2 * i - 1]
                reduced = args[: 2 * i - 2] + args[2 * i:]
                # D(a, b) = theta(b, a) - theta(a, b)
                terms += [(reduced, theta[b][a], d_sign), (reduced, theta[a][b], -d_sign)]
                for slot in range(2 * i - 2, degree):
                    for lsrc, c in enumerate(bracket[a][b][reduced[slot]]):
                        if c:
                            terms.append((reduced[:slot] + (lsrc,) + reduced[slot + 1:], ident, ins_sign * c))
            for args_in, mat, sign in terms:
                base = flat_arg_index(args_in, d) * m
                for r, c, a in mat:
                    yield base + c, pos * m + r, sign * a

    return _columns(entries())


def audit(rep) -> dict[str, bool]:
    """Does d_3 d_1 vanish, per sign convention, with d_3 assembled
    once for each convention?"""
    images = assemble(rep, 1).values()
    d3 = {c: assemble(rep, 3, c) for c in SIGN_CONVENTIONS}
    return {c: not any(_apply(d3[c], col) for col in images) for c in SIGN_CONVENTIONS}


def r1_violations(rep):
    """Witnesses (a, b, c, d), 1-based and in lexicographic order, where
    the dense (R1) matrix

      theta(c,d) theta(a,b) - theta(b,d) theta(a,c)
        - theta(a, [b,c,d]) + D(b,c) theta(a,d)

    is not zero, with each D(b, c) read off ``d_basis``."""
    d = rep.algebra.dim
    th, br, E = theta_tensor(rep), bracket_tensor(rep.algebra), rep.algebra.basis()
    dm = [[rep.d_basis(i, j) for j in range(d)] for i in range(d)]
    out = []
    for a, b, c, dd in product(range(d), repeat=4):
        lhs = (
            th[c][dd] @ th[a][b]
            - th[b][dd] @ th[a][c]
            - rep.theta_vec(E[a], br[b][c][dd])
            + dm[b][c] @ th[a][dd]
        )
        if not lhs.is_zero():
            out.append((a + 1, b + 1, c + 1, dd + 1))
    return out


def r2_violations(rep):
    """Witnesses (a, b, c, d), 1-based and in lexicographic order, where
    the dense (R2) matrix

      theta(c,d) D(a,b) - D(a,b) theta(c,d)
        + theta([a,b,c], d) + theta(c, [a,b,d])

    is not zero."""
    d = rep.algebra.dim
    th, br, E = theta_tensor(rep), bracket_tensor(rep.algebra), rep.algebra.basis()
    dm = [[th[j][i] - th[i][j] for j in range(d)] for i in range(d)]
    out = []
    for a, b, c, dd in product(range(d), repeat=4):
        lhs = (
            th[c][dd] @ dm[a][b]
            - dm[a][b] @ th[c][dd]
            + rep.theta_vec(br[a][b][c], E[dd])
            + rep.theta_vec(E[c], br[a][b][dd])
        )
        if not lhs.is_zero():
            out.append((a + 1, b + 1, c + 1, dd + 1))
    return out


def nijenhuis_defect(L, N, x, y, z):
    """[Nx,Ny,Nz] - N([Nx,Ny,z] + [x,Ny,Nz] + [Nx,y,Nz])
    + N^2([Nx,y,z] + [x,Ny,z] + [x,y,Nz]) - N^3[x,y,z], each term
    applied separately: twelve applications of N per triple."""
    E = (basis_vector(L.dim, x), basis_vector(L.dim, y), basis_vector(L.dim, z))
    Nx, Ny, Nz = N.column(x), N.column(y), N.column(z)
    lhs = L.bracket_eval(Nx, Ny, Nz)
    acc = list(N.apply(L.bracket_eval(Nx, Ny, E[2])))
    for term in (L.bracket_eval(E[0], Ny, Nz), L.bracket_eval(Nx, E[1], Nz)):
        t = N.apply(term)
        for l in range(L.dim):
            acc[l] += t[l]
    for term in (
        L.bracket_eval(Nx, E[1], E[2]),
        L.bracket_eval(E[0], Ny, E[2]),
        L.bracket_eval(E[0], E[1], Nz),
    ):
        t = N.apply(N.apply(term))
        for l in range(L.dim):
            acc[l] -= t[l]
    given = {(i, j, k): vec for i, j, k, vec in L.nonzero}
    t = N.apply(N.apply(N.apply(given.get((x, y, z), zero_vector(L.dim)))))
    for l in range(L.dim):
        acc[l] += t[l]
    return vec_sub(lhs, tuple(acc))


def semidirect_bracket(a, weight, x1, u1, x2, u2, x3, u3):
    """[(x1,u1),(x2,u2),(x3,u3)] on L (+) L' for the action and weight,
    one triple of vectors at a time, as the package first evaluated it.
    Its L' part

      D(x1,x2)u3 + theta(x2,x3)u1 - theta(x1,x3)u2 + weight [u1,u2,u3]'

    is contracted in one pass over the nonzero entries of the
    theta(e_i, e_j): the entry (row, col, value) of theta(e_i, e_j)
    adds value * (c3 u3[col] + c1 u1[col] - c2 u2[col]) to the row,
    with c3 = x2_i x1_j - x1_i x2_j, c1 = x2_i x3_j and c2 = x1_i x3_j.
    """
    L, Lp, rep = a.algebra, a.target, a.rep
    part_l = L.bracket_eval(x1, x2, x3)
    part_p = [weight * v for v in Lp.bracket_eval(u1, u2, u3)]
    cols = [col for col in range(Lp.dim) if u1[col] or u2[col] or u3[col]]
    for i, j, entries in rep.nonzero:
        c3 = x2[i] * x1[j] - x1[i] * x2[j]
        c1 = x2[i] * x3[j]
        c2 = x1[i] * x3[j]
        if c3 or c1 or c2:
            combo = {col: c3 * u3[col] + c1 * u1[col] - c2 * u2[col] for col in cols}
            for r, col, val in entries:
                if s := combo.get(col):
                    part_p[r] += val * s
    return part_l, tuple(part_p)


def projected_bracket(rbo, a, b, c):
    """x - Tp for (x, p) the semidirect bracket of three (x, u) pairs."""
    x, p = semidirect_bracket(rbo.action, rbo.weight, *a, *b, *c)
    return vec_sub(x, rbo.T.apply(p))


def induced_theta(rbo):
    """theta_T as first built: theta_T(u, v) has the column x the
    projected bracket of (x,0), (Tu,u), (Tv,v), one triple at a time."""
    T, d, dp = rbo.T, rbo.ambient.dim, rbo.source.dim
    graph = [(T.column(u), basis_vector(dp, u)) for u in range(dp)]
    plain = [(basis_vector(d, x), zero_vector(dp)) for x in range(d)]
    return tuple(
        tuple(
            Matrix.from_columns([projected_bracket(rbo, ex, graph[u], graph[v]) for ex in plain], d)
            for v in range(dp)
        )
        for u in range(dp)
    )


def verify_action(a):
    """The action conditions on every theta(e_i, e_j) and every column,
    over the dense matrices: each column lies in the target's center and
    each nonzero bracket of the target is killed."""
    out = []
    d, dp = a.rep.algebra.dim, a.target.dim
    ctr, th = center(a.target), theta_tensor(a.rep)
    for i, j in product(range(d), repeat=2):
        mat = th[i][j]
        for u in range(dp):
            if not ctr.contains(mat.column(u)):
                out.append(Violation("image-in-center", (i + 1, j + 1, u + 1)))
        for u, v, w, vec in a.target.nonzero:
            if any(mat.apply(vec)):
                out.append(Violation("kills-brackets", (i + 1, j + 1, u + 1, v + 1, w + 1)))
    return tuple(out)


def d_t_gaps(rbo):
    """{(u, v): direct - derived} for every basis pair of L', as dense
    matrices over the ambient space: ``direct`` is the projected bracket
    of (Tu,u), (Tv,v), (x,0) and ``derived`` is theta_T(v,u) - theta_T(u,v),
    with theta_T(u,v)x the projected bracket of (x,0), (Tu,u), (Tv,v).
    The induced representation used to compare exactly these; (RB) is
    not needed to form them."""
    T, d, dp = rbo.T, rbo.ambient.dim, rbo.source.dim
    graph = [(T.column(u), basis_vector(dp, u)) for u in range(dp)]
    plain = [(basis_vector(d, x), zero_vector(dp)) for x in range(d)]
    theta_t = induced_theta(rbo)
    gaps = {}
    for u, v in product(range(dp), repeat=2):
        direct = Matrix.from_columns([projected_bracket(rbo, graph[u], graph[v], ex) for ex in plain], d)
        gaps[u, v] = direct - (theta_t[v][u] - theta_t[u][v])
    return gaps


def cochain_coeffs(f):
    """The ``coeffs`` of ``fileio.cochain_to_json(f)``: the wedge
    coordinates in degree -1, else lists nested one level per argument,
    with the value vector ``f.value(args)`` at each full argument
    tuple."""
    if f.degree == -1:
        return [format_scalar(x) for x in f.coeffs]

    def build(prefix):
        if len(prefix) == f.degree:
            return [format_scalar(x) for x in f.value(prefix)]
        return [build(prefix + (i,)) for i in range(f.source_dim)]

    return build(())
