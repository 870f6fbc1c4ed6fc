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
coboundary assembled as it first was, by a walk over every output
argument tuple, under either of two printed D-sum signs: Yamaguti's
(-1)^(n+i), the package's one coboundary, and the (-1)^(i+1) of
another printed form.  The sign audit is the product of each form's
d_3 with d_1; it shows that the second form fails d d = 0 on the
adjoint of sl2, which is why the package has the first alone.  It
also keeps the image of a cochain under a differential written into a
dense flat vector and unflattened, and reads the package's
differentials, which are functions of a sparse vector, as columns: their
images of the unit vectors.  It keeps the nested ``coeffs`` of
a cochain file built as they first were, one recursive call per
argument prefix.  It keeps the derivation
axiom (A3) of a system checked at every basis triple of each pair, and
the theta- and D-equivariance of an operator homomorphism as two
separate checks.
Last, it keeps the first-order equivalence conditions of two
deformation directions evaluated at one wedge at a time, through the
dense operators [X,-] and D(X) and dense theta and D matrices.

The package stores a system and a representation only as their nonzero
entries; :func:`brackets` expands each stored bracket to its dense value
vector, and is the one read of a stored bracket's value in the tests.
:func:`bracket_tensor` and :func:`theta_tensor` build the dense views
the oracles and the tests index, and :func:`representation` builds a
representation from such a dense table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from triplekit.cohomology import (
    _apply,
    cochain_space_basis,
    flat_arg_index,
    flatten_cochain,
    unflatten_cochain,
    wedge_pairs,
)
from triplekit.linalg import Matrix, ONE, ZERO, basis_vector, exact_div, format_scalar, vec_sub, zero_vector
from triplekit.lts import center
from triplekit.reporting import Violation
from triplekit.representations import RepresentationData

# the printed D-sum signs: (-1)^(i+1), and Yamaguti's (-1)^(n+i)
SIGN_CONVENTIONS = ("definition", "complex")


# the oracles rebuild these views once per call, often once per triple;
# the views are tuples, so a cached one cannot be changed by a caller
@lru_cache(maxsize=32)
def brackets(L):
    """(i, j, k, value vector) of each stored bracket of L, in stored
    order: its nonzero components (l, c) written into a dense vector."""
    out = []
    for i, j, k, terms in L.nonzero:
        vec = [ZERO] * L.dim
        for l, c in terms:
            vec[l] = c
        out.append((i, j, k, tuple(vec)))
    return tuple(out)


@lru_cache(maxsize=32)
def bracket_tensor(L):
    """The dense table c[i][j][k] = [e_i, e_j, e_k] of the system."""
    given = {(i, j, k): vec for i, j, k, vec in brackets(L)}
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


def _without_zeros(columns: dict) -> dict:
    return {j: nz for j, col in columns.items() if (nz := {i: x for i, x in col.items() if x})}


def columns(differential, size: int) -> dict:
    """The sparse columns of a differential given as a function of a
    sparse vector's flat coordinates: its images of the ``size`` unit
    vectors, the empty ones left out, in the form of :func:`assemble`."""
    return _without_zeros({j: differential({j: ONE}) for j in range(size)})


def cohomology(cx, degree: int):
    """(Z, B) of an operator complex as dense reduced echelon bases: Z
    from the kernel of the dense matrix of the images of the constrained
    basis, on their nonzero rows; B from the dense span of the incoming
    differential's columns.  Both differentials are read as columns, at
    every unit vector."""
    d, dp = cx.rbo.ambient.dim, cx.rbo.source.dim
    size = dp**degree * d
    basis = cochain_space_basis(degree, dp, d).vectors
    differential = columns(cx.differential(degree), size)
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
    incoming = columns(cx.differential(degree - 2), d * (d - 1) // 2 if degree == 1 else dp * d).values()
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


def _columns(entries) -> dict:
    """Sum (column, row, value) entries into a differential: sparse
    columns, the j-th the image of the j-th flat basis cochain."""
    columns = {}
    for j, i, x in entries:
        col = columns.setdefault(j, {})
        col[i] = col.get(i, ZERO) + x
    return _without_zeros(columns)


def d_sum_sign(convention: str, n: int, i: int) -> int:
    """The sign s(n, i) of the i-th D term in the differential out of degree 2n - 1."""
    if convention == "definition":
        return -1 if i % 2 == 0 else 1            # (-1)^(i+1)
    if convention == "complex":
        return -1 if (n + i) % 2 else 1           # (-1)^(n+i)
    raise ValueError(convention)


def assemble(rep, degree: int, convention: str = "complex", d_sum_only: bool = False) -> dict:
    """The coboundary out of degree ``degree`` on all flat cochains, in
    one pass over the output argument tuples: each term of the formula
    reads f at one argument tuple and writes the entries of the matrix
    it applies there (theta, the two theta terms of D, or a bracket
    coefficient).  ``d_sum_only`` keeps the D-sum terms alone."""
    d, m, bracket = rep.algebra.dim, rep.space_dim, bracket_tensor(rep.algebra)
    theta = [[()] * d for _ in range(d)]
    for i, j, entries in rep.nonzero:
        theta[i][j] = entries
    ident = [(l, l, ONE) for l in range(m)]
    n = (degree + 1) // 2
    signs = [(d_sum_sign(convention, n, i), -1 if (i + n + 1) % 2 else 1) for i in range(1, n + 1)]

    def entries():
        for pos, args in enumerate(product(range(d), repeat=degree + 2)):
            terms = [] if d_sum_only else [(args[:-2], theta[args[-2]][args[-1]], 1),
                                           (args[:-3] + args[-2:-1], theta[args[-3]][args[-1]], -1)]
            for i, (d_sign, ins_sign) in enumerate(signs, 1):
                a, b = args[2 * i - 2], args[2 * i - 1]
                reduced = args[: 2 * i - 2] + args[2 * i:]
                # D(a, b) = theta(b, a) - theta(a, b)
                terms += [(reduced, theta[b][a], d_sign), (reduced, theta[a][b], -d_sign)]
                for slot in range(2 * i - 2, degree) if not d_sum_only else ():
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


def image(columns, f):
    """The cochain that the differential with these sparse columns maps
    f to: every coordinate of a dense flat vector, unflattened."""
    ds, dt, degree = f.source_dim, f.target_dim, 1 if f.degree == -1 else f.degree + 2
    flat = [ZERO] * (ds**degree * dt)
    for i, x in _apply(columns, {j: x for j, x in enumerate(flatten_cochain(f)) if x}).items():
        flat[i] = x
    return unflatten_cochain(degree, ds, dt, tuple(flat))


def derivation_violations(L):
    """The (A3) witnesses (a, b, c, d, e), 1-based and in lexicographic
    order, where [a,b,[c,d,e]] != [[a,b,c],d,e] + [c,[a,b,d],e] +
    [c,d,[a,b,e]], checked at every basis triple (c, d, e) of each
    pair (a, b) with a nonzero bracket."""
    d, br, E = L.dim, bracket_tensor(L), L.basis()
    out = []
    for a, b in sorted({(i, j) for i, j, _k, _v in L.nonzero}):
        for c, dd, e in product(range(d), repeat=3):
            lhs = L.bracket_eval(E[a], E[b], br[c][dd][e])
            r1 = L.bracket_eval(br[a][b][c], E[dd], E[e])
            r2 = L.bracket_eval(E[c], br[a][b][dd], E[e])
            r3 = L.bracket_eval(E[c], E[dd], br[a][b][e])
            if any(lhs[l] != r1[l] + r2[l] + r3[l] for l in range(d)):
                out.append((a + 1, b + 1, c + 1, dd + 1, e + 1))
    return out


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
    given = {(i, j, k): vec for i, j, k, vec in brackets(L)}
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
        for u, v, w, vec in brackets(a.target):
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


def equivariance_violations(h):
    """The theta- and D-equivariance rows of the operator homomorphism
    h, each checked on its own as they were first written: D(e_i, e_j)
    is theta(e_j, e_i) - theta(e_i, e_j) from the dense table, and the
    pushed side expands each over the columns of psi_L."""
    theta, d, n = theta_tensor(h.source.action.rep), h.source.ambient.dim, h.source.source.dim
    dtab = [[theta[j][i] - theta[i][j] for j in range(d)] for i in range(d)]
    pl, pp = h.psi_L.entries, h.psi_Lprime
    out = []
    for x, y in product(range(d), repeat=2):
        for rule, table in (("theta-equivariance", theta), ("D-equivariance", dtab)):
            pushed = Matrix.zeros(n, n)
            for i, j in product(range(d), repeat=2):
                pushed = pushed + table[i][j].scale(pl[i][x] * pl[j][y])
            if pushed @ pp != pp @ table[x][y]:
                out.append(Violation(rule, (x + 1, y + 1)))
    return out


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


def bracket_operator(L, coeffs):
    """x -> sum c_ij [e_i, e_j, x] as a matrix, for {(i, j): c_ij}."""
    acc = [[ZERO] * L.dim for _ in range(L.dim)]
    for i, j, k, vec in brackets(L):
        if co := coeffs.get((i, j)):
            for l, v in enumerate(vec):
                if v:
                    acc[l][k] += co * v
    return Matrix(L.dim, L.dim, tuple(map(tuple, acc)))


def wedge_bracket_operator(rbo, wedge):
    """[X, -] on the ambient system: x -> sum a_ij [e_i, e_j, x]."""
    return bracket_operator(rbo.ambient, dict(zip(wedge_pairs(rbo.ambient.dim), wedge.coeffs)))


def wedge_d_operator(rbo, wedge):
    """D(X) on the source space: sum a_ij D(e_i, e_j) through the action,
    where theta(e_i, e_j) enters D(e_j, e_i) and, negated, D(e_i, e_j)."""
    coeffs, dp = dict(zip(wedge_pairs(rbo.ambient.dim), wedge.coeffs)), rbo.source.dim
    acc = [[ZERO] * dp for _ in range(dp)]
    for i, j, entries in rbo.action.rep.nonzero:
        if co := coeffs.get((j, i), ZERO) - coeffs.get((i, j), ZERO):
            for r, c, a in entries:
                acc[r][c] += co * a
    return Matrix(dp, dp, tuple(map(tuple, acc)))


def strict_rows(rbo, X):
    """(rule, witness, value) of the strict equivalence rows at the wedge
    X: dense theta and D matrices from theta_vec / d_vec, multiplied by
    the dense D(X) with @, each row flattened row by row."""
    rep, d = rbo.action.rep, rbo.ambient.dim
    bx, dx = wedge_bracket_operator(rbo, X), wedge_d_operator(rbo, X)
    E, theta = rbo.ambient.basis(), theta_tensor(rep)
    out = []
    for x, y in product(range(d), repeat=2):
        for rule, m, op in (
            ("theta-equivariance-order-t", theta[x][y], rep.theta_vec),
            ("D-equivariance-order-t", rep.d_basis(x, y), rep.d_vec),
        ):
            var = dx @ m - op(bx.column(x), E[y]) - op(E[x], bx.column(y)) - m @ dx
            out.append((rule, (x + 1, y + 1), tuple(a for row in var.entries for a in row)))
    return out


def equivalence_conditions(rbo, S1, S2, X, strict):
    """(rule, witness, value, target) for every first-order condition on
    (id + t[X,-], id + t D(X)) carrying T + t S1 onto T + t S2, in report
    order, evaluated at the one wedge X: (E1) T D(X) u - [X, T u] against
    S1 u - S2 u and (E2) [X, S1 u] - S2 D(X) u against 0 at each basis
    vector u, then the strict rows against 0."""
    bx, dx = wedge_bracket_operator(rbo, X), wedge_d_operator(rbo, X)
    delta = rbo.T @ dx - bx @ rbo.T
    out = []
    for u in range(rbo.source.dim):
        s1 = S1.column(u)
        out.append(("intertwining-order-t", (u + 1,), delta.column(u), vec_sub(s1, S2.column(u))))
        e2 = vec_sub(bx.apply(s1), (S2 @ dx).column(u))
        out.append(("compatibility-order-t", (u + 1,), e2, zero_vector(rbo.ambient.dim)))
    zero = zero_vector(rbo.source.dim ** 2)
    return out + [(rule, witness, value, zero) for rule, witness, value in (strict_rows(rbo, X) if strict else ())]
