import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.linalg import Matrix, SubspaceBasis, basis_vector, vec_is_zero
from triplekit.lts import (
    HomomorphismCandidate,
    LieTripleSystem,
    center,
    derived_algebra,
    is_abelian_subsystem,
    is_homomorphism,
    is_subsystem,
    skew_first,
    verify_lts,
    zero_system,
)
from triplekit.representations import semidirect_product
from triplekit.rota_baxter import is_nijenhuis

import dense_oracle
from conftest import SEEDS, make_sln_lts

F = Fraction


def span(dim, *indices):
    return SubspaceBasis.from_spanning([basis_vector(dim, i) for i in indices], dim)


def test_verify_accepts_fixtures(lts3, lts4):
    assert verify_lts(lts3) == ()
    assert verify_lts(lts4) == ()


def test_sln_tables():
    # sl2 in the basis E, F, H: [[E,F],E] = [H,E] = 2E, [[E,F],F] = -2F,
    # [[H,E],F] = 2H and [[F,E],H] = -[H,H] = 0
    sl2 = make_sln_lts(2)
    c2 = dense_oracle.bracket_tensor(sl2)
    assert c2[0][1][0] == (2, 0, 0)
    assert c2[0][1][1] == (0, -2, 0)
    assert c2[2][0][1] == (0, 0, 2)
    assert c2[1][0][2] == (0, 0, 0)
    assert len(sl2.nonzero) == 12
    sl3 = make_sln_lts(3)
    assert sl3.dim == 8 and verify_lts(sl3) == ()
    # [[E_01, E_10], E_01] = [H_0, E_01] = 2 E_01; [[E_12, E_21], E_01] = [H_1, E_01] = -E_01
    c3 = dense_oracle.bracket_tensor(sl3)
    assert c3[0][2][0] == (2,) + (0,) * 7
    assert c3[3][5][0] == (-1,) + (0,) * 7


def test_verify_accepts_zero_bracket():
    assert verify_lts(zero_system(4)) == ()


def test_verify_rejects_alternating_violation():
    bad = LieTripleSystem.from_entries(3, {(0, 0, 1): (F(0), F(0), F(1))})
    report = verify_lts(bad)
    assert report
    assert any(v.rule == "alternating" and v.witness == (1, 1, 2) for v in report)


def test_verify_reports_all_violations_of_single_flip(lts3):
    # flipping any single structure entry must be caught unless the flip
    # happens to respect every axiom
    rng = random.Random(SEEDS["fuzz"])
    E = list(product(range(3), repeat=3))
    for _ in range(25):
        i, j, k = E[rng.randrange(len(E))]
        l = rng.randrange(3)
        delta = F(rng.choice([1, -1, 2]))
        entries = {}
        for a, b, c, vec in lts3.nonzero:
            entries[(a, b, c)] = vec
        base = entries.get((i, j, k), (F(0),) * 3)
        new = list(base)
        new[l] += delta
        entries[(i, j, k)] = tuple(new)
        mutated = LieTripleSystem.from_entries(3, entries)
        report = verify_lts(mutated)
        # re-derive expectation directly from the axioms by brute force
        expected_clean = _axioms_hold_bruteforce(mutated)
        assert (report == ()) == expected_clean


def _axioms_hold_bruteforce(L):
    E = L.basis()
    d = L.dim
    for a, b in product(range(d), repeat=2):
        if any(L.bracket_eval(E[a], E[a], E[b])):
            return False
    for a, b, c in product(range(d), repeat=3):
        s = [
            x + y + z
            for x, y, z in zip(
                L.bracket_eval(E[a], E[b], E[c]),
                L.bracket_eval(E[b], E[c], E[a]),
                L.bracket_eval(E[c], E[a], E[b]),
            )
        ]
        if any(s):
            return False
    for a, b, c, dd, e in product(range(d), repeat=5):
        lhs = L.bracket_eval(E[a], E[b], L.bracket_eval(E[c], E[dd], E[e]))
        r1 = L.bracket_eval(L.bracket_eval(E[a], E[b], E[c]), E[dd], E[e])
        r2 = L.bracket_eval(E[c], L.bracket_eval(E[a], E[b], E[dd]), E[e])
        r3 = L.bracket_eval(E[c], E[dd], L.bracket_eval(E[a], E[b], E[e]))
        if any(lhs[t] != r1[t] + r2[t] + r3[t] for t in range(d)):
            return False
    return True


def perturbed_sl2():
    """sl2 with [E,F,E] doubled (and its skew partner): still skew and
    cyclic, but (A3) fails."""
    L = make_sln_lts(2)
    entries = {(i, j, k): tuple(2 * x for x in vec) if (i, j, k) in ((0, 1, 0), (1, 0, 0)) else vec
               for i, j, k, vec in L.nonzero}
    return LieTripleSystem.from_entries(L.dim, entries)


@pytest.mark.parametrize("name", ["lts3", "lts4", "sl2_lts", "sl3", "perturbed", "flips"])
def test_derivation_witnesses_match_dense_oracle(name, request):
    # (A3) visits only the triples that a nonzero bracket or K_ab can
    # reach; the oracle checks every basis triple of each pair
    if name == "sl3":
        systems = [make_sln_lts(3)]
    elif name == "perturbed":
        systems = [perturbed_sl2()]
    elif name == "flips":
        rng, lts4 = random.Random(SEEDS["fuzz"]), request.getfixturevalue("lts4")
        systems = []
        for _ in range(10):
            entries = {(i, j, k): vec for i, j, k, vec in lts4.nonzero}
            key = tuple(rng.randrange(4) for _ in range(3))
            vec = list(entries.get(key, (0,) * 4))
            vec[rng.randrange(4)] += rng.choice((1, -1, 2))
            entries[key] = tuple(vec)
            systems.append(LieTripleSystem.from_entries(4, entries))
    else:
        systems = [request.getfixturevalue(name)]
    found = []
    for L in systems:
        got = [v.witness for v in verify_lts(L) if v.rule == "derivation"]
        assert got == dense_oracle.derivation_violations(L)
        found += got
    assert bool(found) == (name in ("perturbed", "flips"))


def test_bracket_eval_examples(lts3):
    e = lts3.basis()
    assert lts3.bracket_eval(e[0], e[1], e[0]) == basis_vector(3, 2)
    assert lts3.bracket_eval(e[0], e[0], e[1]) == (F(0),) * 3
    doubled = tuple(2 * x for x in e[0])
    assert lts3.bracket_eval(doubled, e[1], e[0]) == (F(0), F(0), F(2))



def dense_bracket_eval(L, x, y, z):
    """sum x_i y_j z_k c[i][j][k] over all d^3 triples of the dense tensor."""
    out, c = [F(0)] * L.dim, dense_oracle.bracket_tensor(L)
    for i, j, k in product(range(L.dim), repeat=3):
        for l, val in enumerate(c[i][j][k]):
            out[l] += x[i] * y[j] * z[k] * val
    return tuple(out)


@pytest.mark.parametrize("name", ["lts3", "lts4", "sl2_lts", "rbo4_semidirect"])
def test_bracket_eval_matches_dense_oracle(name, request):
    if name == "rbo4_semidirect":
        rbo4 = request.getfixturevalue("rbo4")
        L = semidirect_product(rbo4.action, rbo4.weight)
    else:
        L = request.getfixturevalue(name)
    rng = random.Random(SEEDS["bracket"])

    def draw(kind):
        # "sparse" zeroes about half of the coordinates, "dense" none
        coords = []
        for _ in range(L.dim):
            zero = kind == "zero" or (kind == "sparse" and rng.random() < 0.5)
            coords.append(F(0) if zero else F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        return tuple(coords)

    nonzero = 0
    for kinds in product(("zero", "sparse", "dense"), repeat=3):
        for _ in range(3):
            x, y, z = map(draw, kinds)
            got = L.bracket_eval(x, y, z)
            assert got == dense_bracket_eval(L, x, y, z), kinds
            nonzero += any(got)
    assert nonzero


def test_derived_algebra(lts3, lts4):
    # oracle: enumerate every basis bracket and span it independently
    def oracle(L):
        E = L.basis()
        vecs = [
            L.bracket_eval(E[i], E[j], E[k])
            for i, j, k in product(range(L.dim), repeat=3)
        ]
        return SubspaceBasis.from_spanning(vecs, L.dim)

    assert derived_algebra(lts3) == oracle(lts3) == span(3, 2)
    assert derived_algebra(lts4) == oracle(lts4) == span(4, 3)
    assert derived_algebra(zero_system(3)).dim == 0


def test_center(lts3, lts4):
    assert center(lts3) == span(3, 2)
    assert center(lts4) == span(4, 2, 3)
    assert center(zero_system(5)).dim == 5


def test_derived_inside_center_for_fixtures(lts3, lts4):
    assert derived_algebra(lts3).is_subspace_of(center(lts3))
    assert derived_algebra(lts4).is_subspace_of(center(lts4))


def test_center_and_derived_invariant_under_basis_permutation(lts3):
    # permute basis (e1,e2,e3) -> (e3,e1,e2) consistently
    perm = [2, 0, 1]  # new index of old basis vector
    entries = {}
    for i, j, k, vec in lts3.nonzero:
        moved = [F(0)] * 3
        for l, x in enumerate(vec):
            moved[perm[l]] = x
        entries[(perm[i], perm[j], perm[k])] = tuple(moved)
    permuted = LieTripleSystem.from_entries(3, entries)
    assert verify_lts(permuted) == ()

    def permute_subspace(s):
        vecs = []
        for v in s.vectors:
            moved = [F(0)] * 3
            for l, x in enumerate(v):
                moved[perm[l]] = x
            vecs.append(tuple(moved))
        return SubspaceBasis.from_spanning(vecs, 3)

    assert center(permuted) == permute_subspace(center(lts3))
    assert derived_algebra(permuted) == permute_subspace(derived_algebra(lts3))


def test_is_subsystem(lts3, lts4):
    assert is_subsystem(lts3, span(3, 0))
    assert is_subsystem(lts4, span(4, 1, 2))
    assert not is_subsystem(lts3, span(3, 0, 1))


def test_is_abelian_subsystem(lts3, lts4):
    assert is_abelian_subsystem(lts3, span(3, 0))
    assert is_abelian_subsystem(lts4, span(4, 1, 2))
    assert not is_abelian_subsystem(lts3, span(3, 0, 1, 2))


def test_is_homomorphism(lts3, rbo3):
    ident = HomomorphismCandidate(lts3, lts3, Matrix.identity(3))
    assert is_homomorphism(ident)
    zero = HomomorphismCandidate(lts3, lts3, Matrix.zeros(3, 3))
    assert is_homomorphism(zero)
    # e3 -> 2 e3 rescaling is not compatible with [e1,e2,e1] = e3
    bad = HomomorphismCandidate(
        lts3, lts3, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    )
    assert not is_homomorphism(bad)


def test_skew_first_moves_the_alternating_triples_last():
    for indices in (range(3), range(3, -1, -1), range(1), range(0)):
        lex = list(product(indices, repeat=3))
        assert list(skew_first(indices)) == [t for t in lex if t[0] != t[1]] + [t for t in lex if t[0] == t[1]]


def test_early_exit_scans_skip_no_triple():
    # [e1, e1, e2] = e3 is not skew, so each negative case below fails
    # only at triples (x, x, z): a scan that skipped x = y would accept
    # it.  Each scan must decide what the lexicographic all(...) over
    # every triple decides.
    L = LieTripleSystem.from_entries(3, {(0, 0, 1): (0, 0, 1)})
    E, Z = L.basis(), zero_system(3)

    def lex_failures(holds, n):
        return [t for t in product(range(n), repeat=3) if not holds(*t)]

    cases = []
    for S in (span(3, 0, 1), span(3, 1, 2), span(3, 0, 1, 2)):
        V = S.vectors

        def bracket(x, y, z):
            return L.bracket_eval(V[x], V[y], V[z])

        cases.append((is_abelian_subsystem(L, S), lex_failures(lambda *t: vec_is_zero(bracket(*t)), len(V))))
        cases.append((is_subsystem(L, S), lex_failures(lambda *t: S.contains(bracket(*t)), len(V))))
    for target, phi in ((Z, Matrix.identity(3)), (L, Matrix.identity(3)), (Z, Matrix.zeros(3, 3))):
        cols = [phi.column(i) for i in range(3)]

        def respects(i, j, k):
            return phi.apply(L.bracket_eval(E[i], E[j], E[k])) == target.bracket_eval(cols[i], cols[j], cols[k])

        cases.append((is_homomorphism(HomomorphismCandidate(L, target, phi)), lex_failures(respects, 3)))
    for N in (Matrix(3, 3, ((0, 0, 0), (0, 0, 0), (0, 0, 1))), Matrix.identity(3)):

        def torsion_vanishes(x, y, z):
            return vec_is_zero(dense_oracle.nijenhuis_defect(L, N, x, y, z))

        cases.append((is_nijenhuis(L, N), lex_failures(torsion_vanishes, 3)))
    for decided, failures in cases:
        assert decided == (not failures)
    negative = [failures for _decided, failures in cases if failures]
    assert len(negative) == 5
    assert all(x == y for failures in negative for x, y, _z in failures)
