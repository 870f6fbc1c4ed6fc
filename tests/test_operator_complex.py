"""The assembled differentials against the per-cochain evaluator they
replaced.

``evaluate`` and ``evaluate_delta`` are the coboundary and the wedge
coboundary as they were written before the complex was assembled, kept
here as the oracle.  Both are linear, so running them on the generic
cochain, whose k-th flat coordinate is the formal variable x_k, gives
at every output coordinate the linear form that is that row of their
matrix: comparing generic images compares the matrices entry for entry
in one evaluation.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cli import main
from triplekit import cohomology
from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    cochain_from_map,
    coboundary,
    complex_audit,
    induced_rep,
    zero_cochain,
)
from triplekit.deformations import wedge_bracket_operator, wedge_d_operator
from triplekit.fileio import cochain_to_json, dump_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, vec_is_zero
from triplekit.lts import LieTripleSystem, zero_system
from triplekit.representations import ActionData, adjoint_representation
from triplekit.rota_baxter import RelativeRBO

from conftest import SEEDS, ladder
import dense_oracle
from dense_oracle import d_sum_sign
from test_deformations import perturbed_adjoint_operator

F = Fraction


def evaluate(rep, f, sign_convention="definition"):
    """The coboundary of f, evaluated argument tuple by argument tuple."""
    d, m = rep.algebra.dim, rep.space_dim
    n = (f.degree + 1) // 2
    L = rep.algebra
    theta, bracket = dense_oracle.theta_tensor(rep), dense_oracle.bracket_tensor(L)
    dmat = [[rep.d_basis(i, j) for j in range(d)] for i in range(d)]
    out = []
    for args in product(range(d), repeat=f.degree + 2):
        acc = list(theta[args[-2]][args[-1]].apply(f.value(args[:-2])))
        t = theta[args[-3]][args[-1]].apply(f.value(args[:-3] + (args[-2],)))
        for l in range(m):
            acc[l] -= t[l]
        for i in range(1, n + 1):
            reduced = args[: 2 * i - 2] + args[2 * i:]
            sgn = d_sum_sign(sign_convention, n, i)
            t = dmat[args[2 * i - 2]][args[2 * i - 1]].apply(f.value(reduced))
            if sgn > 0:
                for l in range(m):
                    acc[l] += t[l]
            else:
                for l in range(m):
                    acc[l] -= t[l]
            ins_sgn = -1 if (i + n + 1) % 2 else 1
            for jpos in range(2 * i, f.degree + 2):
                w = bracket[args[2 * i - 2]][args[2 * i - 1]][args[jpos]]
                if vec_is_zero(w):
                    continue
                red = list(reduced)
                slot = jpos - 2
                for lsrc in range(d):
                    if w[lsrc]:
                        red[slot] = lsrc
                        t = f.value(tuple(red))
                        coef = w[lsrc] if ins_sgn > 0 else -w[lsrc]
                        for l in range(m):
                            acc[l] += coef * t[l]
        out.append(tuple(acc))
    return Cochain(f.degree + 2, d, m, tuple(out))


def evaluate_delta(rbo, wedge):
    """delta X = T D(X) - [X,-] T through the wedge operators."""
    T = rbo.T
    return cochain_from_map(T @ wedge_d_operator(rbo, wedge) - wedge_bracket_operator(rbo, wedge) @ T)


class Form:
    """An exact linear form sum_k c_k x_k, kept as {k: c_k} without zeros;
    the rational 0 and the empty form are equal."""

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Form):
            assert other == 0
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Form(out)

    __radd__ = __add__

    def __neg__(self):
        return Form({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        return Form({k: c * x for k, x in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return not (self - other)


def generic(degree, source_dim, target_dim):
    """The cochain whose k-th flat coordinate is the variable x_k."""
    if degree == -1:
        return Cochain(-1, source_dim, target_dim, tuple(
            Form({k: 1}) for k in range(target_dim * (target_dim - 1) // 2)
        ))
    return Cochain(degree, source_dim, target_dim, tuple(
        tuple(Form({p * target_dim + l: 1}) for l in range(target_dim))
        for p in range(source_dim**degree)
    ))


@pytest.mark.parametrize("name", ["rbo3", "rbo4", "ladder4"])
def test_operator_differentials_match_evaluator(name, request):
    rbo = ladder(4) if name == "ladder4" else request.getfixturevalue(name)
    cx = OperatorComplex(rbo)
    dp, d = rbo.source.dim, rbo.ambient.dim
    assert cx.apply(generic(-1, dp, d)) == evaluate_delta(rbo, generic(-1, dp, d))
    for degree in (1, 3):
        f = generic(degree, dp, d)
        for convention in ("definition", "complex"):
            assert cx.apply(f, convention) == evaluate(cx.rep, f, convention), (degree, convention)


def random_matrix(rng, rows, cols, density):
    """Signed rationals, each entry nonzero with the given probability."""
    return Matrix(rows, cols, tuple(
        tuple(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) if rng.random() < density else F(0)
              for _ in range(cols))
        for _ in range(rows)
    ))


@pytest.mark.parametrize("name, source_dim", [("lts3", 5), ("lts4", 2), ("perturbed", 4)])
def test_delta_matches_evaluator_on_random_maps(name, source_dim, request):
    # the fixtures' T are diagonal 0/1 projections with d = d', which
    # cannot tell T from its transpose or see a lost T factor; delta
    # needs neither (RB) nor the action identities, so random theta and
    # random rational T of every shape are fair input
    rng = random.Random(SEEDS["delta"])
    L = request.getfixturevalue("lts4" if name == "perturbed" else name)
    T = random_matrix(rng, L.dim, source_dim, 1)
    if name == "perturbed":
        rbo = perturbed_adjoint_operator(L, T)
    else:
        theta = tuple(
            tuple(random_matrix(rng, source_dim, source_dim, 0.5) for _ in range(L.dim)) for _ in range(L.dim)
        )
        action = ActionData(dense_oracle.representation(L, source_dim, theta), zero_system(source_dim))
        rbo = RelativeRBO(action, F(1), T)
    X = generic(-1, source_dim, L.dim)
    assert OperatorComplex(rbo).apply(X) == evaluate_delta(rbo, X)


@pytest.mark.parametrize("name", ["sl2_lts", "lts3", "lts4"])
def test_adjoint_differentials_match_evaluator(name, request):
    adj = adjoint_representation(request.getfixturevalue(name))
    d = adj.space_dim
    for degree in (1, 3):
        f = generic(degree, d, d)
        for convention in ("definition", "complex"):
            assert coboundary(adj, f, convention) == evaluate(adj, f, convention), (degree, convention)


def test_coboundary_matches_evaluator_on_random_cochains(rbo4, sl2_lts):
    rng = random.Random(SEEDS["fuzz"])

    def random_cochain(degree, d, m):
        return Cochain(degree, d, m, tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)) for _ in range(d**degree)
        ))

    adj = adjoint_representation(sl2_lts)
    cases = [(induced_rep(rbo4), 1), (induced_rep(rbo4), 3), (adj, 3), (adj, 5)]
    for rep, degree in cases:
        f = random_cochain(degree, rep.algebra.dim, rep.space_dim)
        for convention in ("definition", "complex"):
            assert coboundary(rep, f, convention) == evaluate(rep, f, convention), (degree, convention)


def test_audit_is_the_product_of_the_assembled_differentials(sl2_lts):
    # d_3 d_1 on the generic degree-1 cochain: zero exactly when the
    # convention closes the complex
    adj = adjoint_representation(sl2_lts)
    f = generic(1, 3, 3)
    closes = {c: coboundary(adj, coboundary(adj, f, c), c).is_zero() for c in ("definition", "complex")}
    assert closes == complex_audit(adj) == {"definition": False, "complex": True}


def test_each_differential_is_assembled_once_per_command(monkeypatch, tmp_path, capsys):
    built = []

    def counting(name):
        inner = getattr(cohomology, name)

        def wrapper(*args):
            built.append((name, *args[1:]))
            return inner(*args)

        return wrapper

    for name in ("_assemble", "_assemble_delta"):
        monkeypatch.setattr(cohomology, name, counting(name))
    op = str(fixture_path("rbo4_P"))
    zero, ident = tmp_path / "zero.json", tmp_path / "ident.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    # the identity direction is not closed on rbo4_P
    ident.write_text(dump_json(cochain_to_json(cochain_from_map(Matrix.identity(4)))))
    s = str(zero)
    # d_3 is assembled once, as the two blocks that both sign
    # conventions combine
    delta, d1, d3 = ("_assemble_delta",), ("_assemble", 1), ("_assemble", 3)
    commands = [
        (("coh", "group", op, "--degree", "3"), [d1, d3], 0),
        (("coh", "group", op, "--degree", "1"), [delta, d1], 0),
        (("coh", "cocycle", op, s), [d1], 0),
        (("coh", "coboundary", op, s), [d1], 0),
        (("def", "check", op, s, "--strict"), [delta, d1], 0),
        (("def", "check", op, str(ident)), [d1], 1),
        (("def", "class", op, s), [delta, d1], 0),
        (("def", "trivial", op, s), [delta], 0),
        (("def", "equiv", op, s, s, "--strict"), [delta], 0),
    ]
    for argv, want, code in commands:
        built.clear()
        assert main(list(argv)) == code, argv
        capsys.readouterr()
        assert sorted(built) == sorted(want), argv
