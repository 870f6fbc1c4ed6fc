"""Seeded random sweeps over candidate operators.

The graph and Nijenhuis characterizations say a linear map satisfies
the Rota-Baxter identity exactly when its graph is a subsystem of the
semidirect product and exactly when its block lift is a Nijenhuis
operator there.  The sweep samples integer-entry maps, evaluates all
three predicates independently and reports any disagreement.  Each
predicate stops at its first failing basis triple.  The graph and
Nijenhuis scans visit the triples (x, y, z) with x != y first, in
:func:`triplekit.lts.skew_first` order, since at (x, x, z) the bracket
of the semidirect product and the Nijenhuis torsion are zero; so most
random maps are rejected at the first triple each scan visits.  The
reports (:func:`triplekit.rota_baxter.check_rbo`,
:func:`triplekit.rota_baxter.nijenhuis_check`) stay lexicographic.
Random entries live in [-3, 3]; fixed seeds keep runs reproducible.
"""

from __future__ import annotations

import random

from .linalg import Matrix, Scalar, StructureError
from .representations import ActionData, semidirect_product
from .rota_baxter import (
    graph_subsystem,
    is_nijenhuis,
    is_rbo,
    nijenhuis_lift,
    RelativeRBO,
)
from .lts import is_subsystem

ENTRY_RANGE = (-3, 3)


def random_integer_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    lo, hi = ENTRY_RANGE
    # built with its shape, so a map with no rows keeps its columns
    return Matrix(rows, cols, tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)))


def equivalence_sweep(
    action: ActionData, weight: Scalar, trials: int = 100, seed: int = 20260808,
    extra_maps=(),
) -> dict:
    """Run the three-way equivalence over seeded random maps.

    ``extra_maps`` lets callers mix known operators into the pool so
    the all-true branch is exercised too.  Returns a summary with the
    number of maps that were operators and the list of disagreeing
    trials (empty unless something is wrong).
    """
    if trials < 0:
        raise StructureError(f"trial count must be nonnegative, got {trials}")
    rng = random.Random(seed)
    ambient = semidirect_product(action, weight)
    d, dp = action.algebra.dim, action.target.dim
    pool = [random_integer_matrix(rng, d, dp) for _ in range(trials)]
    pool.extend(extra_maps)
    operators = 0
    counterexamples = []
    for index, T in enumerate(pool):
        direct = is_rbo(action, weight, T)
        rbo = RelativeRBO(action, weight, T)
        graph = is_subsystem(ambient, graph_subsystem(rbo))
        nijenhuis = is_nijenhuis(ambient, nijenhuis_lift(action, T))
        if direct:
            operators += 1
        if not (direct == graph == nijenhuis):
            counterexamples.append(
                {"trial": index, "identity": direct, "graph": graph, "nijenhuis": nijenhuis}
            )
    return {
        "trials": len(pool),
        "seed": seed,
        "operators_found": operators,
        "counterexamples": len(counterexamples),
        "disagreements": counterexamples,
    }
