"""Seeded inputs and job lists for the benchmark workloads.

Every input that varies between runs is drawn from a fixed pool of
``POOL`` variants per slot.  Variant ``i`` of a slot is generated from
its own ``random.Random("<slot>:<i>")``, so it is the same file for
every seed; the workload seed only chooses which variants a run uses.
That keeps the recorded expected outputs (``expected.json``) complete
for any seed while different seeds still run different inputs.

The triplekit modules are imported inside the functions, not at module
level, because ``run.py`` re-imports the package for every set-up
repetition and the generator must use the fresh modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL = 16
WORKLOADS = ("cohomology", "deformations")
FIXTURES = ("rbo3_P", "rbo4_P")
LADDER = (3, 4, 5, 6)
SWEEPS = ("rbo3_P", "rbo4_P", "ladder5")

# Fixture cohomology (dim Z, dim B, dim H) at weight 1, from the paper's
# worked examples; degree 3 was confirmed once by an independent sympy
# assembly (see test_perfbench.py).
FIXTURE_DIMS = {
    ("rbo3_P", 1): (6, 1, 5),
    ("rbo3_P", 3): (11, 3, 8),
    ("rbo4_P", 1): (12, 0, 12),
    ("rbo4_P", 3): (40, 4, 36),
}

# Maps S : L' -> L with image in these ambient rows that kill these
# source columns stay operators of every weight when added to the
# fixture's projection, so they are deformation directions (cocycles).
OPERATOR_FAMILY = {"rbo3_P": ((0,), (2,)), "rbo4_P": ((1, 2), (3,))}


def basis_dim_closed_form(degree: int, d: int, m: int) -> int:
    """Dimension of the constrained cochain space: skew in slots p, p+1
    and zero cyclic sum over the last three slots, per target coordinate."""
    return m * d ** (degree - 3) * d * (d - 1) * (d + 1) // 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``label`` names the job independently of the
    seed; ``inputs`` are the files in ``argv`` whose bytes key the
    expected output; ``check`` is an optional independent check on the
    parsed stdout."""

    label: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    check: tuple = ()


def _rng(slot: str, index: int) -> random.Random:
    return random.Random(f"{slot}:{index}")


def _nonzero(rng: random.Random) -> Fraction:
    """A small nonzero integer.  Inputs keep a fixed support, so a job's
    cost depends on the seed only through the values, not the sparsity."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def ladder_rbo(n: int):
    """The system [e1,e2,e1] = e_n with the projection onto
    span{e2..e_(n-1)} along span{e1, e_n}, at weight 1."""
    from triplekit.linalg import SubspaceBasis, basis_vector
    from triplekit.lts import LieTripleSystem
    from triplekit.representations import self_action
    from triplekit.rota_baxter import RelativeRBO, projection_rbo

    top = basis_vector(n, n - 1)
    L = LieTripleSystem.from_entries(
        n, {(0, 1, 0): top, (1, 0, 0): tuple(-x for x in top)}
    )
    target = SubspaceBasis.from_spanning([basis_vector(n, i) for i in range(1, n - 1)], n)
    complement = SubspaceBasis.from_spanning([basis_vector(n, 0), top], n)
    return RelativeRBO(self_action(L), Fraction(1), projection_rbo(L, target, complement))


def fixture_rbo(name: str):
    from triplekit import fileio
    from triplekit.fixtures import fixture_path

    return fileio.load_rbo(fixture_path(name))


class Generator:
    """Builds one workload's inputs in ``directory``; ``pick`` is the
    seeded choice of pool variant for each slot."""

    def __init__(self, directory: Path, pick):
        from triplekit import fileio

        self.fileio = fileio
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pick = pick
        self.rbos: dict[str, object] = {}
        self._bases: dict[str, object] = {}
        self._written: dict[str, str] = {}

    def write(self, name: str, data: dict) -> str:
        """Write a document once, with triplekit's canonical JSON writer;
        returns its path."""
        if name not in self._written:
            path = self.directory / f"{name}.json"
            path.write_bytes(self.fileio.dump_json(data).encode("utf-8"))
            self._written[name] = str(path)
        return self._written[name]

    def rbo(self, name: str):
        if name not in self.rbos:
            if name.startswith("ladder"):
                self.rbos[name] = ladder_rbo(int(name[len("ladder"):]))
            else:
                self.rbos[name] = fixture_rbo(name)
        return self.rbos[name]

    def rbo_file(self, name: str) -> str:
        return self.write(name, self.fileio.rbo_to_json(self.rbo(name)))

    # -- cochains -----------------------------------------------------------

    def cochain1(self, name: str, index: int):
        """Random integer degree-1 cochain L' -> L."""
        from triplekit.cohomology import cochain_from_map
        from triplekit.linalg import Matrix

        rbo, rng = self.rbo(name), _rng(f"cochain1-{name}", index)
        d, dp = rbo.ambient.dim, rbo.source.dim
        return cochain_from_map(Matrix.from_rows([[_nonzero(rng) for _ in range(dp)] for _ in range(d)]))

    def cochain3(self, name: str, index: int):
        """Degree-3 cochain inside the constrained space: a combination
        of every vector of ``cochain_space_basis`` with nonzero integer
        coefficients (``coh coboundary`` accepts tensors outside it)."""
        from triplekit.cohomology import cochain_space_basis, unflatten_cochain

        rbo, rng = self.rbo(name), _rng(f"cochain3-{name}", index)
        d, dp = rbo.ambient.dim, rbo.source.dim
        if name not in self._bases:
            self._bases[name] = cochain_space_basis(3, dp, d)
        basis = self._bases[name]
        flat = [Fraction(0)] * basis.ambient_dim
        for vec in basis.vectors:
            c = _nonzero(rng)
            for t, x in enumerate(vec):
                if x:
                    flat[t] += c * x
        return unflatten_cochain(3, dp, d, tuple(flat))

    def direction(self, name: str, kind: str, index: int):
        """Deformation direction of the given kind: ``cocycle`` from the
        operator family, ``random`` integer map, or ``coboundary`` dX."""
        from triplekit.cohomology import Cochain, cochain_from_map, delta_wedge
        from triplekit.linalg import Matrix

        rbo, rng = self.rbo(name), _rng(f"{kind}-{name}", index)
        d, dp = rbo.ambient.dim, rbo.source.dim
        if kind == "random":
            return self.cochain1(name, index)
        if kind == "cocycle":
            image, killed = OPERATOR_FAMILY[name]
            rows = [
                [_nonzero(rng) if r in image and c not in killed else Fraction(0) for c in range(dp)]
                for r in range(d)
            ]
            return cochain_from_map(Matrix.from_rows(rows))
        if kind == "coboundary":
            coeffs = tuple(_nonzero(rng) for _ in range(d * (d - 1) // 2))
            return delta_wedge(rbo, Cochain(-1, dp, d, coeffs))
        raise ValueError(kind)

    def cochain_file(self, tag: str, f) -> str:
        return self.write(tag, self.fileio.cochain_to_json(f))


def _add(f, g):
    from triplekit.cohomology import Cochain

    return Cochain(f.degree, f.source_dim, f.target_dim, tuple(
        tuple(a + b for a, b in zip(u, v)) for u, v in zip(f.coeffs, g.coeffs)
    ))


def _slots(gen: Generator, slot: str, count: int):
    """``count`` seeded pool indices for one slot."""
    return [gen.pick(slot) for _ in range(count)]


def cohomology_jobs(gen: Generator) -> list[Job]:
    jobs = []
    for name in FIXTURES:
        path = gen.rbo_file(name)
        for degree in (1, 3):
            jobs.append(Job(
                f"coh group {name} --degree {degree}",
                ("coh", "group", path, "--degree", str(degree)), (path,),
                ("dims", FIXTURE_DIMS[(name, degree)]),
            ))
    for n in (5, 6):
        path = gen.rbo_file(f"ladder{n}")
        jobs.append(Job(f"coh group ladder{n} --degree 1", ("coh", "group", path, "--degree", "1"), (path,)))
    for n in LADDER:
        jobs.append(Job(
            f"coh basis --degree 3 n={n}",
            ("coh", "basis", "--degree", "3", "--source-dim", str(n), "--target-dim", str(n)), (),
            ("basis_dim", basis_dim_closed_form(3, n, n)),
        ))
    # Seven degree-3 cochains per fixture: the tail (11th slowest of 34
    # jobs) then falls inside the group of rbo4_P degree-3 applications,
    # not at its edge, where the seed's draw alone would move it.
    for name in FIXTURES:
        path = gen.rbo_file(name)
        for degree, make, count in ((1, gen.cochain1, 5), (3, gen.cochain3, 7)):
            for i in _slots(gen, f"coboundary{degree}-{name}", count):
                f = gen.cochain_file(f"{name}-cochain{degree}-{i}", make(name, i))
                jobs.append(Job(
                    f"coh coboundary {name} degree {degree}",
                    ("coh", "coboundary", path, f), (path, f),
                ))
    return jobs


def deformation_jobs(gen: Generator) -> list[Job]:
    jobs = []
    for name in FIXTURES:
        path = gen.rbo_file(name)
        kinds = ("cocycle", "random", "coboundary") if name == "rbo3_P" else ("cocycle", "random")
        # Three directions per kind: the median and the tail of the 86
        # jobs then fall inside groups of like jobs (def class on rbo3_P
        # and on rbo4_P cocycles), not at a group's edge.
        for kind in kinds:
            for i in _slots(gen, f"{kind}-{name}", 3):
                s = gen.cochain_file(f"{name}-{kind}-{i}", gen.direction(name, kind, i))
                for sub in (("def", "check"), ("def", "class"), ("def", "trivial"),
                            ("def", "trivial", "--strict"), ("coh", "cocycle")):
                    argv = sub[:2] + (path, s) + sub[2:]
                    jobs.append(Job(f"{' '.join(sub)} {name} {kind}", argv, (path, s)))
        # rbo3_P pairs a cocycle with itself plus a coboundary, so the
        # witness search succeeds; rbo4_P has B^1 = 0 and pairs two cocycles
        second = "coboundary" if name == "rbo3_P" else "cocycle"
        for i in _slots(gen, f"equiv-{name}", 2):
            s1 = gen.direction(name, "cocycle", i)
            s2 = gen.direction(name, second, i + POOL)
            if second == "coboundary":
                s2 = _add(s1, s2)
            f1 = gen.cochain_file(f"{name}-cocycle-{i}", s1)
            f2 = gen.cochain_file(f"{name}-equiv-{i}", s2)
            for strict in ((), ("--strict",)):
                jobs.append(Job(
                    f"def equiv{' --strict' if strict else ''} {name}",
                    ("def", "equiv", path, f1, f2) + strict, (path, f1, f2),
                ))
    # seeded random candidates: rejected at their first failing triple
    for name in SWEEPS:
        path = gen.rbo_file(name)
        for i in _slots(gen, f"sweep-{name}", 1):
            seed = _rng("sweep", i).randrange(1 << 30)
            jobs.append(Job(
                f"rbo equivalence {name}",
                ("rbo", "equivalence", path, "--trials", "20", "--seed", str(seed)), (path,),
            ))
    return jobs


JOB_LISTS = {
    "cohomology": cohomology_jobs,
    "deformations": deformation_jobs,
}


def build_jobs(workload: str, directory: Path, seed: int):
    """Generate the inputs of one workload for ``seed``; returns the jobs
    and the (dim L, dim L') of each operator they use."""
    rng = random.Random(f"{workload}:{seed}")
    gen = Generator(directory, lambda slot: rng.randrange(POOL))
    jobs = JOB_LISTS[workload](gen)
    # Spread the jobs of each kind over the pass, in an order fixed per
    # workload, so that each kind is timed at many moments of a run and
    # a short slow spell of a shared machine does not hit all of them.
    random.Random(f"order:{workload}").shuffle(jobs)
    dims = {name: [rbo.ambient.dim, rbo.source.dim] for name, rbo in sorted(gen.rbos.items())}
    return jobs, dims


def build_all_variants(workload: str, directory: Path) -> list[Job]:
    """Every job any seed can produce: each slot walks through the whole
    pool.  Used to record ``expected.json``."""
    jobs: dict[tuple, Job] = {}
    for offset in range(POOL):
        counters: dict[str, int] = {}

        def pick(slot, counters=counters, offset=offset):
            counters[slot] = counters.get(slot, 0) + 1
            return (offset + counters[slot] - 1) % POOL

        gen = Generator(directory, pick)
        for job in JOB_LISTS[workload](gen):
            jobs.setdefault(job.argv, job)
    return list(jobs.values())
