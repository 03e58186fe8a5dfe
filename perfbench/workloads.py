"""The workloads of the nashtoric benchmark and the checks on their outputs.

Each workload turns the benchmark seed into its inputs (``build_*``) and
runs one pass over them (``run_*``).  A pass creates every ``Cone``,
``AffineSemigroup`` and ``DigraphStore`` it uses, so no cached Hilbert
basis, ray set or canonical key carries from one pass to the next.  Calls
into the package go through module attributes (``blowup.nash_children``,
not a name imported from it), so that a tracer that patches those
attributes sees them.

Every call carries an explicit budget, and every pass checks its outputs
against values pinned at the default seed.  The pinned values do not depend
on the seed: the fixture workloads only change coordinates, and the sample
of nash-sample is fixed (see ``SAMPLE_SEED``).
"""

import hashlib
import os
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from nashtoric import blowup, canonical, cones, digraph, sampling

# Fixture generator columns (columns are generators of a cone in M).
RUNNING_COLS = [(-2, 5, 1, 2), (-1, 3, 2, -1), (5, 4, -1, 1), (0, -1, 1, 2), (0, 1, 4, 0), (5, 1, -2, -2)]
LOOP4_COLS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 3, -2, -1), (1, 3, -1, -1)]
LOOP5_COLS = [
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (2, 2, -1, 1, -2),
    (1, 2, -1, 1, -1),
    (1, 2, 0, 0, -1),
]

# The Nash sample is drawn from this seed whatever the benchmark seed is.
# Sample cost is heavy-tailed in the sampling seed (60 objects took 4.7 s
# at this seed and 6.8 s to 159 s at seeds 0-4 on a 2-core x86-64 box), so
# a seed-dependent sample would make wall time unsteady and could overrun
# a run.  This is the seed of the acceptance suite's sampling criterion.
SAMPLE_SEED = 20260810

# Budgets: far above what each call needs, so that only a runaway trips.
MAX_BASES = 5_000_000
MAX_VERTICES = 100_000
MAX_SECONDS = 120.0
THREADS = 2

# Store round trips per pass; resume_s is their median.
ROUND_TRIPS = 10

# Outputs pinned at the default seed, identical for every seed.
EXPECTED = {
    "normalized-step": {
        # label: (number of children, sha256 of their sorted keys)
        "RUNNING p=2": (100, "7acb71d1a9a7e0b440ae323fcb725d2b5b5117a9b5c6d326129700a2d10249f3"),
        "LOOP5 p=0": (14, "99578802d060006fa7caa56657c1389c8ac7603e48265ffb0799ca21705d82bb"),
    },
    "explore-loop4": {
        # label: sha256 of the saved store
        "LOOP4 p=2": "b59fc55a099ee05971288b3c3d1136de27f14381020ddf9ff245b4aa8007bbbf",
        "LOOP4 p=3": "381d9b331545d10aed355f452b2d7164c963bb5d4f22b34aa6cd50b1c749de16",
        "reeves(3,1) p=0": "90237aff47b1940ed7bce4a735ee64103704b0188ba2e73c4afb3870c6cabce2",
        "reeves(3,2) p=0": "fe357e4b1b22dbbdb62ffba018b36b616ab1565c41053a216725eefef47e866a",
        "reeves(3,3) p=0": "abfd708b4cf782134d100b8fcf47fab5523af42f7d34a0bc45e839110711c036",
        "reeves(3,4) p=0": "fa82ca09d2afe6cb840804b4b7b9a1e9708cc8e33be70974c9e025e418d6166e",
        "reeves(3,5) p=0": "5bbbfb5b7296ef3294fba0a02a0fefbd97d37239e980d06d23f192da32574798",
        "reeves(3,6) p=0": "717ef13a88e274c84983d1d445c51b2401b009a32189ca8a9430410b50c06cf4",
        "reeves(3,7) p=0": "708b777845ea8c2febe8916ad5de78e3281b5faf0b004293032eb097bbf05334",
        "reeves(3,8) p=0": "28eed64594ea999789ebedf9f94fa781f00cd58c499638b32606b7eef626de29",
        "reeves(3,9) p=0": "15869f9d7faa17c1575c5e464ccb0f40c92c7cfacb0f53631c863e51111d6774",
        "reeves(3,10) p=0": "b124b56e26aa3560736078ac08e2cba5aba5b6fa9bfad0bac8f854af5e02b963",
        "reeves(3,11) p=0": "9810b137ed9f42b9c3ace8cd96127a628943483775f882aa0615b7969809d003",
        "reeves(3,12) p=0": "46dd72cc90d194ca2a0ec29a8442f9417da66d086c8ce44ff6c82bd9065a100e",
    },
    "nash-sample": {
        "resolved": 60,
        "budget_exhausted": 0,
        "cycles_found": 0,
        "store_vertices": 1377,
        "store_digest": "8c84f4a7d36e61168c955788e4c47650dd716acb8f9189786eb3348a62497ea2",
    },
}


def random_unitriangular(n: int, rng: random.Random) -> list[list[int]]:
    """A random lower unitriangular integer matrix, entries in [-2, 2].

    It is unimodular, and it keeps the lexicographic order of vectors: the
    first coordinate where two vectors differ changes by the same amount in
    both.  The package sorts rays, points and generators lexicographically,
    so every search and enumeration visits its cases in the same order for
    every seed, and the work of a pass does not depend on the seed.  (A
    general unimodular change reorders the rays; the canonical search of
    normalized-step then ranged from 118,612 to 751,063 nodes over three
    seeds.)"""
    return [[1 if j == i else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]


def change_coordinates(cols, rng: random.Random) -> list[tuple[int, ...]]:
    """The columns mapped by a random unitriangular matrix drawn from rng."""
    U = random_unitriangular(len(cols[0]), rng)
    return [tuple(sum(a * x for a, x in zip(row, c)) for row in U) for c in cols]


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """Operations attempted in a pass and the ones that failed.

    An exception, a tripped budget and an output mismatch all fail the
    operation; each operation counts once however many checks it fails."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def attempt(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, not a failed run
            traceback.print_exc(file=sys.stderr)
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, label, ok: bool, message: str) -> None:
        if not ok:
            self.fail(label, message)

    def fail(self, label, message):
        self.failed.add(label)
        self.problems.append(f"{label}: {message}")


@dataclass
class PassResult:
    wall_s: float
    expansions: int
    resume_s: list
    tally: Tally

    @property
    def expansions_per_s(self) -> float:
        return self.expansions / self.wall_s


def _same_store(a, b) -> bool:
    fields = ("mode", "characteristic", "rank", "vertices", "edges")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def _expansions(store) -> int:
    """Vertices whose children were computed: all but the unimodular one."""
    return sum(1 for k in store.vertices if k != store.epsilon and store.is_expanded(k))


def _resume(entries, tmpdir, tally) -> tuple[list, dict]:
    """Round-trip each store ROUND_TRIPS times: save it, load it back, check
    that it equals the saved one and that re-exploring the loaded store
    adds nothing.  entries holds (label, store, reexplore) triples, where
    reexplore(loaded) is true when the loaded store came through unchanged.

    Returns the time of each round over all stores, and the saved bytes of
    each store by label."""
    path = os.path.join(tmpdir, "store.jsonl")
    times, saved = [], {}
    for round_ in range(1, ROUND_TRIPS + 1):
        start = perf_counter()
        for label, store, reexplore in entries:
            op = f"resume {label} #{round_}"

            def trip():
                store.save(path)
                loaded = digraph.DigraphStore.load(path)
                ok = _same_store(loaded, store) and reexplore(loaded)
                with open(path, "rb") as fh:
                    return ok, fh.read()

            out = tally.attempt(op, trip)
            if out is not None:
                ok, saved[label] = out
                tally.check(op, ok, "the store changed in the round trip")
        times.append(perf_counter() - start)
    return times, saved


# -- normalized-step --------------------------------------------------------


def build_normalized_step(seed: int):
    rng = random.Random(seed)
    return [
        ("RUNNING p=2", 2, change_coordinates(RUNNING_COLS, rng)),
        ("LOOP5 p=0", 0, change_coordinates(LOOP5_COLS, rng)),
    ]


def run_normalized_step(inputs, tmpdir, expected) -> PassResult:
    """One blowup step as ``nashtoric children`` runs it: the normalized
    Nash children of each fixture and the canonical key of each child.
    The children are then recorded in a store under the parent's key; the
    resume re-expands the parent from the loaded store."""
    tally = Tally()
    start = perf_counter()
    entries = []
    for label, p, cols in inputs:

        def step():
            kids = blowup.normalized_nash_children(cones.Cone(cols), p, max_bases=MAX_BASES)
            return [canonical.canonical_cone(k)[0] for k in kids]

        keys = tally.attempt(label, step)
        if keys is None:
            continue
        count, want = expected[label]
        got = digest("\n".join(sorted(k.serialization for k in keys)))
        tally.check(label, len(keys) == count, f"{len(keys)} children, expected {count}")
        tally.check(label, got == want, f"children digest {got}, expected {want}")

        store = digraph.DigraphStore("normalized", p, len(cols[0]))
        parent = canonical.canonical_cone(cones.Cone(cols))[0]
        store.add_vertex(parent.serialization, parent.matrix)
        for k in keys:
            store.add_vertex(k.serialization, k.matrix)
            store.add_edge(parent.serialization, k.serialization)
        children = tuple(sorted({k.serialization for k in keys}))

        def reexplore(loaded, parent=parent.serialization, children=children):
            return digraph.expand(loaded, parent) == children

        entries.append((label, store, reexplore))
    steps = len(entries)
    resume_times, _ = _resume(entries, tmpdir, tally)
    wall = perf_counter() - start
    return PassResult(wall, steps, resume_times, tally)


# -- explore-loop4 ----------------------------------------------------------


def build_explore_loop4(seed: int):
    rng = random.Random(seed)
    starts = [
        ("LOOP4 p=2", 2, change_coordinates(LOOP4_COLS, rng)),
        ("LOOP4 p=3", 3, change_coordinates(LOOP4_COLS, rng)),
    ]
    for j in range(1, 13):
        reeves = blowup.reeves_cone(3, j).generators
        starts.append((f"reeves(3,{j}) p=0", 0, change_coordinates(reeves, rng)))
    return starts


def run_explore_loop4(inputs, tmpdir, expected) -> PassResult:
    """Explore each start cone to completion with a thread pool, then
    resume: round-trip each store and explore again from the start key."""
    tally = Tally()
    start = perf_counter()
    entries = []
    expansions = 0
    for label, p, cols in inputs:
        store = digraph.DigraphStore("normalized", p, len(cols[0]))
        status = tally.attempt(
            label,
            digraph.resolution_subgraph,
            store,
            cones.Cone(cols),
            max_vertices=MAX_VERTICES,
            max_seconds=MAX_SECONDS,
            threads=THREADS,
        )
        if status is None:
            continue
        tally.check(label, isinstance(status, digraph.Complete), f"stopped early: {status}")
        expansions += _expansions(store)
        start_key = canonical.canonical_cone(cones.Cone(cols))[0].serialization

        def reexplore(loaded, start_key=start_key, status=status):
            before = (loaded.vertex_count(), loaded.edge_count())
            again = digraph.resolution_subgraph(
                loaded, start_key, max_vertices=MAX_VERTICES, max_seconds=MAX_SECONDS, threads=THREADS
            )
            return again == status and (loaded.vertex_count(), loaded.edge_count()) == before

        entries.append((label, store, reexplore))
    resume_times, saved = _resume(entries, tmpdir, tally)
    for label, data in saved.items():
        got, want = digest(data), expected[label]
        tally.check(label, got == want, f"store digest {got}, expected {want}")
    wall = perf_counter() - start
    return PassResult(wall, expansions, resume_times, tally)


# -- nash-sample ------------------------------------------------------------


def build_nash_sample(seed: int):
    return SAMPLE_SEED


def run_nash_sample(sample_seed, tmpdir, expected) -> PassResult:
    """The rank-2 Nash sample of 60 semigroups, single-threaded, then a
    resume: round-trip the store and explore again from every sampled key."""
    tally = Tally()
    start = perf_counter()
    store = digraph.DigraphStore("nash", 0, 2)
    label = f"sample seed={sample_seed}"
    summary = tally.attempt(
        label,
        sampling.sample_random,
        2,
        "nash",
        60,
        sample_seed,
        4,
        max_vertices=MAX_VERTICES,
        max_seconds=MAX_SECONDS,
        threads=1,
        store=store,
    )
    if summary is None:
        return PassResult(perf_counter() - start, 0, [], tally)
    for name in ("resolved", "budget_exhausted", "cycles_found", "store_vertices"):
        got, want = getattr(summary, name), expected[name]
        tally.check(label, got == want, f"{name} {got}, expected {want}")
    tally.check(
        label,
        summary.resolved + summary.budget_exhausted == summary.count == len(summary.items),
        "sampled items do not add up to the count",
    )
    keys = sorted({key for key, _ in summary.items})

    def reexplore(loaded):
        before = (loaded.vertex_count(), loaded.edge_count())
        for key in keys:
            status = digraph.resolution_subgraph(
                loaded, key, max_vertices=MAX_VERTICES, max_seconds=MAX_SECONDS, threads=1
            )
            if not isinstance(status, digraph.Complete):
                return False
        return (loaded.vertex_count(), loaded.edge_count()) == before

    resume_times, saved = _resume([(label, store, reexplore)], tmpdir, tally)
    if label in saved:
        got, want = digest(saved[label]), expected["store_digest"]
        tally.check(label, got == want, f"store digest {got}, expected {want}")
    wall = perf_counter() - start
    return PassResult(wall, _expansions(store), resume_times, tally)


# name: (build inputs from the seed, run one pass, threads the pass uses)
WORKLOADS = {
    "normalized-step": (build_normalized_step, run_normalized_step, 1),
    "explore-loop4": (build_explore_loop4, run_explore_loop4, THREADS),
    "nash-sample": (build_nash_sample, run_nash_sample, 1),
}
