"""Reproducible random sampling runs over the Nash digraphs.

Cones and semigroups are drawn by rejection sampling of uniform integer
generator matrices; each accepted object is explored to completion or
budget, sharing one store so repeated descendants are not recomputed.
"""

import random
import time
from dataclasses import dataclass, field

from .canonical import canonical_cone
from .cones import Cone
from .errors import InputError
from .linalg import check_characteristic, int_tuple
from .semigroups import AffineSemigroup
from .digraph import MODES, Complete, DigraphStore, _explore, _Prefetcher, check_budgets
from .digraph import find_cycles, vertex_key

DISTRIBUTION = "uniform entries with rejection (pointed, full rank)"


@dataclass
class SampleSummary:
    mode: str
    characteristic: int
    rank: int
    count: int
    seed: int
    entry_bound: int
    distribution: str = DISTRIBUTION
    max_vertices: int = 0
    max_seconds: float = 0.0
    resolved: int = 0
    budget_exhausted: int = 0
    cycles_found: int = 0
    store_vertices: int = 0
    elapsed_seconds: float = 0.0
    items: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d.pop("items")
        return d


def _random_columns(rng: random.Random, n: int, entry_bound: int) -> list:
    """n to n + 2 columns in Z^n, entries uniform in +-entry_bound."""
    m = rng.randint(n, n + 2)
    return [
        tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n))
        for _ in range(m)
    ]


def _random_cone(rng: random.Random, n: int, entry_bound: int) -> Cone:
    while True:
        cols = _random_columns(rng, n, entry_bound)
        if any(not any(c) for c in cols):
            continue
        C = Cone(cols)
        if C.is_pointed() and C.is_full_dimensional():
            return C


def _random_semigroup(rng: random.Random, n: int, entry_bound: int) -> AffineSemigroup:
    while True:
        cols = [c for c in _random_columns(rng, n, entry_bound) if any(c)]
        if len(cols) < n:
            continue
        C = Cone(cols)
        if not (C.is_full_dimensional() and C.is_pointed()):
            continue
        S = AffineSemigroup(cols)
        if S.is_full_lattice():
            return S


def sample_random(
    rank_: int,
    mode: str,
    count: int,
    seed: int,
    entry_bound: int,
    *,
    characteristic: int = 0,
    max_vertices: int = 50_000,
    max_seconds: float = 600.0,
    threads: int = 1,
    store: DigraphStore | None = None,
) -> SampleSummary:
    """Explore `count` random rank-n cones (normalized mode) or semigroups
    (nash mode); fully reproducible from the seed.  threads worker processes,
    started once for the whole call, compute the children of the keys that
    each exploration offers, all keys it will take; the store and the
    summary, but for the elapsed time, are the same for every thread count."""
    check_budgets(max_vertices, max_seconds, threads)
    rank_, count, entry_bound = int_tuple((rank_, count, entry_bound))
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if rank_ not in (2, 3, 4, 5):
        raise InputError("rank must be one of 2, 3, 4, 5")
    if entry_bound < 1:
        raise InputError("entry_bound must be >= 1")
    if count < 0:
        raise InputError("count must be nonnegative")
    characteristic = check_characteristic(characteristic)
    settings = (mode, characteristic, rank_)
    if store is not None and (store.mode, store.characteristic, store.rank) != settings:
        raise InputError(f"store (mode, characteristic, rank) differs from {settings}")
    summary = SampleSummary(
        mode=mode,
        characteristic=characteristic,
        rank=rank_,
        count=count,
        seed=seed,
        entry_bound=entry_bound,
        max_vertices=max_vertices,
        max_seconds=max_seconds,
    )
    if count == 0:
        return summary
    rng = random.Random(seed)
    if store is None:
        store = DigraphStore(mode, characteristic, rank_)
    start = time.monotonic()
    with _Prefetcher(store, threads) as ahead:
        for _ in range(count):
            if mode == "nash":
                obj = key = vertex_key(store, _random_semigroup(rng, rank_, entry_bound))
            else:
                # A second canonicalization, answered from the cone's cache, kept
                # because perfbench's tracer self-test reads sampling.canonical_cone.
                obj = _random_cone(rng, rank_, entry_bound)
                key = canonical_cone(obj)[0].serialization
            done = isinstance(_explore(store, obj, max_vertices, max_seconds, ahead), Complete)
            summary.items.append((key, "resolved" if done else "budget-exhausted"))
    summary.resolved = sum(status == "resolved" for _, status in summary.items)
    summary.budget_exhausted = count - summary.resolved
    summary.cycles_found = len(find_cycles(store))
    summary.store_vertices = store.vertex_count()
    summary.elapsed_seconds = round(time.monotonic() - start, 3)
    return summary
