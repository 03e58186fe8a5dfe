"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to watch them stream).

Criteria 11b (Reeves rho_4(5) descent) and 14 (5D loop cone) are marked
slow as optional checks; everything else runs in the default suite.
"""

import random
import time
from contextlib import contextmanager

import pytest

from nashtoric import (
    AffineSemigroup,
    Complete,
    Cone,
    DigraphStore,
    IntMatrix,
    analyze,
    are_equivalent,
    canonical_cone,
    canonical_semigroup,
    expand,
    find_cycles,
    hilbert_basis,
    nash_children,
    nash_subdivision,
    normalized_nash_children,
    reeves_cone,
    resolution_subgraph,
    sample_random,
)
from nashtoric.digraph import vertex_key

from conftest import (
    A1_COLS,
    A2_COLS,
    A3_COLS,
    CYCLE2_COLS,
    CYCLE2_SEED_COLS,
    LOOP4_COLS,
    LOOP5_COLS,
    RUNNING_COLS,
    WHITNEY_COLS,
    random_pointed_cone,
    random_unimodular,
)
from oracles import (
    bases_by_definition,
    hilbert_basis_oracle_graded,
    semigroups_equivalent_by_search,
)


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS [{time.time() - start:.1f}s]")


def _levels(start, children_of, key_of, depth):
    """Vertices new at each BFS level, as {key: object} dicts."""
    level = {key_of(start): start}
    seen = set(level)
    out = []
    for _ in range(depth):
        nxt = {}
        for obj in level.values():
            for child in children_of(obj):
                k = key_of(child)
                if k not in seen:
                    seen.add(k)
                    nxt[k] = child
        out.append(nxt)
        level = nxt
    return out


def test_criterion_1_cusp_fixed_point():
    with criterion(1, "cusp fixed point"):
        cusp = AffineSemigroup([(2,), (3,)])
        at3 = nash_children(cusp, 3)
        assert len(at3) == 1 and at3[0].generators == ((2,), (3,))
        at0 = nash_children(cusp, 0)
        assert len(at0) == 1 and at0[0].generators == ((1,),)


def test_criterion_2_whitney_umbrella():
    with criterion(2, "Whitney umbrella"):
        children = nash_children(AffineSemigroup(WHITNEY_COLS), 0)
        assert len(children) == 2
        assert all(c.is_unimodular() for c in children)
        got = {canonical_semigroup(c).serialization for c in children}
        want = {
            canonical_semigroup(AffineSemigroup([(1, 0), (-1, 1)])).serialization,
            canonical_semigroup(AffineSemigroup([(0, 1), (1, -1)])).serialization,
        }
        assert got == want


def test_criterion_3_chi_display():
    with criterion(3, "chi display"):
        start = Cone([(1, 0), (3, 5)])
        children = normalized_nash_children(start, 0)
        got = {canonical_cone(c)[0].serialization for c in children}
        want = {
            canonical_cone(Cone(IntMatrix.identity(2)))[0].serialization,
            canonical_cone(Cone([(1, 0), (1, 3)]))[0].serialization,
        }
        assert got == want
        store = DigraphStore("normalized", 0, 2)
        status = resolution_subgraph(store, start)
        assert isinstance(status, Complete)
        assert status.vertex_count == 3


def test_criterion_4_appendix_subdivision():
    from test_blowup import assert_valid_subdivision

    with criterion(4, "appendix subdivision"):
        sigma = Cone([(-1, 2), (3, -1)])
        fan = nash_subdivision(sigma, 0)
        assert {piece.rays for piece in fan} == {
            ((1, 0), (3, -1)),
            ((1, 0), (1, 1)),
            ((-1, 2), (1, 1)),
        }
        assert_valid_subdivision(sigma, fan)


def test_criterion_5_hilbert_scale():
    with criterion(5, "74-element Hilbert basis"):
        start = time.time()
        assert len(hilbert_basis(Cone(RUNNING_COLS))) == 74
        assert time.time() - start < 60


def test_criterion_6_4d_loop():
    with criterion(6, "4D loop counterexample"):
        B = Cone(LOOP4_COLS)
        children = normalized_nash_children(B, 0)
        assert any(are_equivalent(c, B) for c in children)
        store = DigraphStore("normalized", 0, 4)
        expand(store, B)
        key = vertex_key(store, B)
        assert (key, key) in store.edges
        cycles = find_cycles(store)
        assert [key] in cycles


def test_criterion_7_characteristic_stability_and_contrast():
    with criterion(7, "characteristic stability and contrast"):
        B = Cone(LOOP4_COLS)
        H = hilbert_basis(B)
        base = bases_by_definition(H, 0)
        for p in (5, 7):
            assert bases_by_definition(H, p) == base
        for p in (2, 3):
            store = DigraphStore("normalized", p, 4)
            status = resolution_subgraph(store, B, max_vertices=10**5)
            assert isinstance(status, Complete), f"budget exhausted at p={p}"
            assert find_cycles(store) == []


def test_criterion_8a_3d_nash_two_cycle():
    with criterion(8, "3D Nash 2-cycle exists"):
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        hit = False
        for child in nash_children(S, 0):
            for grandchild in nash_children(child, 0):
                if are_equivalent(grandchild, S):
                    hit = True
                    break
            if hit:
                break
        assert hit


def test_criterion_8b_seed_reaches_cycle_within_3_levels():
    # The name records the original claim that the seed meets the 2-cycle
    # within three BFS levels.  For the committed seed the definition of
    # the Nash blowup contradicts it: test_matches_chart_oracle checks the
    # charts of every semigroup at levels 0-3 against the definition, and a
    # brute-force search for unimodular maps, which shares no code with
    # canonical.py, finds no semigroup at levels 1-3 equivalent to either
    # cycle vertex and one at level 4.  Whether the paper's seed or its
    # level count differs is open (ROADMAP.md).
    with criterion(8, "seed first reaches the 2-cycle at BFS level 4"):
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        cycle = [S] + [
            c
            for c in nash_children(S, 0)
            if any(
                semigroups_equivalent_by_search(g.generators, S.generators)
                for g in nash_children(c, 0)
            )
        ]
        assert len(cycle) == 2
        cycle_keys = {canonical_semigroup(c).serialization for c in cycle}
        seed = AffineSemigroup(CYCLE2_SEED_COLS, assume_minimal=True)
        levels = _levels(
            seed,
            lambda s: nash_children(s, 0),
            lambda s: canonical_semigroup(s).serialization,
            4,
        )
        by_keys = [bool(cycle_keys & set(lv)) for lv in levels]
        by_search = [
            any(
                semigroups_equivalent_by_search(g.generators, c.generators)
                for g in lv.values()
                for c in cycle
            )
            for lv in levels
        ]
        assert by_keys == by_search, f"keys {by_keys}, search {by_search}"
        first_hit = next((i + 1 for i, hit in enumerate(by_keys) if hit), None)
        assert first_hit == 4, (
            f"the cycle first appears at BFS level {first_hit}, "
            f"new classes per level {[len(lv) for lv in levels]}"
        )


def test_criterion_9_prescribed_singularities_reach_loop():
    with criterion(9, "prescribed singularities reach the loop"):
        B = Cone(LOOP4_COLS)
        key_b = canonical_cone(B)[0].serialization

        def reach_level(cols, depth):
            levels = _levels(
                Cone(cols),
                lambda c: normalized_nash_children(c, 0),
                lambda c: canonical_cone(c)[0].serialization,
                depth,
            )
            return next(
                (i + 1 for i, lv in enumerate(levels) if key_b in lv), None
            )

        assert reach_level(A2_COLS, 2) == 2
        assert reach_level(A3_COLS, 2) == 2
        assert reach_level(A1_COLS, 4) == 4


def test_criterion_10_analyze_fixtures():
    with criterion(10, "analyze fixtures"):
        r1 = analyze(Cone(A1_COLS))
        assert r1.hypersurface and r1.hilbert_count == 5
        r2 = analyze(Cone(A2_COLS))
        assert r2.cyclic_quotient and r2.invariant_factors == (1, 1, 1, 12)
        r3 = analyze(Cone(A3_COLS))
        assert r3.gorenstein and r3.gorenstein_witness == (1, 1, 1, 1)


def test_criterion_11_reeves_rho3():
    with criterion(11, "Reeves rho_3(j) all resolve"):
        store = DigraphStore("normalized", 0, 3)
        for j in range(1, 13):
            status = resolution_subgraph(store, reeves_cone(3, j))
            assert isinstance(status, Complete), f"rho_3({j}) did not complete"
        assert find_cycles(store) == []


@pytest.mark.slow
def test_criterion_11_optional_rho45_descends_to_loop():
    with criterion(11, "rho_4(5) reaches the loop within 7 levels"):
        B = Cone(LOOP4_COLS)
        key_b = canonical_cone(B)[0].serialization
        levels = _levels(
            reeves_cone(4, 5),
            lambda c: normalized_nash_children(c, 0),
            lambda c: canonical_cone(c)[0].serialization,
            7,
        )
        assert any(key_b in lv for lv in levels)


def test_criterion_12_property_suites(tmp_path):
    rng = random.Random(20260810)
    with criterion(12, "canonical invariance, 1000 transforms"):
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            C = random_pointed_cone(rng, n)
            V = random_unimodular(n, rng)
            C2 = Cone([V.mult_vector(g) for g in C.generators])
            assert canonical_cone(C)[0] == canonical_cone(C2)[0]
    with criterion(12, "dual involution, 500 cones"):
        for _ in range(500):
            C = random_pointed_cone(rng, rng.choice([2, 3]))
            assert C.dual().dual().rays == C.rays
    with criterion(12, "Hilbert oracle, 200 cones"):
        checked = 0
        while checked < 200:
            n = 2 if checked < 150 else 3
            C = random_pointed_cone(rng, n, bound=5, extra=1)
            oracle = hilbert_basis_oracle_graded(
                C.rays, C.facet_normals, coord_cap=60 if n == 2 else 16
            )
            if oracle is None:
                continue
            assert set(hilbert_basis(C)) == oracle
            checked += 1
    with criterion(12, "subdivision/children duality, 100 cones"):
        for _ in range(100):
            sigma = random_pointed_cone(rng, rng.choice([2, 3]), bound=3)
            keys_fan = {
                canonical_cone(piece.dual())[0].serialization
                for piece in nash_subdivision(sigma, 0)
            }
            keys_children = {
                canonical_cone(c)[0].serialization
                for c in normalized_nash_children(sigma.dual(), 0)
            }
            assert keys_fan == keys_children
    with criterion(12, "explorer determinism, 1/2/8 threads"):
        saved = []
        for threads in (1, 2, 8):
            store = DigraphStore("normalized", 3, 4)
            status = resolution_subgraph(store, Cone(LOOP4_COLS), threads=threads)
            assert isinstance(status, Complete)
            path = tmp_path / f"threads{threads}.jsonl"
            store.save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1] == saved[2]


def test_criterion_13_positive_evidence_sampling():
    with criterion(13, "positive-evidence sampling (scaled)"):
        nash_run = sample_random(
            2, "nash", 200, seed=20260810, entry_bound=4,
            max_vertices=200_000, max_seconds=600.0,
        )
        assert nash_run.resolved == 200
        assert nash_run.budget_exhausted == 0
        assert nash_run.cycles_found == 0
        norm_run = sample_random(
            3, "normalized", 100, seed=20260810, entry_bound=5,
            max_vertices=200_000, max_seconds=600.0,
        )
        assert norm_run.resolved == 100
        assert norm_run.budget_exhausted == 0
        assert norm_run.cycles_found == 0


@pytest.mark.slow
def test_criterion_14_5d_loop():
    with criterion(14, "5D loop cone is a child of itself"):
        L5 = Cone(LOOP5_COLS)
        children = normalized_nash_children(L5, 0)
        assert any(are_equivalent(c, L5) for c in children)
