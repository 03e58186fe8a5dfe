import random

import pytest

import nashtoric.canonical
from nashtoric import (
    AffineSemigroup,
    CanonicalKey,
    Cone,
    InputError,
    IntMatrix,
    NotPointedError,
    SearchCapExceeded,
    are_equivalent,
    canonical_cone,
    canonical_semigroup,
    hermite_normal_form,
    minimal_generators,
)
from nashtoric.canonical import _canonical_cone_data
from nashtoric.digraph import epsilon_key

from conftest import RUNNING_COLS, RUNNING_HNF_COLS, random_pointed_cone, random_unimodular
from oracles import max_hnf_transforms_all_permutations

# The 16-ray normalized Nash child of LOOP5_COLS at p = 0, and its key.
LOOP5_CHILD_RAYS = [
    (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 1, -1),
    (0, 2, -1, 1, -1), (0, 2, 0, 0, -1), (1, 0, 0, 0, 0), (1, 0, 0, 1, -1),
    (1, 1, 0, 1, -2), (1, 2, -2, 1, -1), (1, 2, -1, 0, -1), (1, 2, 0, 0, -2),
    (2, 1, -1, 1, -2), (2, 2, -2, 1, -2), (2, 2, -1, 0, -2), (2, 2, -1, 1, -3),
]
LOOP5_CHILD_KEY = (
    "5 x 16: 1,1,0,2,2,0,2,2,1,0,1,1,1,1,0,0,0,2,0,3,2,0,4,3,1,0,4,4,2,2,2,2,"
    "0,0,1,-1,-1,0,-2,-2,-1,0,-2,-3,-1,-2,-1,-2,0,0,0,0,0,1,1,1,1,0,1,2,0,1,"
    "1,2,0,0,0,0,0,0,0,0,0,1,1,1,1,1,1,1"
)


def _hnf_of_columns(cols):
    H, U = hermite_normal_form(IntMatrix.from_columns(cols))
    return H.data, U


class TestCanonicalCone:
    def test_unimodular_cone_identity_key(self):
        key, U = canonical_cone(Cone([(0, 1), (1, 0)]))
        assert key.matrix == IntMatrix.identity(2)
        assert key.serialization == "2 x 2: 1,0,0,1"

    def test_column_order_irrelevant(self):
        k1, _ = canonical_cone(Cone([(3, 5), (1, 0)]))
        k2, _ = canonical_cone(Cone([(1, 0), (3, 5)]))
        assert k1 == k2

    def test_paper_equivalence_display(self):
        left = Cone(RUNNING_COLS)
        right = Cone(RUNNING_HNF_COLS)
        assert are_equivalent(left, right)

    def test_transform_realizes_key(self):
        rng = random.Random(73)
        for _ in range(25):
            C = random_pointed_cone(rng, rng.choice([2, 3]))
            key, U = canonical_cone(C)
            image = Cone([U.mult_vector(r) for r in C.rays])
            assert set(image.rays) == set(key.matrix.columns())

    def test_invariance_under_unimodular(self):
        rng = random.Random(79)
        for _ in range(150):
            n = rng.choice([2, 3, 4])
            C = random_pointed_cone(rng, n)
            V = random_unimodular(n, rng)
            C2 = Cone([V.mult_vector(g) for g in C.generators])
            assert canonical_cone(C)[0] == canonical_cone(C2)[0]

    def test_brute_force_permutation_oracle(self):
        rng = random.Random(83)
        checked = 0
        while checked < 20:
            C = random_pointed_cone(rng, rng.choice([2, 3]), extra=3)
            if len(C.rays) > 6:
                continue
            key, _ = canonical_cone(C)
            oracle, _ = max_hnf_transforms_all_permutations(C.rays, _hnf_of_columns)
            assert key.matrix.data == oracle
            checked += 1

    def test_transforms_match_permutation_oracle(self):
        # n + 2 to 7 rays, so that a full-rank prefix leaves a tail to sort;
        # the hexagon and the octahedron have many optimal transforms.
        cones = [
            Cone([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]),
            Cone([(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1),
                  (0, 0, 1, 1), (0, 0, -1, 1)]),
        ]
        rng = random.Random(97)
        for n in (3, 3, 3, 3, 4, 4, 4, 5):
            C = random_pointed_cone(rng, n, bound=3, extra=7 - n)
            while not n + 2 <= len(C.rays) <= 7:
                C = random_pointed_cone(rng, n, bound=3, extra=7 - n)
            cones.append(C)
        # Unimodular cones (rank 5 has 120 transforms), which skip the
        # search, and simplicial cones of index > 1, which do not.
        for n in (2, 3, 4, 5, 5):
            cones.append(Cone(random_unimodular(n, rng).columns()))
        simplicial = 0
        while simplicial < 6:
            C = random_pointed_cone(rng, rng.choice([2, 3, 4]), bound=4, extra=0)
            if not C.is_unimodular():
                cones.append(C)
                simplicial += 1
        for C in cones:
            key, us = _canonical_cone_data(C)
            H, oracle_us = max_hnf_transforms_all_permutations(C.rays, _hnf_of_columns)
            assert key.matrix.data == H
            assert list(us) == oracle_us

    def test_sorted_tail_keeps_search_small(self, monkeypatch):
        # Branching over every order of the tail places 514,699 columns on
        # this cone; finishing each full-rank prefix with one sorted tail
        # places about 12,600.
        monkeypatch.setattr("nashtoric.canonical.DEFAULT_SEARCH_CAP", 50_000)
        key, _ = canonical_cone(Cone(LOOP5_CHILD_RAYS))
        assert key.serialization == LOOP5_CHILD_KEY

    def test_place_column_count_on_loop5_child(self, monkeypatch):
        # A child whose row-0 entry falls behind a tied incumbent is never
        # placed: 4,586 columns instead of the 12,554 of placing every
        # child and pruning it when popped.
        calls = []
        place = nashtoric.canonical._place_column

        def counted(*args):
            calls.append(None)
            return place(*args)

        monkeypatch.setattr("nashtoric.canonical._place_column", counted)
        key, _ = canonical_cone(Cone(LOOP5_CHILD_RAYS))
        assert key.serialization == LOOP5_CHILD_KEY
        assert len(calls) == 4_586

    def test_unimodular_cones_skip_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran on a unimodular cone")

        rng = random.Random(101)
        cones = [Cone(random_unimodular(n, rng).columns()) for n in (1, 2, 3, 4, 4)]
        expected = [
            max_hnf_transforms_all_permutations(C.rays, _hnf_of_columns) for C in cones
        ]
        monkeypatch.setattr("nashtoric.canonical._max_hnf_over_permutations", no_search)
        for C, (H, oracle_us) in zip(cones, expected):
            key, us = _canonical_cone_data(C)
            assert key.matrix.data == H == IntMatrix.identity(C.ambient_rank).data
            assert list(us) == oracle_us
        for n in (1, 2, 3, 4):
            identity = IntMatrix.identity(n)
            anti = IntMatrix([row[::-1] for row in identity.data])
            assert epsilon_key("normalized", n) == CanonicalKey.from_matrix(identity)
            assert epsilon_key("nash", n) == CanonicalKey.from_matrix(anti)

    def test_unimodular_transforms_count_against_cap(self, monkeypatch):
        # The 3D identity cone has 3! = 6 transforms.
        monkeypatch.setattr("nashtoric.canonical.DEFAULT_SEARCH_CAP", 5)
        with pytest.raises(SearchCapExceeded) as info:
            canonical_cone(Cone(IntMatrix.identity(3)))
        assert info.value.cap == 5
        monkeypatch.setattr("nashtoric.canonical.DEFAULT_SEARCH_CAP", 6)
        assert len(_canonical_cone_data(Cone(IntMatrix.identity(3)))[1]) == 6

    def test_search_cap(self, monkeypatch):
        monkeypatch.setattr("nashtoric.canonical.DEFAULT_SEARCH_CAP", 2)
        with pytest.raises(SearchCapExceeded) as info:
            canonical_cone(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))
        assert info.value.cap == 2
        assert "cap of 2" in str(info.value)

    def test_cheap_invariants_separate(self):
        # Distinct ray counts, facet counts, or lattice indices force
        # distinct keys.
        pairs = [
            (Cone([(1, 0), (0, 1)]), Cone([(1, 0), (1, 2)])),  # index 1 vs 2
            (Cone([(1, 0), (0, 1)]), Cone([(1, 0), (1, 1), (-1, 3)])),  # ray count
        ]
        for X, Y in pairs:
            assert not are_equivalent(X, Y)

    def test_rejects_bad_cones(self):
        with pytest.raises(NotPointedError):
            canonical_cone(Cone([(1, 0), (-1, 0), (0, 1)]))
        from nashtoric import NotFullRankError

        with pytest.raises(NotFullRankError):
            canonical_cone(Cone([(1, 2)]))


class TestCanonicalSemigroup:
    def test_full_disclosure_pair(self):
        S1 = AffineSemigroup([(0, 2), (1, 0), (1, 1)])
        S2 = AffineSemigroup([(0, 1), (1, 1), (2, 0)])
        assert canonical_semigroup(S1) == canonical_semigroup(S2)
        assert are_equivalent(S1, S2)

    def test_numerical_semigroup_key(self):
        key = canonical_semigroup(AffineSemigroup([(2,), (3,)]))
        assert key.serialization == "1 x 2: 2,3"

    def test_standard_semigroup_key_is_epsilon(self):
        # The key of the unimodular semigroup: ascending-sorted basis.
        key = canonical_semigroup(AffineSemigroup.standard(2))
        assert key == canonical_semigroup(AffineSemigroup([(0, 1), (1, 0)]))
        assert key.matrix == IntMatrix([[0, 1], [1, 0]])

    def test_invariance_under_unimodular(self):
        rng = random.Random(89)
        for _ in range(100):
            n = rng.choice([2, 3])
            C = random_pointed_cone(rng, n, bound=3)
            S = minimal_generators(C.generators)
            V = random_unimodular(n, rng)
            S2 = minimal_generators([V.mult_vector(g) for g in S.generators])
            assert canonical_semigroup(S) == canonical_semigroup(S2)

    def test_distinct_semigroups_same_hull(self):
        # Same hull (the quadrant), different semigroups, distinct keys.
        S1 = AffineSemigroup([(1, 0), (0, 1)])
        S2 = AffineSemigroup([(2, 0), (3, 0), (0, 1), (1, 1)])
        assert canonical_semigroup(S1) != canonical_semigroup(S2)


class TestAreEquivalent:
    def test_self(self):
        C = Cone([(2, 1), (1, 3)])
        assert are_equivalent(C, C)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InputError):
            are_equivalent(Cone([(1, 0), (0, 1)]), AffineSemigroup([(1,)]))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InputError):
            are_equivalent(Cone([(1, 0), (0, 1)]), Cone([(1,)]))


class TestKeySerialization:
    def test_roundtrip(self):
        key, _ = canonical_cone(Cone([(1, 0), (3, 5)]))
        parsed = CanonicalKey.parse(key.serialization)
        assert parsed == key
        assert parsed.matrix == key.matrix

    def test_malformed(self):
        with pytest.raises(InputError):
            CanonicalKey.parse("2 x 2: 1,2,3")
        with pytest.raises(InputError):
            CanonicalKey.parse("nonsense")
