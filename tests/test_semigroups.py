import itertools
import random
from operator import add

import pytest

from nashtoric import (
    AffineSemigroup,
    Cone,
    InputError,
    IntMatrix,
    NotFullRankError,
    NotPointedError,
    full_rank_normalize,
    hilbert_basis,
    is_saturated,
    minimal_generators,
    semigroup_member,
)
from nashtoric.linalg import dot, rank

from conftest import RUNNING_COLS, WHITNEY_COLS, random_pointed_cone
from oracles import hilbert_basis_by_box, pointed_minimal_generators


class TestHilbertBasis:
    def test_unimodular_cone_gives_rays(self):
        C = Cone([(0, 1), (1, 0)])
        assert hilbert_basis(C) == ((0, 1), (1, 0))

    def test_rank2_staircase(self):
        # Frozen from the box-enumeration oracle below.
        C = Cone([(1, 0), (3, 5)])
        expected = hilbert_basis_by_box(C.rays, C.facet_normals, box=8)
        expected = {p for p in expected if max(abs(x) for x in p) <= 5}
        assert expected == {(1, 0), (1, 1), (2, 3), (3, 5)}
        assert set(hilbert_basis(C)) == expected

    def test_running_example_74(self):
        assert len(hilbert_basis(Cone(RUNNING_COLS))) == 74

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            hilbert_basis(Cone([(1, 0), (-1, 0), (0, 1)]))
        with pytest.raises(NotFullRankError):
            hilbert_basis(Cone([(1, 2)]))

    def test_rays_in_output_and_membership(self):
        rng = random.Random(51)
        for _ in range(40):
            C = random_pointed_cone(rng, rng.choice([2, 3]), bound=4)
            hb = hilbert_basis(C)
            for r in C.rays:
                assert r in hb
            for h in hb:
                assert C.contains(h)

    def test_indecomposability(self):
        rng = random.Random(53)
        for _ in range(25):
            C = random_pointed_cone(rng, rng.choice([2, 3]), bound=4)
            hb = set(hilbert_basis(C))
            for a, b in itertools.combinations_with_replacement(hb, 2):
                s = tuple(x + y for x, y in zip(a, b))
                assert s not in hb

    def test_box_oracle_agreement(self):
        rng = random.Random(59)
        checked = 0
        while checked < 40:
            C = random_pointed_cone(rng, rng.choice([2, 3]), bound=3)
            hb = set(hilbert_basis(C))
            if any(max(abs(x) for x in h) > 4 for h in hb):
                continue
            oracle = hilbert_basis_by_box(C.rays, C.facet_normals, box=8)
            oracle = {p for p in oracle if max(abs(x) for x in p) <= 4}
            assert hb == oracle
            checked += 1


class TestMinimalGenerators:
    def test_whitney_charts(self):
        g12 = minimal_generators([(1, 1), (1, 0), (0, 2), (-1, 2), (-1, 1)])
        assert set(g12.generators) == {(1, 0), (-1, 1)}
        g23 = minimal_generators([(1, 1), (1, 0), (0, 2), (0, 1), (1, -1)])
        assert set(g23.generators) == {(0, 1), (1, -1)}

    def test_already_minimal(self):
        S = minimal_generators([(2, 1), (1, 3)])
        assert set(S.generators) == {(2, 1), (1, 3)}

    def test_fixpoint(self):
        rng = random.Random(61)
        for _ in range(30):
            C = random_pointed_cone(rng, 2, bound=3)
            S = minimal_generators(C.generators)
            assert minimal_generators(S.generators).generators == S.generators

    def test_zero_and_duplicates_dropped(self):
        S = minimal_generators([(1, 0), (1, 0), (0, 0), (0, 1)])
        assert S.generators == ((0, 1), (1, 0))

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            minimal_generators([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotFullRankError):
            minimal_generators([(1, 0)])

    def test_matches_graded_search_oracle(self):
        rng = random.Random(67)
        pointed = non_pointed = 0
        while pointed < 200 or non_pointed < 60:
            n = rng.choice([1, 2, 3, 4])
            bound = 2 if n == 4 else 4
            gens = [
                tuple(rng.randint(-bound, bound) for _ in range(n))
                for _ in range(rng.randint(n, n + 4))
            ]
            try:
                got = minimal_generators(gens).generators
            except NotFullRankError:
                continue
            except NotPointedError:
                got = None
            assert got == pointed_minimal_generators(gens), gens
            pointed += got is not None
            non_pointed += got is None


class TestMembership:
    def test_numerical_semigroup(self):
        assert semigroup_member([(2,), (3,)], (7,))
        assert not semigroup_member([(2,), (3,)], (1,))

    def test_parity_obstruction(self):
        assert not semigroup_member([(1, 0), (0, 2)], (1, 1))

    def test_zero_is_member(self):
        assert semigroup_member([(2,), (3,)], (0,))

    @pytest.mark.parametrize("v", [(1, 0, 5), (-1, 0, 5), (2,), (-2,), ()])
    def test_wrong_length_raises_whatever_the_signs(self, v):
        """The length is checked before the facet values, which a negative
        first entry once made False."""
        with pytest.raises(InputError, match="right-hand side length does not match"):
            semigroup_member([(1, 0), (0, 1)], v)

    def test_random_roundtrip(self):
        rng = random.Random(67)
        for _ in range(60):
            C = random_pointed_cone(rng, rng.choice([1, 2]), bound=3, extra=1)
            gens = C.generators
            coeffs = [rng.randint(0, 3) for _ in gens]
            v = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens))
                for i in range(C.ambient_rank)
            )
            assert semigroup_member(gens, v)

    def test_matches_sums_in_a_box(self):
        """Every target in a box against all sums of the generators up to
        the box's largest grade, by a functional w positive on them.  The
        fixed sets are not saturated, and most do not span the lattice."""
        rng = random.Random(73)
        cases = [
            ([(2,), (3,)], (1,)),
            ([(4,), (6,)], (1,)),
            ([(-3,), (-5,)], (-1,)),
            ([(2, 0), (0, 3)], (1, 1)),
            ([(1, 0), (1, 2), (1, 4)], (1, 0)),
            ([(3, -1), (-1, 3)], (1, 1)),
            ([(2, 0, 0), (0, 2, 0), (1, 1, 2)], (1, 1, 1)),
        ]
        while len(cases) < 40:
            n = rng.choice([1, 2, 3])
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 3)]
            gens = [g for g in gens if dot(w, g) > 0]
            if len(gens) >= n and rank(gens) == n:
                cases.append((gens, w))
        found = set()
        for gens, w in cases:
            n = len(w)
            side = {1: 30, 2: 7, 3: 3}[n]
            box = list(itertools.product(range(-side, side + 1), repeat=n))
            top = max(dot(w, v) for v in box)
            sums = frontier = {(0,) * n}
            while frontier:
                steps = {tuple(map(add, v, g)) for v in frontier for g in gens}
                frontier = {s for s in steps if dot(w, s) <= top and s not in sums}
                sums = sums | frontier
            S = AffineSemigroup(gens, assume_minimal=True)
            for v in box:
                got = semigroup_member(S, v)
                assert got == (v in sums), (gens, v)
                found.add((n, got))
        assert found == {(n, b) for n in (1, 2, 3) for b in (True, False)}

    @pytest.mark.parametrize(
        "gens, target",
        [
            ([(-3, -3, -3, 2), (3, -3, -2, -3), (-3, 3, 0, 2), (1, 0, 2, 0)], (-3, 1, 0, -2)),
            ([(2, 0), (0, 3)], (1001, 999)),
            (
                [(-1, 0, -1, -2), (2, -2, 2, 2), (-2, 3, 3, 1), (3, -3, 2, 0),
                 (0, -1, -3, -3), (3, 1, 2, 3), (1, 1, -2, 1)],
                (5, 6, 2, -1),
            ),
        ],
    )
    def test_target_outside_the_lattice_is_rejected_without_search(self, gens, target):
        """A point in the hull but outside the group of the generators is
        not a member, and the search never starts: its memo stays empty."""
        S = AffineSemigroup(gens, assume_minimal=True)
        assert S.hull.contains(target)
        assert not semigroup_member(S, target)
        assert S._membership_solver().memo == {}


class TestFullRankNormalize:
    def test_already_full(self):
        S, B = full_rank_normalize([(1, 0), (0, 1), (1, 1)])
        assert B == IntMatrix.identity(2)
        assert S.generators == ((0, 1), (1, 0))

    def test_gcd_one_numerical(self):
        S, B = full_rank_normalize([(2,), (3,)])
        assert B == IntMatrix.identity(1)
        assert set(S.generators) == {(2,), (3,)}

    def test_diag_2_3(self):
        S, B = full_rank_normalize([(2, 0), (0, 3)])
        assert set(S.generators) == {(1, 0), (0, 1)}
        assert B == IntMatrix([[2, 0], [0, 3]])

    def test_transform_maps_back(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.choice([1, 2, 3])
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(n, n + 2))
            ]
            gens = [g for g in gens if any(g)]
            if len(gens) < n or rank(gens) < n:
                continue
            try:
                S, B = full_rank_normalize(gens)
            except NotPointedError:
                continue
            assert S.is_full_lattice()
            mapped = {B.mult_vector(g) for g in S.generators}
            original = set(minimal_generators(gens).generators)
            assert mapped == original

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotFullRankError):
            full_rank_normalize([(1, 0), (2, 0)])


class TestFlags:
    def test_unimodular_semigroup(self):
        assert AffineSemigroup([(1, 0), (-1, 1)]).is_unimodular()
        assert not AffineSemigroup([(2,), (3,)]).is_unimodular()
        assert AffineSemigroup.standard(3).is_unimodular()

    def test_saturation(self):
        assert not is_saturated(AffineSemigroup([(2,), (3,)]))
        whit = AffineSemigroup(WHITNEY_COLS)
        assert not is_saturated(whit)
        C = Cone([(2, 1), (1, 3)])
        S = AffineSemigroup(hilbert_basis(C), assume_minimal=True)
        assert is_saturated(S)
