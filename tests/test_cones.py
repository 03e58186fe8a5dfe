import random

import pytest

from nashtoric import (
    Cone,
    InputError,
    IntMatrix,
    LatticePolyhedron,
    NotPointedError,
    feasible_cone,
)
from nashtoric.linalg import dot, rank

from conftest import RUNNING_COLS, RUNNING_INEQS, random_pointed_cone
from oracles import cone_contains, vertices_by_functional_sweep

QUADRANT = Cone([(1, 0), (0, 1)])


class TestConstruction:
    def test_redundant_generator_dropped(self):
        assert Cone([(1, 0), (1, 1), (0, 1)]).rays == ((0, 1), (1, 0))

    def test_primitivization(self):
        assert Cone([(2, 4)]).rays == ((1, 2),)

    def test_zero_column_rejected(self):
        with pytest.raises(InputError):
            Cone([(0, 0), (1, 0)])

    def test_running_example_minimal_descriptions(self):
        C = Cone(RUNNING_COLS)
        assert set(C.rays) == set(RUNNING_COLS)
        assert len(C.rays) == 6
        assert set(C.facet_normals) == set(RUNNING_INEQS)
        assert len(C.facet_normals) == 8


class TestDual:
    def test_quadrant_self_dual(self):
        assert QUADRANT.dual().rays == QUADRANT.rays

    def test_appendix_pair(self):
        sigma = Cone([(-1, 2), (3, -1)])
        assert set(sigma.dual().rays) == {(2, 1), (1, 3)}

    def test_running_example_dual(self):
        C = Cone(RUNNING_COLS)
        D = C.dual()
        assert set(D.rays) == set(RUNNING_INEQS)
        assert len(D.rays) == 8

    def test_involution_on_randoms(self):
        rng = random.Random(23)
        for _ in range(120):
            C = random_pointed_cone(rng, rng.choice([2, 3]))
            assert C.dual().dual().rays == C.rays


class TestPredicates:
    def test_pointed(self):
        assert QUADRANT.is_pointed()
        whitney_g13 = Cone([(1, 1), (1, 0), (0, 2), (0, -1), (1, -2)])
        assert not whitney_g13.is_pointed()
        assert not Cone([(1, 0), (-1, 0)]).is_pointed()

    def test_full_dimensional(self):
        assert QUADRANT.is_full_dimensional()
        assert not Cone([(1, 2)]).is_full_dimensional()
        B = Cone(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 3, -2, -1), (1, 3, -1, -1)]
        )
        assert B.is_full_dimensional()

    def test_unimodular(self):
        assert QUADRANT.is_unimodular()
        assert not Cone([(1, 0), (1, 3)]).is_unimodular()
        assert Cone([(0, 1), (1, -1)]).is_unimodular()

    def test_simplicial(self):
        assert QUADRANT.is_simplicial()
        assert not Cone(RUNNING_COLS).is_simplicial()
        rho45 = Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)])
        assert rho45.is_simplicial()


class TestContains:
    def test_examples(self):
        assert QUADRANT.contains((1, 1))
        # {y >= 0, 5x - 3y >= 0} is the inequality description of
        # Cone((1,0),(3,5)); the point (0,1) violates the second facet.
        C = Cone([(1, 0), (3, 5)])
        assert set(C.facet_normals) == {(0, 1), (5, -3)}
        assert not C.contains((0, 1))
        assert C.contains((1, 1))
        assert not QUADRANT.contains((-1, 0))

    def test_generators_contained(self):
        rng = random.Random(31)
        for _ in range(40):
            C = random_pointed_cone(rng, rng.choice([2, 3]))
            for g in C.generators:
                assert C.contains(g)

    def test_against_caratheodory_oracle(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(40):
            C = random_pointed_cone(rng, 2, bound=3)
            v = tuple(rng.randint(-4, 4) for _ in range(2))
            assert C.contains(v) == cone_contains(C.rays, v)
            checked += 1
        assert checked == 40


class TestFacetRayIncidence:
    def test_every_ray_satisfies_facets_and_tightness(self):
        rng = random.Random(41)
        for _ in range(60):
            C = random_pointed_cone(rng, rng.choice([2, 3]))
            n = C.ambient_rank
            if not C.is_full_dimensional():
                continue
            assert len(C.facet_normals) >= n
            assert len(C.rays) >= n
            for r in C.rays:
                assert all(dot(f, r) >= 0 for f in C.facet_normals)
            for f in C.facet_normals:
                tight = [r for r in C.rays if dot(f, r) == 0]
                assert rank(tight) >= n - 1


class TestPolyhedron:
    def test_single_point(self):
        P = LatticePolyhedron([(5, 7)], Cone([(1, 0), (1, 5)]))
        assert P.vertices() == ((5, 7),)

    def test_translate_absorbed(self):
        P = LatticePolyhedron([(1, 1), (3, 2)], Cone([(2, 1), (0, 1)]))
        assert P.vertices() == ((1, 1),)

    def test_appendix_polyhedron_against_sweep_oracle(self):
        points = [(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)]
        recession = [(2, 1), (1, 3)]
        oracle = vertices_by_functional_sweep(points, recession)
        assert oracle == {(3, 2), (2, 3), (2, 5)}
        P = LatticePolyhedron(points, Cone(recession))
        assert set(P.vertices()) == oracle

    def test_bounded_square(self):
        P = LatticePolyhedron([(0, 0), (1, 0), (0, 1), (1, 1)], None)
        assert set(P.vertices()) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert feasible_cone((0, 0), P).rays == ((0, 1), (1, 0))

    def test_vertices_subset_and_membership(self):
        rng = random.Random(43)
        for _ in range(30):
            C = random_pointed_cone(rng, 2, bound=4)
            pts = {
                tuple(rng.randint(-5, 5) for _ in range(2))
                for _ in range(rng.randint(1, 7))
            }
            P = LatticePolyhedron(pts, C)
            vs = set(P.vertices())
            assert vs <= set(P.points)
            hull = LatticePolyhedron(vs, C)
            for p in P.points:
                assert hull.contains(p)

    def test_nonpointed_recession_rejected(self):
        with pytest.raises(NotPointedError):
            LatticePolyhedron([(0, 0)], Cone([(1, 0), (-1, 0)]))


class TestFeasibleCone:
    def test_appendix_feasible_cones(self):
        points = [(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)]
        P = LatticePolyhedron(points, Cone([(2, 1), (1, 3)]))
        assert feasible_cone((2, 3), P).rays == ((0, 1), (1, -1))
        assert feasible_cone((2, 5), P).rays == ((0, -1), (1, 3))

    def test_not_a_vertex(self):
        points = [(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)]
        P = LatticePolyhedron(points, Cone([(2, 1), (1, 3)]))
        with pytest.raises(InputError):
            feasible_cone((3, 3), P)

    def test_contains_recession(self):
        rng = random.Random(47)
        for _ in range(20):
            C = random_pointed_cone(rng, 2, bound=4)
            pts = {
                tuple(rng.randint(-4, 4) for _ in range(2))
                for _ in range(rng.randint(1, 5))
            }
            P = LatticePolyhedron(pts, C)
            for v in P.vertices():
                F = feasible_cone(v, P)
                assert F.is_pointed() and F.is_full_dimensional()
                for r in C.rays:
                    assert F.contains(r)
