import gc
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nashtoric.cones
from nashtoric import Cone, InputError, dual_description, nash_subdivision
from nashtoric.linalg import dot, make_primitive, rank

from conftest import (
    LOOP4_COLS,
    RUNNING_COLS,
    RUNNING_INEQS,
    feasible_cone,
    polyhedron_vertices,
    random_pointed_cone,
)
from oracles import cone_contains, rays_by_tight_facets, vertices_by_functional_sweep

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

    def test_dual_takes_the_two_descriptions_swapped(self):
        """The descriptions a dual is primed with are those that a fresh
        cone on the facet normals computes."""
        rng = random.Random(2025)
        for _ in range(60):
            C = random_pointed_cone(rng, rng.choice([2, 3, 4]))
            D, fresh = C.dual(), Cone(C.facet_normals)
            assert {"dual", "primal"} <= D._cache.keys()
            assert D._dual_data() == fresh._dual_data()
            assert D._primal_data() == fresh._primal_data()

    def test_dual_leaves_no_reference_cycle(self):
        """A cone and its dual are freed by reference counting alone: the
        dual's primed caches hold no pointer back to the cone."""
        gc.collect()
        gc.disable()
        try:
            D = Cone(LOOP4_COLS).dual()
            assert D.dual().rays == Cone(LOOP4_COLS).rays
            del D
            nash_subdivision(Cone([(-1, 2), (3, -1)]), 0)
            assert gc.collect() == 0
        finally:
            gc.enable()


# Rank-2 row sets on which the fast path of dual_description is easy to
# get wrong.
RANK2_EDGE_ROWS = [
    [],
    [(0, 0)],
    [(0, 0), (0, 0), (0, 0)],
    [(3, 5)],
    [(-2, 7)],
    [(1, 2), (1, 2), (0, 1)],
    [(1, 2), (2, 4), (3, -1), (-6, 2)],
    [(1, 1), (2, 2), (5, 5)],
    [(1, 1), (-2, -2)],
    [(1, 0), (-1, 0)],
    [(1, 0), (-1, 0), (0, 1)],
    [(2, 3), (-2, -3), (1, 0), (0, 1)],
    [(0, 0), (1, 2), (3, 1)],
    [(1, 0), (0, 1), (-1, 0)],
    [(1, 1), (-1, -1), (1, -1)],
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(1, 0), (-1, 1), (0, -1)],
    [(1, 0), (0, 1), (-1, 1)],
    [(1, 0), (1, 1), (1, 2), (1, 3)],
    [(5, -3), (-5, 4)],
    [(5, -3), (-5, 3), (1, 1)],
    [(10**9, 1), (10**9, -1)],
]


def _rank2_row_sets(count: int, seed: int):
    """Seeded rank-2 row lists: random rows, some with duplicates, scaled
    copies, opposites or zero rows mixed in."""
    rng = random.Random(seed)
    for _ in range(count):
        bound = rng.choice((1, 2, 3, 10, 1000))
        rows = [
            (rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(rng.randint(1, 7))
        ]
        extra = rng.choice(("none", "duplicate", "scaled", "opposite", "zero"))
        r = rng.choice(rows)
        if extra == "duplicate":
            rows.append(r)
        elif extra == "scaled":
            rows.append(tuple(rng.randint(2, 4) * x for x in r))
        elif extra == "opposite":
            rows.append(tuple(-x for x in r))
        elif extra == "zero":
            rows.append((0, 0))
        rng.shuffle(rows)
        yield rows


class TestRank2DualDescription:
    """dual_description at n = 2 against the general method, which it must
    equal byte for byte, and which it must skip exactly when the rows span
    a pointed 2D cone, the case whose answer is no lineality and two rays."""

    def _check(self, row_sets, monkeypatch):
        general = nashtoric.cones._double_description
        fell_back = []

        def counted(rows, n):
            fell_back.append(None)
            return general(rows, n)

        monkeypatch.setattr("nashtoric.cones._double_description", counted)
        fast = 0
        for rows in row_sets:
            want = general({make_primitive(r) for r in rows if any(r)}, 2)
            fell_back.clear()
            assert dual_description(rows, 2) == want, rows
            pointed = not want[0] and len(want[1]) == 2
            assert fell_back == ([] if pointed else [None]), rows
            fast += pointed
        return fast

    def test_edge_inputs(self, monkeypatch):
        assert self._check(RANK2_EDGE_ROWS, monkeypatch) == 6

    def test_seeded_row_sets(self, monkeypatch):
        fast = self._check(_rank2_row_sets(2500, 20261020), monkeypatch)
        assert 500 < fast < 2500

    @pytest.mark.parametrize("rows", [[(1, 0), (0, 1)], [(1, 0), (-1, 0)]])
    def test_n_checked_on_either_path(self, rows):
        """A float n is refused on the rank-2 path as on the general one."""
        with pytest.raises(InputError, match="entries must be integers"):
            dual_description(rows, 2.0)


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

    @pytest.mark.parametrize("v", [(1,), (), (1, 1, 1), (1, 1, -1)])
    def test_wrong_length_raises(self, v):
        """zip would compare only the first entries and answer True."""
        with pytest.raises(InputError, match="length does not match the ambient rank"):
            QUADRANT.contains(v)

    @pytest.mark.parametrize("v", [(0.5, 1), (1.0, 1), ("1", 0)])
    def test_non_integer_entries_raise(self, v):
        with pytest.raises(InputError, match="entries must be integers"):
            QUADRANT.contains(v)

    def test_against_caratheodory_oracle(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(40):
            C = random_pointed_cone(rng, 2, bound=3)
            v = tuple(rng.randint(-4, 4) for _ in range(2))
            assert C.contains(v) == cone_contains(C.rays, v)
            checked += 1
        assert checked == 40


@st.composite
def pointed_cones(draw):
    """A pointed cone in Z^n, 2 <= n <= 5, of dimension d: d to d + 3
    combinations with small coefficients of d independent random columns,
    then up to two sums of two of them, which are never extreme.  Half of
    the cones are full-dimensional (d = n), the rest have d < n."""
    n = draw(st.integers(2, 5))
    d = n if draw(st.booleans()) else draw(st.integers(1, n - 1))
    entry = st.integers(-2, 2)
    basis = draw(st.lists(st.tuples(*[entry] * n), min_size=d, max_size=d))
    assume(rank(basis) == d)
    coeffs = st.tuples(*[entry] * d).filter(any)
    combos = draw(st.lists(coeffs, min_size=d, max_size=d + 3))
    cols = [tuple(dot(row, c) for row in zip(*basis)) for c in combos]
    pick = st.integers(0, len(cols) - 1)
    for i, j in draw(st.lists(st.tuples(pick, pick), max_size=2)):
        cols.append(tuple(a + b for a, b in zip(cols[i], cols[j])))
    assume(all(map(any, cols)))
    C = Cone(cols)
    assume(C.is_pointed())
    return C


class TestRaysAgainstTightFacets:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pointed_cones())
    def test_rays_match_tight_facet_rank(self, C):
        want = rays_by_tight_facets(C.generators, C.facet_normals, C.span_equalities)
        assert C.rays == want
        assert C.is_full_dimensional() == (rank(C.generators) == C.ambient_rank)


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
        assert polyhedron_vertices([(5, 7)], Cone([(1, 0), (1, 5)]).rays) == ((5, 7),)

    def test_translate_absorbed(self):
        rays = Cone([(2, 1), (0, 1)]).rays
        assert polyhedron_vertices([(1, 1), (3, 2)], rays) == ((1, 1),)

    def test_appendix_polyhedron_against_sweep_oracle(self):
        points = [(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)]
        recession = [(2, 1), (1, 3)]
        oracle = vertices_by_functional_sweep(points, recession)
        assert oracle == {(3, 2), (2, 3), (2, 5)}
        assert set(polyhedron_vertices(points, Cone(recession).rays)) == oracle

    def test_bounded_square(self):
        points = [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert set(polyhedron_vertices(points, ())) == set(points)
        assert feasible_cone((0, 0), points, ()).rays == ((0, 1), (1, 0))

    def test_vertices_subset_and_membership(self):
        rng = random.Random(43)
        for _ in range(30):
            C = random_pointed_cone(rng, 2, bound=4)
            pts = {
                tuple(rng.randint(-5, 5) for _ in range(2))
                for _ in range(rng.randint(1, 7))
            }
            vs = polyhedron_vertices(pts, C.rays)
            assert set(vs) <= pts
            hull = Cone([v + (1,) for v in vs] + [r + (0,) for r in C.rays])
            for p in pts:
                assert hull.contains(p + (1,))


@st.composite
def polyhedra(draw, n, coords, ray_bound):
    """(points, C): 1 to 8 points with coordinates drawn from coords, and a
    pointed full-dimensional C from n to n + 2 columns with entries up to
    ray_bound."""
    entry = st.integers(-ray_bound, ray_bound)
    column = st.tuples(*[entry] * n).filter(any)
    cols = draw(st.lists(column, min_size=n, max_size=n + 2))
    assume(rank(cols) == n)
    C = Cone(cols)
    assume(C.is_pointed())
    point = st.tuples(*[st.sampled_from(coords)] * n)
    points = sorted(set(draw(st.lists(point, min_size=1, max_size=8))))
    return points, C


class TestVerticesAgainstSweep:
    """Vertices of Conv(points) + C against vertices_by_functional_sweep.

    The sweep finds a vertex v only if some functional with entries up to
    coeff_bound is positive on the tangent cone T of the polyhedron at v,
    which is generated by the rays of C and the vectors p - v.  The sum of
    n independent primitive facet normals of T is one, and a facet normal
    of T divides the normal of n - 1 generators of T.  In 2D that normal is
    a generator turned by 90 degrees: with points in [-3, 3]^2 and rays
    entries up to 3 its entries are at most 6, and the sum's at most 12.
    In 3D it is a cross product: with points in {0, 1}^3 and rays entries
    up to 1 every generator has entries in [-1, 1], the cross product
    entries up to 2, and the sum's at most 6."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(polyhedra(2, range(-3, 4), 3))
    def test_2d(self, case):
        points, C = case
        want = vertices_by_functional_sweep(points, C.rays, coeff_bound=12)
        assert polyhedron_vertices(points, C.rays) == tuple(sorted(want))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(polyhedra(3, (0, 1), 1))
    def test_3d(self, case):
        points, C = case
        want = vertices_by_functional_sweep(points, C.rays, coeff_bound=6)
        assert polyhedron_vertices(points, C.rays) == tuple(sorted(want))


class TestFeasibleCone:
    def test_appendix_feasible_cones(self):
        points = [(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)]
        rays = Cone([(2, 1), (1, 3)]).rays
        assert feasible_cone((2, 3), points, rays).rays == ((0, 1), (1, -1))
        assert feasible_cone((2, 5), points, rays).rays == ((0, -1), (1, 3))

    def test_contains_recession(self):
        rng = random.Random(47)
        for _ in range(20):
            C = random_pointed_cone(rng, 2, bound=4)
            pts = {
                tuple(rng.randint(-4, 4) for _ in range(2))
                for _ in range(rng.randint(1, 5))
            }
            for v in polyhedron_vertices(pts, C.rays):
                F = feasible_cone(v, pts, C.rays)
                assert F.is_pointed() and F.is_full_dimensional()
                for r in C.rays:
                    assert F.contains(r)
