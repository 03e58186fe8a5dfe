import itertools
import random

import pytest

from nashtoric import (
    AffineSemigroup,
    BasisCapExceeded,
    Cone,
    InputError,
    IntMatrix,
    NotFullRankError,
    are_equivalent,
    basis_sums,
    canonical_cone,
    canonical_semigroup,
    enumerate_bases,
    hilbert_basis,
    nash_children,
    nash_subdivision,
    normalized_nash_children,
    reeves_cone,
)
from nashtoric.blowup import semigroup_product
from nashtoric.linalg import dot, rank

from conftest import (
    CYCLE2_COLS,
    CYCLE2_SEED_COLS,
    LOOP4_COLS,
    WHITNEY_COLS,
    random_pointed_cone,
)
from oracles import nash_charts_oracle


def _is_common_face(P: Cone, Q: Cone) -> bool:
    """The intersection of P and Q is a face of P (and by symmetry of Q)."""
    combined = list(P.facet_normals) + list(Q.facet_normals)
    n = P.ambient_rank
    from nashtoric.cones import dual_description

    lin, rays = dual_description(combined, n)
    if lin:
        return False
    tight = [f for f in P.facet_normals if all(dot(f, r) == 0 for r in rays)]
    # Face of P cut by the facets tight on the whole intersection.
    face_ineqs = list(P.facet_normals) + [
        t for f in tight for t in (f, tuple(-x for x in f))
    ]
    _, face_rays = dual_description(face_ineqs, n)
    return set(face_rays) == set(rays)


def assert_valid_subdivision(sigma: Cone, fan) -> None:
    """Pieces tile sigma: each full-dimensional and contained in sigma,
    pairwise intersections are common faces, interior facets pair up and
    boundary facets lie on sigma's facets."""
    pieces = list(fan)
    assert pieces
    n = sigma.ambient_rank
    for piece in pieces:
        assert piece.is_pointed() and piece.is_full_dimensional()
        for r in piece.rays:
            assert sigma.contains(r)
    for P, Q in itertools.combinations(pieces, 2):
        assert _is_common_face(P, Q)
        assert _is_common_face(Q, P)
    # Facet pairing: every piece facet either lies on the boundary of
    # sigma or is shared with exactly one other piece.
    facet_records = []
    for i, piece in enumerate(pieces):
        for f in piece.facet_normals:
            tight = tuple(sorted(r for r in piece.rays if dot(f, r) == 0))
            facet_records.append((tight, i, f))
    for tight, i, f in facet_records:
        on_boundary = any(
            all(dot(g, r) == 0 for r in tight) for g in sigma.facet_normals
        )
        partners = [
            (t2, j, f2)
            for (t2, j, f2) in facet_records
            if j != i and t2 == tight
        ]
        if on_boundary:
            assert not partners, "boundary facet shared between pieces"
        else:
            assert len(partners) == 1, "interior facet not shared exactly once"


class TestCharacteristic:
    def test_validation(self):
        assert enumerate_bases([(1,)], 0) == [((1,),)]
        assert enumerate_bases([(1,)], 7) == [((1,),)]
        with pytest.raises(InputError):
            enumerate_bases([(1,)], 4)
        with pytest.raises(InputError):
            enumerate_bases([(1,)], 6)


class TestEnumerateBases:
    def test_cusp(self):
        assert enumerate_bases([(2,), (3,)], 3) == [((2,),)]
        assert enumerate_bases([(2,), (3,)], 0) == [((2,),), ((3,),)]

    def test_whitney_all_pairs(self):
        assert len(enumerate_bases(WHITNEY_COLS, 0)) == 3

    def test_appendix_pairs(self):
        H = [(2, 1), (1, 3), (1, 2), (1, 1)]
        assert len(enumerate_bases(H, 0)) == 6

    def test_brute_force(self):
        rng = random.Random(97)
        from nashtoric.linalg import IntMatrix, determinant

        for _ in range(60):
            n = rng.choice([2, 3])
            pts = {
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(n, n + 3))
            }
            pts = {p for p in pts if any(p)}
            if len(pts) < n or rank(list(pts)) < n:
                continue
            p = rng.choice([0, 2, 3, 5])
            got = {frozenset(b) for b in enumerate_bases(pts, p)}
            want = set()
            for sub in itertools.combinations(sorted(pts), n):
                d = determinant(IntMatrix.from_columns(sub))
                if (d != 0) if p == 0 else (d % p != 0):
                    want.add(frozenset(sub))
            assert got == want

    def test_cap(self):
        pts = [(i, 1) for i in range(10)]
        with pytest.raises(BasisCapExceeded):
            enumerate_bases(pts, 0, max_bases=5)

    def test_rank_deficient(self):
        with pytest.raises(NotFullRankError):
            enumerate_bases([(1, 0), (2, 0)], 0)


class TestBasisSums:
    def test_appendix(self):
        H = [(2, 1), (1, 3), (1, 2), (1, 1)]
        assert set(basis_sums(H, 0)) == {(3, 4), (3, 3), (3, 2), (2, 5), (2, 4), (2, 3)}

    def test_standard_basis(self):
        assert basis_sums([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 0) == ((1, 1, 1),)

    def test_cusp_p3(self):
        assert basis_sums([(2,), (3,)], 3) == ((2,),)


class TestNashChildren:
    def test_cusp_fixed_point_p3(self):
        S = AffineSemigroup([(2,), (3,)])
        children = nash_children(S, 3)
        assert len(children) == 1
        assert children[0].generators == S.generators

    def test_cusp_resolves_p0(self):
        S = AffineSemigroup([(2,), (3,)])
        children = nash_children(S, 0)
        assert len(children) == 1
        assert children[0].generators == ((1,),)

    def test_whitney(self):
        S = AffineSemigroup(WHITNEY_COLS)
        children = nash_children(S, 0)
        assert len(children) == 2
        assert all(c.is_unimodular() for c in children)
        want = {
            canonical_semigroup(AffineSemigroup([(1, 0), (-1, 1)])).serialization,
            canonical_semigroup(AffineSemigroup([(0, 1), (1, -1)])).serialization,
        }
        got = {canonical_semigroup(c).serialization for c in children}
        assert got == want

    def test_standard_fixed_point(self):
        S = AffineSemigroup.standard(2)
        children = nash_children(S, 0)
        assert len(children) == 1
        assert children[0].generators == S.generators

    def test_children_contract(self):
        for c in nash_children(AffineSemigroup(CYCLE2_COLS, assume_minimal=True), 0):
            assert c.hull.is_pointed()
            assert c.is_full_lattice()
            from nashtoric import minimal_generators

            assert minimal_generators(c.generators).generators == c.generators

    @pytest.mark.parametrize("p", [0, 3])
    def test_matches_chart_oracle(self, p):
        """nash_children adds only single-exchange differences g - h; by
        Brualdi's bijective exchange every h_J - h_I is a sum of those, so
        the charts equal the definitional ones over all bases J.  Checked on
        the 2-cycle S, its partner T, and levels 0-3 from the seed."""
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        (T,) = [
            c
            for c in nash_children(S, 0)
            if any(are_equivalent(g, S) for g in nash_children(c, 0))
        ]

        def checked_children(s):
            children = nash_children(s, p)
            got = {c.generators for c in children}
            assert got == nash_charts_oracle(s.generators, p), s
            return children

        checked_children(S)
        checked_children(T)
        level = [AffineSemigroup(CYCLE2_SEED_COLS, assume_minimal=True)]
        seen = {canonical_semigroup(level[0]).serialization}
        for _ in range(4):
            nxt = []
            for s in level:
                for c in checked_children(s):
                    key = canonical_semigroup(c).serialization
                    if key not in seen:
                        seen.add(key)
                        nxt.append(c)
            level = nxt

    def test_sublattice_rejected(self):
        with pytest.raises(NotFullRankError):
            nash_children(AffineSemigroup([(2, 0), (0, 3)]), 0)

    def test_product_invariance(self):
        rng = random.Random(101)
        cases = 0
        while cases < 4:
            C = random_pointed_cone(rng, 2, bound=2)
            S = AffineSemigroup(hilbert_basis(C), assume_minimal=True)
            if not S.is_full_lattice():
                continue
            for k in (1, 2):
                lifted = semigroup_product(S, k)
                keys_lifted = {
                    canonical_semigroup(c).serialization
                    for c in nash_children(lifted, 0)
                }
                keys_expected = {
                    canonical_semigroup(semigroup_product(c, k)).serialization
                    for c in nash_children(S, 0)
                }
                assert keys_lifted == keys_expected
            cases += 1


class TestNormalizedChildren:
    def test_chi_display(self):
        children = normalized_nash_children(Cone([(1, 0), (3, 5)]), 0)
        got = {canonical_cone(c)[0].serialization for c in children}
        want = {
            canonical_cone(Cone(IntMatrix.identity(2)))[0].serialization,
            canonical_cone(Cone([(1, 0), (1, 3)]))[0].serialization,
        }
        assert got == want
        assert len(children) == 2

    def test_loop_cone_is_child_of_itself(self, loop4_cone):
        children = normalized_nash_children(loop4_cone, 0)
        assert any(are_equivalent(c, loop4_cone) for c in children)

    def test_unimodular_fixed_point(self):
        eps = Cone(IntMatrix.identity(3))
        children = normalized_nash_children(eps, 0)
        assert len(children) == 1
        assert are_equivalent(children[0], eps)

    def test_children_contract(self, loop4_cone):
        for c in normalized_nash_children(loop4_cone, 0):
            assert c.is_pointed() and c.is_full_dimensional()


class TestCharacteristicStability:
    def test_loop_cone_bases_stable_away_from_2_3(self, loop4_cone):
        H = hilbert_basis(loop4_cone)
        b0 = enumerate_bases(H, 0)
        for p in (5, 7, 11):
            assert enumerate_bases(H, p) == b0
        assert enumerate_bases(H, 2) != b0
        assert enumerate_bases(H, 3) != b0


class TestSubdivision:
    def test_appendix_example(self):
        sigma = Cone([(-1, 2), (3, -1)])
        fan = nash_subdivision(sigma, 0)
        got = {piece.rays for piece in fan}
        want = {
            (Cone([(3, -1), (1, 0)])).rays,
            (Cone([(1, 0), (1, 1)])).rays,
            (Cone([(1, 1), (-1, 2)])).rays,
        }
        assert got == want
        assert_valid_subdivision(sigma, fan)

    def test_unimodular_identity(self):
        eps = Cone(IntMatrix.identity(2))
        fan = nash_subdivision(eps, 0)
        assert len(fan) == 1
        assert fan.maximal_cones[0].rays == eps.rays

    def test_duality_with_normalized_children(self):
        rng = random.Random(103)
        for _ in range(25):
            sigma = random_pointed_cone(rng, rng.choice([2, 3]), bound=3)
            fan = nash_subdivision(sigma, 0)
            keys_fan = {
                canonical_cone(piece.dual())[0].serialization for piece in fan
            }
            keys_children = {
                canonical_cone(c)[0].serialization
                for c in normalized_nash_children(sigma.dual(), 0)
            }
            assert keys_fan == keys_children

    def test_validity_on_randoms(self):
        rng = random.Random(107)
        for _ in range(8):
            sigma = random_pointed_cone(rng, rng.choice([2, 3]), bound=3)
            assert_valid_subdivision(sigma, nash_subdivision(sigma, 0))


class TestReeves:
    def test_matrix_rho32(self):
        assert set(reeves_cone(3, 2).generators) == {(1, 0, 0), (0, 1, 0), (1, 1, 2)}

    def test_rho_n1_unimodular(self):
        for n in (2, 3, 4):
            assert reeves_cone(n, 1).is_unimodular()

    def test_rho45_index(self):
        from nashtoric import IntMatrix, lattice_index

        assert lattice_index(IntMatrix.from_columns(reeves_cone(4, 5).rays)) == 5

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            reeves_cone(1, 2)
        with pytest.raises(InputError):
            reeves_cone(3, 0)
