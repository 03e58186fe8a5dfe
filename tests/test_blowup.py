import itertools
import random
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashtoric import (
    AffineSemigroup,
    BasisCapExceeded,
    Cone,
    DigraphStore,
    InputError,
    IntMatrix,
    NotFullRankError,
    are_equivalent,
    canonical_cone,
    canonical_semigroup,
    expand,
    hilbert_basis,
    is_basis_modulo,
    minimal_generators,
    nash_children,
    nash_subdivision,
    normalized_nash_children,
    reeves_cone,
)
from nashtoric.blowup import _vertex_charts
from nashtoric.semigroups import _minimalize
from nashtoric.linalg import dot, rank

from conftest import (
    CYCLE2_COLS,
    CYCLE2_SEED_COLS,
    LOOP4_COLS,
    LOOP5_COLS,
    RUNNING_COLS,
    WHITNEY_COLS,
    feasible_cone,
    polyhedron_vertices,
    random_pointed_cone,
)
from oracles import bases_by_definition, nash_charts_oracle


def _columns(n: int, bound: int, max_size: int):
    entry = st.integers(-bound, bound)
    return st.lists(
        st.tuples(*[entry] * n).filter(any), min_size=n, max_size=max_size
    )


@st.composite
def full_lattice_semigroups_2d(draw):
    """Pointed 2D semigroups generating Z^2, from up to four columns with
    entries up to 7; in general not saturated."""
    cols = draw(_columns(2, 7, 4))
    assume(rank(cols) == 2 and Cone(cols).is_pointed())
    S = minimal_generators(cols)
    assume(S.is_full_lattice())
    return S


@st.composite
def hilbert_basis_semigroups_3d(draw):
    """Saturated 3D semigroups: Hilbert bases of at most 7 elements of
    random pointed cones."""
    cols = draw(_columns(3, 3, 5))
    assume(rank(cols) == 3)
    C = Cone(cols)
    assume(C.is_pointed())
    H = hilbert_basis(C)
    assume(len(H) <= 7)
    return AffineSemigroup(H, assume_minimal=True)


@st.composite
def small_hilbert_basis_cones(draw):
    """Pointed full-dimensional cones whose Hilbert bases have at most 7
    elements: 2D from up to four columns with entries up to 5, 3D from up
    to five columns with entries up to 2."""
    n = draw(st.sampled_from([2, 3]))
    cols = draw(_columns(n, 5 if n == 2 else 2, n + 2))
    assume(rank(cols) == n)
    C = Cone(cols)
    assume(C.is_pointed() and len(hilbert_basis(C)) <= 7)
    return C


def basis_sums(H, p):
    """The distinct sums of the bases among the n-subsets of H, sorted."""
    return tuple(sorted({tuple(map(sum, zip(*b))) for b in bases_by_definition(H, p)}))


def feasible_cones_by_definition(C: Cone, p):
    """The feasible cone of P = Conv(basis sums) + C at each vertex of P,
    in vertex order, with P built from every basis sum of the Hilbert
    basis of C."""
    sums = basis_sums(hilbert_basis(C), p)
    return [feasible_cone(v, sums, C.rays) for v in polyhedron_vertices(sums, C.rays)]


def semigroup_product(S: AffineSemigroup, k: int) -> AffineSemigroup:
    """The product of S with the standard semigroup of rank k."""
    n = S.ambient_rank
    gens = [g + (0,) * k for g in S.generators]
    gens += [(0,) * n + tuple(int(i == j) for i in range(k)) for j in range(k)]
    return AffineSemigroup(gens, assume_minimal=True)


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
        S = AffineSemigroup([(1,)])
        assert nash_children(S, 0) == (S,)
        assert nash_children(S, 7) == (S,)
        with pytest.raises(InputError):
            nash_children(S, 4)
        with pytest.raises(InputError):
            nash_children(S, 6)


class TestEnumerateBases:
    """The bases of the definition, against which the vertex walk is
    checked."""

    def test_cusp(self):
        assert bases_by_definition([(2,), (3,)], 3) == [((2,),)]
        assert bases_by_definition([(2,), (3,)], 0) == [((2,),), ((3,),)]

    def test_whitney_all_pairs(self):
        assert len(bases_by_definition(WHITNEY_COLS, 0)) == 3

    def test_appendix_pairs(self):
        H = [(2, 1), (1, 3), (1, 2), (1, 1)]
        assert len(bases_by_definition(H, 0)) == 6

    def test_brute_force(self):
        """The cofactor determinants of the definition agree with the
        package's basis test."""
        rng = random.Random(97)
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
            want = [
                sub
                for sub in itertools.combinations(sorted(pts), n)
                if is_basis_modulo(sub, p)
            ]
            assert bases_by_definition(pts, p) == want

    def test_rank_deficient(self):
        assert bases_by_definition([(1, 0), (2, 0)], 0) == []


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
        """nash_children takes one chart per vertex v of the Newton
        polyhedron, from S and the basis sums s whose s - v is a difference
        of two generators; the oracle takes S + <h_J - h_I over all bases
        J> at every basis I and drops the non-pointed charts.  Checked on
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

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(full_lattice_semigroups_2d(), st.sampled_from([0, 2, 3]))
    def test_matches_chart_oracle_2d(self, S, p):
        got = {c.generators for c in nash_children(S, p)}
        assert got == nash_charts_oracle(S.generators, p)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(hilbert_basis_semigroups_3d(), st.sampled_from([0, 2, 3]))
    def test_matches_chart_oracle_3d(self, S, p):
        got = {c.generators for c in nash_children(S, p)}
        assert got == nash_charts_oracle(S.generators, p)

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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_hilbert_basis_cones(), st.sampled_from([0, 2, 3]))
    def test_matches_feasible_cones(self, C, p):
        """The children are the feasible cones of the definition: the
        first of each unimodular class in vertex order, listed by key."""
        kept = {}
        for F in feasible_cones_by_definition(C, p):
            kept.setdefault(canonical_cone(F)[0].serialization, F)
        want = [kept[k].rays for k in sorted(kept)]
        assert [c.rays for c in normalized_nash_children(C, p)] == want


@st.composite
def walk_inputs(draw):
    """(H, C) for the vertex walk, H of at most 8 elements: the Hilbert
    basis of a random pointed 2D-4D cone C, or the minimal generators of a
    random semigroup generating Z^n, with C its hull."""
    n = draw(st.sampled_from([2, 3, 4]))
    cols = draw(_columns(n, {2: 6, 3: 3, 4: 2}[n], n + 2))
    assume(rank(cols) == n and Cone(cols).is_pointed())
    if draw(st.booleans()):
        C = Cone(cols)
        H = hilbert_basis(C)
    else:
        S = minimal_generators(cols)
        assume(S.is_full_lattice())
        H, C = S.generators, S.hull
    assume(len(H) <= 8)
    return H, C


class TestVertexWalk:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(walk_inputs(), st.sampled_from([0, 2, 3]))
    def test_matches_basis_sums(self, case, p):
        """The walk reaches the vertices of Conv(basis sums) + C, and at
        each its chart has the cone and the minimal generators of the chart
        of the definition: H and every d with v + d a basis sum."""
        H, C = case
        walk = _vertex_charts(H, C, p)
        sums = basis_sums(H, p)
        assert [v for v, _, _ in walk] == list(polyhedron_vertices(sums, C.rays))
        exchanges = {tuple(a - b for a, b in zip(g, h)) for g in H for h in H if g != h}
        for v, chart, K in walk:
            full = set(H) | {
                d for d in exchanges if tuple(map(add, v, d)) in set(sums)
            }
            assert K.rays == Cone(full).rays
            assert _minimalize(chart, K) == _minimalize(tuple(sorted(full)))

    def test_default_cap_read_at_call_time(self, monkeypatch, loop4_cone):
        """With no cap given, every blowup and a normalized expansion stop
        at DEFAULT_BASIS_CAP as it reads when called; a cap given is kept."""
        monkeypatch.setattr("nashtoric.blowup.DEFAULT_BASIS_CAP", 2)
        S = AffineSemigroup(hilbert_basis(loop4_cone), assume_minimal=True)
        assert normalized_nash_children(loop4_cone, 0, max_bases=100)
        calls = (
            lambda: nash_children(S, 0),
            lambda: normalized_nash_children(loop4_cone, 0),
            lambda: nash_subdivision(loop4_cone, 0),
            lambda: expand(DigraphStore("normalized", 0, 4), loop4_cone),
        )
        for call in calls:
            with pytest.raises(BasisCapExceeded) as info:
                call()
            assert info.value.cap == 2


def _assert_outside_move_cones(H, C, p):
    """At every vertex of the walk, the cone built from C's rays and the
    moves outside C has the rays and facets of the cone of the whole chart."""
    for _, chart, K in _vertex_charts(H, C, p):
        full = Cone(chart)
        assert K.rays == full.rays
        assert K.facet_normals == full.facet_normals


def _normalized_walk(cols):
    C = Cone(cols)
    return hilbert_basis(C), C


def _nash_walk(cols):
    S = AffineSemigroup(cols)
    return S.generators, S.hull


class TestOutsideMoveCones:
    @pytest.mark.parametrize(
        "walk, cols, p",
        [
            (_normalized_walk, LOOP4_COLS, 2),
            (_normalized_walk, LOOP4_COLS, 3),
            (_normalized_walk, LOOP5_COLS, 0),
            (_nash_walk, CYCLE2_COLS, 0),
            (_nash_walk, CYCLE2_COLS, 2),
        ],
        ids=["loop4-p2", "loop4-p3", "loop5-p0", "cycle2-nash-p0", "cycle2-nash-p2"],
    )
    def test_fixtures(self, walk, cols, p):
        _assert_outside_move_cones(*walk(cols), p)

    @pytest.mark.parametrize("j", range(1, 9))
    def test_reeves(self, j):
        _assert_outside_move_cones(*_normalized_walk(reeves_cone(3, j).rays), 0)

    def test_random_cones_both_modes(self):
        rng = random.Random(2011)
        done = 0
        while done < 24:
            n = rng.choice([2, 3, 4])
            C = random_pointed_cone(rng, n, bound={2: 6, 3: 3, 4: 2}[n])
            p = rng.choice([0, 2, 3])
            if done % 2:
                _assert_outside_move_cones(*_normalized_walk(C.rays), p)
            else:
                S = minimal_generators(C.rays)
                if not S.is_full_lattice() or len(S.generators) > 10:
                    continue
                _assert_outside_move_cones(S.generators, S.hull, p)
            done += 1

    @pytest.mark.slow
    @pytest.mark.parametrize("p", [0, 2])
    def test_running(self, p):
        _assert_outside_move_cones(*_normalized_walk(RUNNING_COLS), p)


class TestCharacteristicStability:
    def test_loop_cone_bases_stable_away_from_2_3(self, loop4_cone):
        H = hilbert_basis(loop4_cone)
        b0 = bases_by_definition(H, 0)
        for p in (5, 7, 11):
            assert bases_by_definition(H, p) == b0
        assert bases_by_definition(H, 2) != b0
        assert bases_by_definition(H, 3) != b0


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

    def test_basis_cap(self, monkeypatch):
        # The walk over the dual's Newton polyhedron computes 3 bases: one
        # at its first vertex and one per bounded edge it crosses.
        monkeypatch.setattr("nashtoric.blowup.DEFAULT_BASIS_CAP", 2)
        with pytest.raises(BasisCapExceeded) as info:
            nash_subdivision(Cone([(-1, 2), (3, -1)]), 0)
        assert info.value.cap == 2
        assert "cap of 2" in str(info.value)
        # nash_subdivision takes no basis cap, so the text must not name one.
        assert "max_bases" not in str(info.value)

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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_hilbert_basis_cones(), st.sampled_from([0, 2, 3]))
    def test_matches_feasible_cones(self, C, p):
        """The pieces of the subdivision of sigma = C-dual are the duals
        of the feasible cones of the definition, sorted by rays."""
        want = sorted(F.dual().rays for F in feasible_cones_by_definition(C, p))
        assert [c.rays for c in nash_subdivision(C.dual(), p)] == want


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
