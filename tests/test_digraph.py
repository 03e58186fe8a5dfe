import hashlib
import json
import random

import pytest

from nashtoric import (
    AffineSemigroup,
    BudgetExhausted,
    CanonicalKey,
    Complete,
    Cone,
    DigraphStore,
    InputError,
    IntMatrix,
    StoreError,
    canonical_cone,
    expand,
    export_dot,
    find_cycles,
    reeves_cone,
    resolution_subgraph,
)
from nashtoric.digraph import _sccs, vertex_key

from conftest import CYCLE2_COLS, LOOP4_COLS
from oracles import all_simple_cycles, sccs_by_closure


@pytest.fixture
def chi_cone():
    return Cone([(1, 0), (3, 5)])


class TestStoreBasics:
    def test_epsilon_seeded_with_loop(self):
        st = DigraphStore("normalized", 0, 3)
        eps = st.epsilon
        assert CanonicalKey.parse(eps).matrix == IntMatrix.identity(3)
        assert (eps, eps) in st.edges

    def test_nash_epsilon(self):
        st = DigraphStore("nash", 0, 2)
        assert (st.epsilon, st.epsilon) in st.edges
        assert sorted(CanonicalKey.parse(st.epsilon).matrix.columns()) == [(0, 1), (1, 0)]

    def test_bad_meta(self):
        with pytest.raises(StoreError):
            DigraphStore("other", 0, 2)
        with pytest.raises(InputError):
            DigraphStore("nash", 6, 2)

    def test_edge_endpoints_checked(self):
        st = DigraphStore("normalized", 0, 2)
        with pytest.raises(StoreError):
            st.add_edge(st.epsilon, "2 x 2: 9,9,9,9")


class TestExpand:
    def test_epsilon_self(self):
        st = DigraphStore("normalized", 0, 2)
        assert expand(st, st.epsilon) == (st.epsilon,)

    def test_chi_cone(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        kids = expand(st, chi_cone)
        want = {
            st.epsilon,
            canonical_cone(Cone([(1, 0), (1, 3)]))[0].serialization,
        }
        assert set(kids) == want

    def test_loop_cone_self_edge(self):
        st = DigraphStore("normalized", 0, 4)
        B = Cone(LOOP4_COLS)
        kids = expand(st, B)
        key = vertex_key(st, B)
        assert key in kids
        assert (key, key) in st.edges

    def test_rank_mismatch(self, chi_cone):
        st = DigraphStore("normalized", 0, 3)
        with pytest.raises(StoreError):
            expand(st, chi_cone)

    def test_mode_mismatch(self, chi_cone):
        st = DigraphStore("nash", 0, 2)
        with pytest.raises(StoreError):
            expand(st, chi_cone)

    def test_unknown_key_without_payload(self):
        st = DigraphStore("normalized", 0, 2)
        with pytest.raises(StoreError):
            expand(st, "2 x 2: 1,1,0,2")

    @pytest.mark.parametrize("mode", ["nash", "normalized"])
    @pytest.mark.parametrize("rows", [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 1), (0, 1)]])
    def test_unimodular_payload_expands_to_epsilon(self, mode, rows):
        # A unimodular payload under its own key, which is epsilon only for
        # the first payload in nash mode: its one child is itself, and the
        # child's canonical key is epsilon.
        st = DigraphStore(mode, 0, 2)
        key = f"2 x 2: {','.join(str(x) for row in rows for x in row)}"
        st.add_vertex(key, IntMatrix(rows))
        assert expand(st, key) == (st.epsilon,)
        assert st.children_of(key) == (st.epsilon,)

    def test_key_with_payload(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        key = canonical_cone(chi_cone)[0]
        st.add_vertex(key.serialization, key.matrix)
        kids = expand(st, key.serialization)
        assert len(kids) == 2


class TestResolutionSubgraph:
    def test_epsilon(self):
        st = DigraphStore("normalized", 0, 2)
        status = resolution_subgraph(st, st.epsilon)
        assert status == Complete(1, 1)

    def test_chi_closure(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        status = resolution_subgraph(st, chi_cone)
        assert isinstance(status, Complete)
        assert status.vertex_count == 3
        assert set(st.vertices) == {
            st.epsilon,
            canonical_cone(chi_cone)[0].serialization,
            canonical_cone(Cone([(1, 0), (1, 3)]))[0].serialization,
        }

    def test_closure_property(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        for key in st.vertices:
            assert st.is_expanded(key)

    def test_bad_budgets(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        with pytest.raises(InputError):
            resolution_subgraph(st, chi_cone, max_vertices=0)
        with pytest.raises(InputError):
            resolution_subgraph(st, chi_cone, max_seconds=-1)

    def test_budget_exhaustion_and_resume(self):
        B = Cone(LOOP4_COLS)
        st = DigraphStore("normalized", 2, 4)
        status = resolution_subgraph(st, B, max_vertices=3)
        assert isinstance(status, BudgetExhausted)
        assert status.frontier
        partial_vertices = set(st.vertices)
        status2 = resolution_subgraph(st, B, max_vertices=10**6)
        assert isinstance(status2, Complete)
        # budget monotonicity: nothing disappeared
        assert partial_vertices <= set(st.vertices)
        # resumed result matches a fresh full run
        fresh = DigraphStore("normalized", 2, 4)
        resolution_subgraph(fresh, B)
        assert set(fresh.vertices) == set(st.vertices)
        assert fresh.edges == st.edges

    @pytest.mark.parametrize("p, max_vertices", [(2, 2), (3, 10)])
    def test_budget_frontier_lists_each_key_once(self, p, max_vertices):
        st = DigraphStore("normalized", p, 4)
        status = resolution_subgraph(st, Cone(LOOP4_COLS), max_vertices=max_vertices)
        assert isinstance(status, BudgetExhausted)
        assert len(set(status.frontier)) == len(status.frontier)
        # The frontier is every stored vertex this run reached but did not
        # expand; the epsilon vertex is expanded from the start.
        unexpanded = {k for k in st.vertices if not st.is_expanded(k)}
        assert unexpanded <= set(status.frontier) <= unexpanded | {st.epsilon}

    def test_thread_determinism(self):
        B = Cone(LOOP4_COLS)
        stores = []
        for threads in (1, 2, 8):
            st = DigraphStore("normalized", 3, 4)
            status = resolution_subgraph(st, B, threads=threads)
            assert isinstance(status, Complete)
            stores.append(st)
        for other in stores[1:]:
            assert stores[0].vertices == other.vertices
            assert stores[0].edges == other.edges


class TestFindCycles:
    def test_epsilon_only(self):
        st = DigraphStore("normalized", 0, 2)
        assert find_cycles(st) == []

    def test_loop_cone(self):
        st = DigraphStore("normalized", 0, 4)
        B = Cone(LOOP4_COLS)
        expand(st, B)
        key = vertex_key(st, B)
        cycles = find_cycles(st)
        assert [key] in cycles
        assert all(len(c) == 1 for c in cycles)

    def test_nash_two_cycle(self):
        st = DigraphStore("nash", 0, 3)
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        key = vertex_key(st, S)
        frontier = [key]
        expand(st, S)
        for _ in range(2):
            nxt = []
            for k in list(st.vertices):
                if not st.is_expanded(k):
                    nxt.extend(expand(st, k))
            frontier = nxt
        cycles = find_cycles(st)
        two = [c for c in cycles if len(c) == 2]
        assert any(key in c for c in two)

    def test_cycle_soundness_and_completeness_on_synthetic_store(self):
        st = DigraphStore("normalized", 0, 2)
        # Hand-build a small digraph over fake-but-wellformed vertices.
        mats = {}
        for i in range(2, 8):
            key, _ = canonical_cone(Cone([(1, 0), (1, i)]))
            mats[f"v{i}"] = key
        names = sorted(mats)
        for name in names:
            st.add_vertex(mats[name].serialization, mats[name].matrix)
        def K(name):
            return mats[name].serialization
        edges = [
            (K("v2"), K("v3")),
            (K("v3"), K("v4")),
            (K("v4"), K("v2")),  # 3-cycle
            (K("v5"), K("v5")),  # self loop
            (K("v6"), K("v7")),
            (K("v7"), K("v6")),  # 2-cycle
            (K("v4"), K("v5")),
        ]
        for a, b in edges:
            st.add_edge(a, b)
        cycles = find_cycles(st)
        # soundness: consecutive pairs (wrapping) are edges
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert (a, b) in st.edges
        # completeness vs brute force: here each SCC carries exactly one
        # simple cycle, so the reported cycles match the enumeration.
        brute = all_simple_cycles(set(st.vertices), st.edges)
        brute = {c for c in brute if c != (st.epsilon,)}
        assert len(cycles) == 3
        assert {frozenset(c) for c in cycles} == {frozenset(c) for c in brute}

    def test_max_report(self):
        st = DigraphStore("normalized", 0, 4)
        expand(st, Cone(LOOP4_COLS))
        assert find_cycles(st, max_report=0) == []


class TestSccs:
    def test_against_closure_oracle(self):
        rng = random.Random(43)
        for _ in range(300):
            vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
            density = rng.random() * 0.4
            edges = {(a, b) for a in vertices for b in vertices if rng.random() < density}
            out = {v: sorted(b for a, b in edges if a == v) for v in vertices}
            keys = rng.sample(vertices, len(vertices))
            sccs = _sccs(keys, out.__getitem__)
            assert all(scc == sorted(scc) for scc in sccs)
            assert sorted(v for scc in sccs for v in scc) == sorted(vertices)
            assert {frozenset(scc) for scc in sccs} == sccs_by_closure(vertices, edges)


class TestPersistence:
    def test_roundtrip(self, tmp_path, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        path = tmp_path / "store.jsonl"
        st.save(path)
        st2 = DigraphStore.load(path)
        assert st2.vertices == st.vertices
        assert st2.edges == st.edges
        assert st2.mode == st.mode and st2.characteristic == st.characteristic

    def test_empty_store_roundtrip(self, tmp_path):
        st = DigraphStore("nash", 5, 2)
        path = tmp_path / "s.jsonl"
        st.save(path)
        st2 = DigraphStore.load(path)
        assert st2.vertices == st.vertices and st2.edges == st.edges

    def test_concatenation_idempotent(self, tmp_path, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        path = tmp_path / "store.jsonl"
        st.save(path)
        text = path.read_text()
        double = tmp_path / "double.jsonl"
        double.write_text(text + text)
        st2 = DigraphStore.load(double)
        assert st2.vertices == st.vertices and st2.edges == st.edges

    def test_merge_union(self, tmp_path):
        a = DigraphStore("normalized", 0, 2)
        resolution_subgraph(a, Cone([(1, 0), (3, 5)]))
        b = DigraphStore("normalized", 0, 2)
        resolution_subgraph(b, Cone([(1, 0), (2, 5)]))
        av, ae = set(a.vertices), set(a.edges)
        a.merge(b)
        assert set(a.vertices) == av | set(b.vertices)
        assert a.edges == ae | b.edges

    def test_merge_keeps_the_other_stores_expansions(self, chi_cone):
        a = DigraphStore("normalized", 0, 2)
        key = vertex_key(a, chi_cone)
        b = DigraphStore("normalized", 0, 2)
        expand(b, chi_cone)
        assert not a.is_expanded(key) and b.is_expanded(key)
        a.merge(b)
        assert a.is_expanded(key)
        assert a.children_of(key) == b.children_of(key)

    def test_merge_meta_mismatch(self):
        a = DigraphStore("normalized", 0, 2)
        b = DigraphStore("normalized", 5, 2)
        with pytest.raises(StoreError):
            a.merge(b)

    def test_malformed_line_reports_number(self, tmp_path):
        st = DigraphStore("normalized", 0, 2)
        path = tmp_path / "s.jsonl"
        st.save(path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(path.read_text() + '{"kind":"vertex","key":1}\n')
        with pytest.raises(StoreError, match="line 4"):
            DigraphStore.load(bad)

    def test_load_checks_each_key_against_its_payload(self, tmp_path, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        path = tmp_path / "store.jsonl"
        st.save(path)
        lines = path.read_text().splitlines()
        lineno = next(
            i for i, line in enumerate(lines, 1) if "[[1, 1], [0, 3]]" in line
        )
        edited = [line.replace("[[1, 1], [0, 3]]", "[[8, 1], [0, 3]]") for line in lines]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(StoreError, match=rf"store\.jsonl: line {lineno}: key"):
            DigraphStore.load(path)

    def test_payload_must_match_key(self):
        st = DigraphStore("normalized", 0, 2)
        with pytest.raises(StoreError, match="does not serialize"):
            st.add_vertex("2 x 2: 1,1,0,3", IntMatrix([[8, 1], [0, 3]]))
        assert "2 x 2: 1,1,0,3" not in st.vertices

    def test_stored_key_with_wrong_payload(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        key = vertex_key(st, chi_cone)
        before = (set(st.vertices), st.edges)
        with pytest.raises(StoreError, match="does not serialize"):
            st.add_vertex(key, IntMatrix([[8, 1], [0, 3]]))
        assert (set(st.vertices), st.edges) == before

    @pytest.mark.parametrize("first", [1, 2])
    def test_first_record_must_be_meta(self, tmp_path, first):
        # The vertex line, or the edge line, of a saved store moved above
        # its meta line.
        st = DigraphStore("normalized", 0, 2)
        path = tmp_path / "s.jsonl"
        st.save(path)
        lines = path.read_text().splitlines()
        lines.insert(0, lines.pop(first))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match=r"s\.jsonl: line 1: .*meta line"):
            DigraphStore.load(path)

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_deferred_record_error_names_path_and_line(self, tmp_path, kind):
        st = DigraphStore("normalized", 0, 2)
        path = tmp_path / "s.jsonl"
        st.save(path)
        if kind == "vertex":  # a rank-3 payload in a rank-2 store
            record = {"kind": "vertex", "key": "3 x 1: 1,2,3", "matrix": [[1], [2], [3]]}
        else:  # an edge to a vertex the store does not hold
            record = {"kind": "edge", "from": st.epsilon, "to": "2 x 2: 1,1,0,3"}
        path.write_text(path.read_text() + json.dumps(record) + "\n")
        with pytest.raises(StoreError, match=r"s\.jsonl: line 4: "):
            DigraphStore.load(path)

    def test_field_names_bit_exact(self, tmp_path):
        st = DigraphStore("nash", 0, 1)
        path = tmp_path / "s.jsonl"
        st.save(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {
            "kind": "meta",
            "version": 1,
            "mode": "nash",
            "characteristic": 0,
            "rank": 1,
        }
        assert set(lines[1]) == {"kind", "key", "matrix"}
        assert set(lines[2]) == {"kind", "from", "to"}


    def test_failed_save_keeps_old_file(self, tmp_path, chi_cone, monkeypatch):
        st = DigraphStore("normalized", 0, 2)
        path = tmp_path / "store.jsonl"
        st.save(path)
        before = path.read_bytes()
        resolution_subgraph(st, chi_cone)
        to_lists = IntMatrix.to_lists
        calls = []

        def fail_after_first(self):
            calls.append(self)
            if len(calls) > 1:
                raise RuntimeError("disk gone")
            return to_lists(self)

        monkeypatch.setattr(IntMatrix, "to_lists", fail_after_first)
        with pytest.raises(RuntimeError, match="disk gone"):
            st.save(path)
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["store.jsonl"]


class TestExportDot:
    def test_epsilon_store(self):
        st = DigraphStore("normalized", 0, 2)
        dot = export_dot(st)
        assert dot.startswith("digraph")
        assert "doublecircle" in dot
        assert f'"{st.epsilon}" -> "{st.epsilon}";' in dot

    def test_deterministic(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        resolution_subgraph(st, chi_cone)
        assert export_dot(st) == export_dot(st)
        assert export_dot(st).count("->") == st.edge_count()


class TestBytePins:
    """sha256 of the saved store and of its DOT text, for one normalized
    and one Nash store: a change to how a store holds or writes its
    vertices must leave both byte-identical."""

    @staticmethod
    def _digests(st, tmp_path):
        path = tmp_path / "s.jsonl"
        st.save(path)
        return (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(export_dot(st).encode()).hexdigest(),
        )

    def test_normalized_reeves_3_5(self, tmp_path):
        st = DigraphStore("normalized", 0, 3)
        assert resolution_subgraph(st, reeves_cone(3, 5)) == Complete(7, 12)
        assert self._digests(st, tmp_path) == (
            "5bbbfb5b7296ef3294fba0a02a0fefbd97d37239e980d06d23f192da32574798",
            "935d4e291922673b48f014ba02b21278097852e2721a1ce361757a729be8fbec",
        )

    def test_nash_cycle2_under_budget(self, tmp_path):
        st = DigraphStore("nash", 0, 3)
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        status = resolution_subgraph(st, S, max_vertices=20)
        assert isinstance(status, BudgetExhausted)
        assert (status.vertex_count, status.edge_count) == (39, 59)
        assert self._digests(st, tmp_path) == (
            "aefb5a459e7c4e409f53f70cc06e8a82d452e73eb8cabc831e2d8bf4b9bb3725",
            "bc068b294e1b98c721960a4625086aba5ef9fb0d351cc6460d372b57cf7bbb34",
        )
