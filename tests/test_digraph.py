import json

import pytest

from nashtoric import (
    AffineSemigroup,
    BudgetExhausted,
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
    resolution_subgraph,
)
from nashtoric.digraph import vertex_key

from conftest import CYCLE2_COLS, LOOP4_COLS
from oracles import all_simple_cycles


@pytest.fixture
def chi_cone():
    return Cone([(1, 0), (3, 5)])


class TestStoreBasics:
    def test_epsilon_seeded_with_loop(self):
        st = DigraphStore("normalized", 0, 3)
        eps = st.epsilon
        assert st.vertices[eps] == IntMatrix.identity(3)
        assert (eps, eps) in st.edges

    def test_nash_epsilon(self):
        st = DigraphStore("nash", 0, 2)
        assert (st.epsilon, st.epsilon) in st.edges
        assert sorted(st.vertices[st.epsilon].columns()) == [(0, 1), (1, 0)]

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
        key = vertex_key(st, B)[0]
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

    def test_key_with_payload(self, chi_cone):
        st = DigraphStore("normalized", 0, 2)
        key = canonical_cone(chi_cone)[0]
        kids = expand(st, key.serialization, key.matrix)
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
        key = vertex_key(st, B)[0]
        cycles = find_cycles(st)
        assert [key] in cycles
        assert all(len(c) == 1 for c in cycles)

    def test_nash_two_cycle(self):
        st = DigraphStore("nash", 0, 3)
        S = AffineSemigroup(CYCLE2_COLS, assume_minimal=True)
        key = vertex_key(st, S)[0]
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
        av, ae = dict(a.vertices), set(a.edges)
        a.merge(b)
        assert set(a.vertices) == set(av) | set(b.vertices)
        assert a.edges == ae | b.edges

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
            expand(st, "2 x 2: 1,1,0,3", IntMatrix([[8, 1], [0, 3]]))
        assert "2 x 2: 1,1,0,3" not in st.vertices

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
