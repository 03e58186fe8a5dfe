import hashlib
import json
import itertools
import multiprocessing
import os
import pickle
import random
import signal
import time
import types

import pytest
from click.testing import CliRunner

import nashtoric.blowup
import nashtoric.canonical
import nashtoric.digraph
from nashtoric import (
    AffineSemigroup,
    BasisCapExceeded,
    BudgetExhausted,
    CanonicalKey,
    Complete,
    Cone,
    DigraphStore,
    InputError,
    IntMatrix,
    NashToricError,
    SearchCapExceeded,
    StoreError,
    canonical_cone,
    expand,
    export_dot,
    find_cycles,
    reeves_cone,
    resolution_subgraph,
    sample_random,
)
from nashtoric.cli import main
from nashtoric.digraph import _sccs, vertex_key

from conftest import CYCLE2_COLS, LOOP4_COLS
from oracles import (
    all_simple_cycles,
    sccs_by_closure,
    shortest_cycle_through,
    store_lines_by_json,
)


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

    def test_rank_is_an_integer(self, tmp_path):
        """A non-integral rank raises InputError, as a non-integral
        characteristic does; an integral one is stored as an int."""
        for rank in (2.0, 2.5, "2"):
            with pytest.raises(InputError):
                DigraphStore("nash", 0, rank)
        st = DigraphStore("nash", 0, True)
        assert st.rank == 1 and type(st.rank) is int
        st.save(tmp_path / "s.jsonl")
        with open(tmp_path / "s.jsonl", encoding="utf-8") as fh:
            assert json.loads(fh.readline())["rank"] == 1
        assert DigraphStore.load(tmp_path / "s.jsonl").rank == 1

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

    @staticmethod
    def _synthetic_store():
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
        return st

    def test_cycle_soundness_and_completeness_on_synthetic_store(self):
        st = self._synthetic_store()
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

    def test_negative_or_non_integer_max_report_rejected(self, tmp_path):
        st = self._synthetic_store()
        assert len(find_cycles(st, max_report=2)) == 2
        for bad in (-1, 1.5, "2"):
            with pytest.raises(InputError):
                find_cycles(st, max_report=bad)
        path = str(tmp_path / "cycles.jsonl")
        st.save(path)
        r = CliRunner().invoke(main, ["cycles", "--store", path, "--max-report", "-1"])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == "error: max_report must be nonnegative\n"

    def test_one_shortest_cycle_per_component_on_random_stores(self):
        rng = random.Random(47)
        keys = [canonical_cone(Cone([(1, 0), (1, i)]))[0] for i in range(2, 10)]
        names = [k.serialization for k in keys]
        for _ in range(300):
            st = DigraphStore("normalized", 0, 2)
            vertices = rng.sample(names, rng.randint(1, len(names)))
            for k in keys:
                if k.serialization in vertices:
                    st.add_vertex(k.serialization, k.matrix)
            density = rng.random() * 0.4
            targets = vertices + [st.epsilon]
            for a in vertices:
                for b in targets:
                    if rng.random() < density:
                        st.add_edge(a, b)
            edges = set(st.edges)
            cycles = find_cycles(st)
            expected = {}
            for scc in sccs_by_closure(set(st.vertices), edges):
                v = min(scc)
                if v != st.epsilon and (len(scc) > 1 or (v, v) in edges):
                    expected[v] = (scc, shortest_cycle_through(edges, v))
            assert sorted(c[0] for c in cycles) == sorted(expected)
            for cyc in cycles:
                scc, length = expected[cyc[0]]
                assert len(cyc) == length and set(cyc) <= scc
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert (a, b) in edges


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
        resolution_subgraph(b, Cone([(1, 0), (2, 7)]))
        av, ae = set(a.vertices), set(a.edges)
        # b holds vertices and edges that a lacks, so dropping them fails.
        assert set(b.vertices) - av and b.edges - ae
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

    _GOOD = '{"kind": "vertex", "key": "2 x 2: 1,1,0,3", "matrix": [[1, 1], [0, 3]]}'

    @pytest.mark.parametrize(
        "record",
        [
            _GOOD.replace("[[1, 1]", "[[1.0, 1]"),
            _GOOD.replace("[[1, 1]", '[["1", 1]'),
            _GOOD.replace("[0, 3]]", "[0]]"),
            _GOOD.replace("[[1, 1], [0, 3]]", "[]"),
            _GOOD.replace("2 x 2: ", "2 x 2:  "),
            _GOOD + "}",
            _GOOD.replace("[[1, 1], [0, 3]]", "[[true, 1], [false, 3]]"),
        ],
        ids=["float", "string", "ragged", "empty", "key-space", "trailing-brace", "bool"],
    )
    def test_malformed_vertex_record_names_its_line(self, tmp_path, record):
        st = DigraphStore("normalized", 0, 2)
        path = tmp_path / "s.jsonl"
        st.save(path)
        saved = path.read_text()
        path.write_text(saved + self._GOOD + "\n")
        assert "2 x 2: 1,1,0,3" in DigraphStore.load(path).vertices
        path.write_text(saved + record + "\n")
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
        json_rows = CanonicalKey.json_rows
        calls = []

        def fail_after_first(key):
            # The second vertex line: the first one is already written to
            # the temporary file.
            calls.append(sorted(f.name for f in tmp_path.iterdir()))
            if len(calls) > 1:
                raise RuntimeError("disk gone")
            return json_rows(key)

        monkeypatch.setattr(CanonicalKey, "json_rows", staticmethod(fail_after_first))
        with pytest.raises(RuntimeError, match="disk gone"):
            st.save(path)
        assert len(calls) == 2
        assert len(calls[1]) == 2 and calls[1][1].endswith(".tmp")
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


def _explored(mode, p, rank, starts, max_vertices=10**6):
    st = DigraphStore(mode, p, rank)
    for start in starts:
        resolution_subgraph(st, start, max_vertices=max_vertices)
    return st


_WRITER_CASES = {
    "nash-1": lambda: DigraphStore("nash", 0, 1),
    "normalized-1": lambda: DigraphStore("normalized", 0, 1),
    "nash-2": lambda: _explored(
        "nash", 0, 2, [AffineSemigroup([(1, 0), (1, 1), (1, 2), (3, 7)])], 10
    ),
    "normalized-2": lambda: _explored("normalized", 0, 2, [Cone([(1, 0), (3, 5)])]),
    "nash-3-cycle2": lambda: _explored(
        "nash", 0, 3, [AffineSemigroup(CYCLE2_COLS, assume_minimal=True)], 20
    ),
    "normalized-3-reeves": lambda: _explored(
        "normalized", 0, 3, [reeves_cone(3, j) for j in (5, 7, 12)]
    ),
    "nash-4": lambda: _explored("nash", 0, 4, [AffineSemigroup(LOOP4_COLS)], 3),
    "normalized-4-loop4-p3": lambda: _explored("normalized", 3, 4, [Cone(LOOP4_COLS)]),
}


@pytest.fixture(scope="module")
def writer_stores():
    return {name: build() for name, build in _WRITER_CASES.items()}


def _oracle_bytes(st):
    matrices = {k: CanonicalKey.parse(k).matrix.to_lists() for k in st.vertices}
    return "".join(store_lines_by_json(st.meta, matrices, st.edges)).encode()


class TestWriterAgainstJson:
    """save writes each line from the key text; the oracle writes one
    json.dumps per record from the parsed matrices."""

    @pytest.mark.parametrize("name", sorted(_WRITER_CASES))
    def test_saved_bytes_match_oracle(self, tmp_path, writer_stores, name):
        st = writer_stores[name]
        path = tmp_path / "s.jsonl"
        st.save(path)
        assert path.read_bytes() == _oracle_bytes(st)

    def test_cases_cover_signs_and_widths(self, writer_stores):
        entries = {
            int(x)
            for st in writer_stores.values()
            for key in st.vertices
            for x in key.split(": ")[1].split(",")
        }
        assert min(entries) < 0 and max(entries) >= 10
        assert {st.rank for st in writer_stores.values()} == {1, 2, 3, 4}

    def test_concatenated_saves_load_to_the_union(self, tmp_path):
        a = _explored("normalized", 0, 3, [reeves_cone(3, 7)])
        b = _explored("normalized", 0, 3, [reeves_cone(3, 12)])
        assert set(b.vertices) - set(a.vertices)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.save(pa)
        b.save(pb)
        both = tmp_path / "both.jsonl"
        both.write_bytes(pa.read_bytes() + pb.read_bytes())
        loaded = DigraphStore.load(both)
        a.merge(b)
        assert loaded.vertices == a.vertices and loaded.edges == a.edges
        loaded.save(both)
        assert both.read_bytes() == _oracle_bytes(a)


@pytest.fixture
def handoff(monkeypatch):
    """The keys that prefetchers hand to worker processes, in order, and the
    number of workers of each prefetcher that starts them."""
    seen = types.SimpleNamespace(keys=[], workers=[])
    prefetcher = nashtoric.digraph._Prefetcher
    send, start = prefetcher._send, prefetcher._start

    def spy_send(ahead, conn, key):
        seen.keys.append(key)
        send(ahead, conn, key)

    def spy_start(ahead):
        start(ahead)
        seen.workers.append(ahead.processes)

    monkeypatch.setattr(prefetcher, "_send", spy_send)
    monkeypatch.setattr(prefetcher, "_start", spy_start)
    return seen


def _expanded(saved: bytes) -> set[str]:
    """The keys that a saved store expanded: the sources of its edges."""
    records = map(json.loads, saved.splitlines())
    return {rec["from"] for rec in records if rec["kind"] == "edge"}


def _run_saved(tmp_path, threads, mode, p, rank, start, **budget):
    """The result and the saved bytes of one exploration from a new store;
    no worker process may outlive it."""
    st = DigraphStore(mode, p, rank)
    status = resolution_subgraph(st, start, threads=threads, **budget)
    assert multiprocessing.active_children() == []
    path = tmp_path / f"threads{threads}.jsonl"
    st.save(path)
    return status, path.read_bytes()


_POOL_CASES = {
    "loop4-p2": ("normalized", 2, 4, lambda: Cone(LOOP4_COLS), {}),
    "loop4-p3": ("normalized", 3, 4, lambda: Cone(LOOP4_COLS), {}),
    **{
        f"reeves-3-{j}": ("normalized", 0, 3, lambda j=j: reeves_cone(3, j), {})
        for j in range(1, 13)
    },
    "nash-cycle2-20": (
        "nash", 0, 3, lambda: AffineSemigroup(CYCLE2_COLS, assume_minimal=True),
        {"max_vertices": 20},
    ),
}


class TestPooledAgainstSerial:
    """threads=2 computes children ahead of the BFS loop on worker processes,
    once two keys wait to be expanded; the result, the frontier and the
    saved bytes must be a serial run's, since only the loop records, in BFS
    order."""

    @pytest.mark.parametrize("name", sorted(_POOL_CASES))
    def test_same_saved_bytes(self, tmp_path, handoff, name):
        mode, p, rank, start, budget = _POOL_CASES[name]
        serial = _run_saved(tmp_path, 1, mode, p, rank, start(), **budget)
        assert handoff.keys == [] and handoff.workers == []
        assert _run_saved(tmp_path, 2, mode, p, rank, start(), **budget) == serial
        # reeves_cone(3, j) for j <= 3 never has two keys waiting at once.
        assert bool(handoff.keys) == (name not in ("reeves-3-1", "reeves-3-2", "reeves-3-3"))

    def test_levels_cut_by_the_vertex_budget(self, tmp_path, handoff):
        # LOOP4 at p = 3 has BFS levels of 1, 4, 13, 15, 16 and 4 keys, so
        # most budgets below 31 cut a level in the middle.
        for max_vertices in range(1, 31):
            serial = _run_saved(
                tmp_path, 1, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=max_vertices
            )
            before = len(handoff.keys)
            pooled = _run_saved(
                tmp_path, 2, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=max_vertices
            )
            assert isinstance(serial[0], BudgetExhausted)
            assert pooled == serial
            # No speculation: only keys that the serial run expands go out.
            assert len(handoff.keys) - before <= max_vertices
            assert set(handoff.keys[before:]) <= _expanded(serial[1])
        # The level of 13 keys went to the workers.
        assert len(handoff.keys) >= 13

    def test_speculation_past_a_slow_key_is_bounded(self, tmp_path, monkeypatch, handoff):
        """While the loop waits on a slow first child of the start, the other
        worker runs ahead; a run stopped by max_vertices = t still hands out
        at most t keys, each one that a serial run expands, and records what
        a serial run does."""
        st = DigraphStore("normalized", 3, 4)
        first = resolution_subgraph(st, Cone(LOOP4_COLS), max_vertices=1)
        slow = next(key for key in first.frontier if key != st.epsilon)
        compute = nashtoric.digraph._compute_children
        serial = {
            t: _run_saved(tmp_path, 1, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=t)
            for t in (3, 4, 7)
        }

        def slow_first_child(mode, p, key):
            if key == slow:
                time.sleep(0.5)
            return compute(mode, p, key)

        monkeypatch.setattr(nashtoric.digraph, "_compute_children", slow_first_child)
        for t, want in serial.items():
            before = len(handoff.keys)
            pooled = _run_saved(tmp_path, 2, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=t)
            assert pooled == want
            assert len(handoff.keys) - before <= t
            assert set(handoff.keys[before:]) <= _expanded(want[1])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_deadline_inside_a_level(self, tmp_path, monkeypatch, handoff, threads):
        """A clock that ticks once a reading passes max_seconds = t + 0.5 as
        the (t + 1)-th key is taken, where max_vertices = t stops a run: the
        same frontier and bytes, also where the deadline falls inside a
        level whose keys went to the workers ahead of the loop."""
        for t in range(1, 31):
            ticks = itertools.count()
            with monkeypatch.context() as patched:
                patched.setattr(
                    nashtoric.digraph, "time", types.SimpleNamespace(monotonic=lambda: next(ticks))
                )
                timed = _run_saved(
                    tmp_path, threads, "normalized", 3, 4, Cone(LOOP4_COLS), max_seconds=t + 0.5
                )
            budgeted = _run_saved(
                tmp_path, 1, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=t
            )
            assert isinstance(timed[0], BudgetExhausted)
            assert timed == budgeted
        # The level of 13 keys went to the workers.
        assert (len(handoff.keys) >= 13) == (threads == 2)

    @pytest.mark.parametrize(
        "threads, cpus, pools", [(100_000, 3, [3]), (2, 3, [2]), (100_000, 1, [])]
    )
    def test_pool_size_is_capped_by_the_cpus(self, monkeypatch, handoff, threads, cpus, pools):
        """A prefetcher starts no more workers than the CPUs this process may
        use, and with one CPU none."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        status = resolution_subgraph(
            DigraphStore("normalized", 3, 4), Cone(LOOP4_COLS), threads=threads
        )
        assert multiprocessing.active_children() == []
        assert status == resolution_subgraph(DigraphStore("normalized", 3, 4), Cone(LOOP4_COLS))
        assert handoff.workers == pools

    def test_a_killed_worker_raises_naming_its_key(self, monkeypatch, handoff):
        """A task that SIGKILLs its own worker ends the run within seconds
        with the package's error, naming a key that went to the workers, and
        leaves no child process."""
        parent, compute = os.getpid(), nashtoric.digraph._compute_children

        def compute_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return compute(*args)

        monkeypatch.setattr(nashtoric.digraph, "_compute_children", compute_or_die)
        began = time.perf_counter()
        with pytest.raises(NashToricError, match="worker process died") as info:
            resolution_subgraph(DigraphStore("normalized", 3, 4), Cone(LOOP4_COLS), threads=2)
        assert time.perf_counter() - began < 10
        assert type(info.value) is NashToricError
        assert any(repr(key) in str(info.value) for key in handoff.keys)
        assert multiprocessing.active_children() == []

    def test_deadline_does_not_wait_for_a_task_in_flight(self, tmp_path, monkeypatch, handoff):
        """The clock of test_deadline_inside_a_level stops the run after the
        start and its 4 children; the workers take keys of the next level
        meanwhile, each of which sleeps a minute.  The run returns at once,
        as a serial run with max_vertices = 5 would."""
        budgeted = _run_saved(tmp_path, 1, "normalized", 3, 4, Cone(LOOP4_COLS), max_vertices=5)
        asleep = set(budgeted[0].frontier)
        compute = nashtoric.digraph._compute_children

        def slow_next_level(mode, p, key):
            if key in asleep:
                time.sleep(60)
            return compute(mode, p, key)

        ticks = itertools.count()
        monkeypatch.setattr(nashtoric.digraph, "_compute_children", slow_next_level)
        monkeypatch.setattr(
            nashtoric.digraph, "time", types.SimpleNamespace(monotonic=lambda: next(ticks))
        )
        began = time.perf_counter()
        timed = _run_saved(tmp_path, 2, "normalized", 3, 4, Cone(LOOP4_COLS), max_seconds=5.5)
        assert time.perf_counter() - began < 10
        assert timed == budgeted
        assert asleep & set(handoff.keys)

    def test_sample_keeps_its_store_digest(self, tmp_path, handoff):
        st = DigraphStore("nash", 0, 2)
        run = sample_random(2, "nash", 60, 20260810, 4, threads=2, store=st)
        assert multiprocessing.active_children() == []
        # One prefetcher serves every object, and starts its workers once.
        assert handoff.keys and len(handoff.workers) == 1
        assert (run.resolved, run.budget_exhausted, run.cycles_found) == (60, 0, 0)
        path = tmp_path / "sample.jsonl"
        st.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8c84f4a7d36e61168c955788e4c47650dd716acb8f9189786eb3348a62497ea2"
        )

    def test_a_budgeted_sample_hands_out_only_keys_it_expands(self, tmp_path, handoff):
        """16 of these 20 objects stop on max_vertices; with 2 workers the
        store is the serial one, and every key handed out is one that the
        serial run expands."""
        saved = []
        for threads in (1, 2):
            st = DigraphStore("nash", 0, 2)
            run = sample_random(2, "nash", 20, 20260810, 4, max_vertices=5, threads=threads, store=st)
            assert multiprocessing.active_children() == []
            assert (run.resolved, run.budget_exhausted) == (4, 16)
            path = tmp_path / f"threads{threads}.jsonl"
            st.save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]
        assert handoff.keys and set(handoff.keys) <= _expanded(saved[0])

    @pytest.mark.parametrize("error", [BasisCapExceeded(7), SearchCapExceeded(7)])
    def test_cap_errors_unpickle_to_themselves(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert (type(back), back.cap, str(back)) == (type(error), 7, str(error))

    @pytest.mark.parametrize(
        "error, cap, mode, p, rank",
        [
            (SearchCapExceeded, 400, "normalized", 3, 4),
            (SearchCapExceeded, 1000, "normalized", 3, 4),
            (SearchCapExceeded, 100, "nash", 0, 3),
            (BasisCapExceeded, 40, "normalized", 3, 4),
            (BasisCapExceeded, 10, "nash", 0, 3),
        ],
    )
    def test_a_cap_error_crosses_the_pool_unchanged(
        self, tmp_path, monkeypatch, handoff, error, cap, mode, p, rank
    ):
        """A cap patched before the call is what the workers read; the first
        key in BFS order that trips it raises, after the same records.  The
        start is LOOP4 in normalized mode and CYCLE2 in Nash mode, and its
        key is taken before the cap is lowered."""
        module, attr = {
            SearchCapExceeded: (nashtoric.canonical, "DEFAULT_SEARCH_CAP"),
            BasisCapExceeded: (nashtoric.blowup, "DEFAULT_BASIS_CAP"),
        }[error]
        runs = []
        for threads in (1, 2):
            st = DigraphStore(mode, p, rank)
            if mode == "nash":
                key = vertex_key(st, AffineSemigroup(CYCLE2_COLS, assume_minimal=True))
            else:
                key = vertex_key(st, Cone(LOOP4_COLS))
            with monkeypatch.context() as patched:
                patched.setattr(module, attr, cap)
                with pytest.raises(error) as info:
                    resolution_subgraph(st, key, threads=threads, max_vertices=40)
            assert multiprocessing.active_children() == []
            path = tmp_path / f"threads{threads}.jsonl"
            st.save(path)
            exc = info.value
            runs.append((type(exc), exc.cap, str(exc), path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == cap and runs[0][2].endswith(f"cap of {cap}")
        # The serial run starts no worker, so these are the pooled run's
        # hand-offs; in every case the key that raises lies in level 1 or 2,
        # which have 4 and 13 keys for both starts.
        assert handoff.keys
