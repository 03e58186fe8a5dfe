"""Persistent partial knowledge of the Nash and normalized Nash digraphs.

A store holds each vertex once, as its canonical key, and the directed
child edges.  A key spells out its canonical payload matrix, which
CanonicalKey.parse reads back only to expand, save or draw a vertex.
Exploration is the breadth-first resolution subgraph: expand a vertex,
record its children, stop when the reachable closure is complete or when
a budget runs out.  Stores round-trip through a JSON-lines file, which
load reads in one pass in file order, and merge by set union when their
metadata agree.
"""

import json
import os
import time
from collections import deque
from dataclasses import dataclass

from .blowup import nash_children, normalized_nash_children
from .canonical import CanonicalKey, canonical_cone, canonical_semigroup
from .cones import Cone
from .errors import InputError, StoreError
from .linalg import IntMatrix, check_characteristic
from .semigroups import AffineSemigroup

STORE_VERSION = 1
MODES = ("nash", "normalized")


def _vertex(mode: str, payload: IntMatrix):
    """The mode's semigroup or cone generated by the columns of payload."""
    if mode == "nash":
        return AffineSemigroup(payload.columns(), assume_minimal=True)
    return Cone(payload)


def _key(obj) -> CanonicalKey:
    """Canonical key of a semigroup or a cone."""
    if isinstance(obj, AffineSemigroup):
        return canonical_semigroup(obj)
    return canonical_cone(obj)[0]


def epsilon_key(mode: str, rank: int) -> CanonicalKey:
    """Canonical key of the unimodular vertex for the given mode."""
    return _key(_vertex(mode, IntMatrix.identity(rank)))


class DigraphStore:
    """A partially known Nash digraph: _out maps each vertex, held only as
    its canonical key, to the keys of its children."""

    def __init__(self, mode: str, characteristic: int, rank: int):
        if mode not in MODES:
            raise StoreError(f"unknown mode {mode!r}")
        if rank < 1:
            raise StoreError("rank must be >= 1")
        self.mode = mode
        self.characteristic = check_characteristic(characteristic)
        self.rank = rank
        self._out: dict[str, set[str]] = {}
        eps = epsilon_key(mode, rank)
        self.add_vertex(eps.serialization, eps.matrix)
        self.add_edge(eps.serialization, eps.serialization)
        self.epsilon = eps.serialization

    @property
    def meta(self) -> dict:
        return {
            "kind": "meta",
            "version": STORE_VERSION,
            "mode": self.mode,
            "characteristic": self.characteristic,
            "rank": self.rank,
        }

    @property
    def vertices(self):
        """The stored keys, as a read-only view."""
        return self._out.keys()

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The (source, target) pairs, read from the out-neighbour sets."""
        return frozenset((s, d) for s, dsts in self._out.items() for d in dsts)

    def add_vertex(self, key: str, matrix: IntMatrix) -> None:
        if matrix.rows != self.rank:
            raise StoreError(
                f"payload has {matrix.rows} rows, store rank is {self.rank}"
            )
        if key != CanonicalKey.from_matrix(matrix).serialization:
            raise StoreError(f"key {key!r} does not serialize its payload")
        self._out.setdefault(key, set())

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._out or dst not in self._out:
            raise StoreError("edge endpoints must be stored vertices")
        self._out[src].add(dst)

    def children_of(self, key: str) -> tuple[str, ...]:
        return tuple(sorted(self._out.get(key, ())))

    def is_expanded(self, key: str) -> bool:
        return bool(self._out.get(key))

    def vertex_count(self) -> int:
        return len(self._out)

    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def merge(self, other: "DigraphStore") -> None:
        if (self.mode, self.characteristic, self.rank) != (
            other.mode,
            other.characteristic,
            other.rank,
        ):
            raise StoreError("cannot merge stores with different metadata")
        # Each key of other passed add_vertex under the same rank.
        for key, dsts in other._out.items():
            self._out.setdefault(key, set()).update(dsts)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the store as JSON lines.  The lines go to a temporary file
        beside path that then replaces it, so a save that fails partway
        leaves any earlier file at path as it was."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.meta) + "\n")
                for key in sorted(self.vertices):
                    matrix = CanonicalKey.parse(key).matrix.to_lists()
                    record = {"kind": "vertex", "key": key, "matrix": matrix}
                    fh.write(json.dumps(record) + "\n")
                for src, dst in sorted(self.edges):
                    fh.write(json.dumps({"kind": "edge", "from": src, "to": dst}) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "DigraphStore":
        """Read a saved store, or a concatenation of saved stores, in one
        pass in file order.  The first record must be a meta line and later
        meta lines must agree with it; each vertex and edge is added at its
        own line, so an error names the line that raised it."""
        store: DigraphStore | None = None
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    kind = rec["kind"]
                    if kind == "meta":
                        if rec["version"] != STORE_VERSION:
                            raise StoreError(
                                f"unsupported store version {rec['version']}"
                            )
                        meta = (rec["mode"], rec["characteristic"], rec["rank"])
                        if store is None:
                            store = cls(*meta)
                        elif (
                            store.mode,
                            store.characteristic,
                            store.rank,
                        ) != meta:
                            raise StoreError("conflicting meta lines")
                    elif store is None:
                        raise StoreError("the first record must be a meta line")
                    elif kind == "vertex":
                        store.add_vertex(rec["key"], IntMatrix(rec["matrix"]))
                    elif kind == "edge":
                        store.add_edge(rec["from"], rec["to"])
                    else:
                        raise StoreError(f"unknown record kind {kind!r}")
                except StoreError as exc:
                    raise StoreError(f"{path}: line {lineno}: {exc}") from None
                except (KeyError, ValueError, TypeError, InputError) as exc:
                    raise StoreError(
                        f"{path}: line {lineno}: malformed record ({exc})"
                    ) from None
        if store is None:
            raise StoreError(f"{path}: no meta line found")
        return store


def _compute_children(store: DigraphStore, key: str) -> list[tuple[str, IntMatrix]]:
    """Children of a stored key as sorted (key, payload) pairs, from the
    payload that the key spells out; the store itself is not changed.  No
    smoothness test: every unimodular child's key is byte-equal to the
    store's epsilon, and in normalized mode normalized_nash_children has
    cached every child's key."""
    step = nash_children if store.mode == "nash" else normalized_nash_children
    matrix = CanonicalKey.parse(key).matrix
    kids = step(_vertex(store.mode, matrix), store.characteristic)
    out: dict[str, IntMatrix] = {}
    for child in kids:
        k = _key(child)
        out.setdefault(k.serialization, k.matrix)
    return sorted(out.items())


def vertex_key(store: DigraphStore, obj) -> str:
    """The stored key of a key, cone or semigroup.  A key must already be
    stored, and nothing is parsed; a cone or semigroup is canonicalized
    and added to the store."""
    if isinstance(obj, str):
        if obj not in store._out:
            raise StoreError(f"unknown vertex key {obj!r}")
        return obj
    kind = AffineSemigroup if store.mode == "nash" else Cone
    if not isinstance(obj, kind):
        raise StoreError(f"{store.mode}-mode vertices are {kind.__name__} objects")
    if obj.ambient_rank != store.rank:
        raise StoreError("ambient rank does not match the store")
    key = _key(obj)
    store.add_vertex(key.serialization, key.matrix)
    return key.serialization


def expand(store: DigraphStore, vertex):
    """Compute (or look up) the children of a stored key, cone or semigroup,
    record them in the store, and return the sorted child keys.  Epsilon
    is expanded when the store is built, so it expands to itself."""
    key = vertex_key(store, vertex)
    if store.is_expanded(key):
        return store.children_of(key)
    children = _compute_children(store, key)
    for child_key, child_matrix in children:
        store.add_vertex(child_key, child_matrix)
        store.add_edge(key, child_key)
    return tuple(k for k, _ in children)


@dataclass(frozen=True)
class Complete:
    """The reachable closure of the start vertex is fully expanded."""

    vertex_count: int
    edge_count: int


@dataclass(frozen=True)
class BudgetExhausted:
    """Exploration stopped early; frontier holds the unvisited queue."""

    frontier: tuple[str, ...]
    vertex_count: int
    edge_count: int


def resolution_subgraph(
    store: DigraphStore,
    start,
    *,
    max_vertices: int = 10**6,
    max_seconds: float = 86400.0,
    threads: int = 1,
):
    """Breadth-first expansion of all descendants of start (Algorithm-1
    style): dequeue, skip vertices whose children are already recorded,
    otherwise expand and enqueue the children not seen before.

    Returns Complete with the reachable vertex and edge counts, or
    BudgetExhausted with the remaining frontier, each key once in BFS
    order.  The resulting vertex and edge sets are independent of the
    traversal order.  Expansion is serial: threads must be positive and
    has no other effect."""
    if max_vertices <= 0 or max_seconds <= 0 or threads <= 0:
        raise InputError("budgets and thread count must be positive")
    start_key = vertex_key(store, start)
    deadline = time.monotonic() + max_seconds
    seen = {start_key}
    queue: deque[str] = deque([start_key])
    expanded = 0
    while queue:
        if time.monotonic() > deadline or expanded >= max_vertices:
            return BudgetExhausted(
                tuple(queue), store.vertex_count(), store.edge_count()
            )
        expanded += 1
        for child in expand(store, queue.popleft()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    reach_edges = sum(len(store._out[k]) for k in seen)
    return Complete(len(seen), reach_edges)


def _sccs(keys, out_edges) -> list[list[str]]:
    """Strongly connected components, each sorted (Kosaraju-Sharir): an
    iterative depth-first search records the finish order and the reverse
    graph, then each component is what a second search reaches on the
    reverse graph from the unassigned vertex that finished last."""
    seen: set[str] = set()
    finished: list[str] = []
    reverse: dict[str, list[str]] = {}
    for root in keys:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(out_edges(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                reverse.setdefault(w, []).append(v)
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(out_edges(w))))
                    break
            else:
                work.pop()
                finished.append(v)
    assigned: set[str] = set()
    sccs: list[list[str]] = []
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        scc, stack = [], [root]
        while stack:
            v = stack.pop()
            scc.append(v)
            for w in reverse.get(v, ()):
                if w not in assigned:
                    assigned.add(w)
                    stack.append(w)
        sccs.append(sorted(scc))
    return sccs


def find_cycles(store: DigraphStore, max_report: int | None = None):
    """One directed cycle per nontrivial strongly connected component (and
    per self-loop), excluding the epsilon self-loop.  A cycle is a list of
    keys whose consecutive pairs, and last-to-first pair, are edges."""
    keys = sorted(store.vertices)
    sccs = _sccs(keys, store.children_of)
    cycles: list[list[str]] = []
    for scc in sorted(sccs):
        if max_report is not None and len(cycles) >= max_report:
            break
        members = set(scc)
        if len(scc) == 1:
            v = scc[0]
            if v == store.epsilon or v not in store._out[v]:
                continue
            cycles.append([v])
            continue
        # Shortest cycle through the smallest vertex, deterministic BFS.
        source = scc[0]
        if source in store._out[source]:
            cycles.append([source])
            continue
        parent: dict[str, str] = {}
        frontier = deque()
        for w in store.children_of(source):
            if w in members and w != source:
                parent.setdefault(w, source)
                frontier.append(w)
        found = None
        while frontier and found is None:
            v = frontier.popleft()
            for w in store.children_of(v):
                if w == source:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    found = list(reversed(path))
                    break
                if w in members and w not in parent:
                    parent[w] = v
                    frontier.append(w)
        if found:
            cycles.append(found)
    return cycles


def export_dot(store: DigraphStore) -> str:
    """Deterministic DOT rendering; the unimodular vertex is a double
    circle, every other vertex a box labeled with its payload matrix."""
    lines = ["digraph nash {"]
    for key in sorted(store.vertices):
        label = CanonicalKey.parse(key).matrix.to_lists()
        label = json.dumps(label, separators=(",", ""))
        label = label.replace('"', '\\"')
        shape = "doublecircle" if key == store.epsilon else "box"
        lines.append(f'  "{_dot_escape(key)}" [shape={shape}, label="{label}"];')
    for src, dst in sorted(store.edges):
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
