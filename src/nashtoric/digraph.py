"""Persistent partial knowledge of the Nash and normalized Nash digraphs.

A store holds canonical vertex keys with their payload matrices and the
directed child edges.  Exploration is the breadth-first resolution
subgraph: expand a vertex, record its children, stop when the reachable
closure is complete or when a budget runs out.  Stores round-trip through
a JSON-lines file and merge by set union when their metadata agree.
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
from .linalg import IntMatrix, check_characteristic, determinant
from .semigroups import AffineSemigroup

STORE_VERSION = 1
MODES = ("nash", "normalized")


def epsilon_key(mode: str, rank: int) -> CanonicalKey:
    """Canonical key of the unimodular vertex for the given mode."""
    if mode == "nash":
        return canonical_semigroup(AffineSemigroup.standard(rank))
    return canonical_cone(Cone(IntMatrix.identity(rank)))[0]


class DigraphStore:
    """Vertices (canonical payload matrices) and directed edges of a
    partially known Nash digraph."""

    def __init__(self, mode: str, characteristic: int, rank: int):
        if mode not in MODES:
            raise StoreError(f"unknown mode {mode!r}")
        if rank < 1:
            raise StoreError("rank must be >= 1")
        self.mode = mode
        self.characteristic = check_characteristic(characteristic)
        self.rank = rank
        self.vertices: dict[str, IntMatrix] = {}
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
    def edges(self) -> frozenset[tuple[str, str]]:
        """The (source, target) pairs, read from the out-neighbour sets."""
        return frozenset((s, d) for s, dsts in self._out.items() for d in dsts)

    def add_vertex(self, key: str, matrix: IntMatrix) -> None:
        if matrix.rows != self.rank:
            raise StoreError(
                f"payload has {matrix.rows} rows, store rank is {self.rank}"
            )
        existing = self.vertices.get(key)
        if existing is not None:
            if existing != matrix:
                raise StoreError(f"conflicting payloads for key {key!r}")
            return
        if key != CanonicalKey.from_matrix(matrix).serialization:
            raise StoreError(f"key {key!r} does not serialize its payload")
        self.vertices[key] = matrix
        self._out.setdefault(key, set())

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self.vertices or dst not in self.vertices:
            raise StoreError("edge endpoints must be stored vertices")
        self._out[src].add(dst)

    def children_of(self, key: str) -> tuple[str, ...]:
        return tuple(sorted(self._out.get(key, ())))

    def is_expanded(self, key: str) -> bool:
        return bool(self._out.get(key))

    def vertex_count(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def merge(self, other: "DigraphStore") -> None:
        if (self.mode, self.characteristic, self.rank) != (
            other.mode,
            other.characteristic,
            other.rank,
        ):
            raise StoreError("cannot merge stores with different metadata")
        for key, matrix in other.vertices.items():
            self.add_vertex(key, matrix)
        for src, dst in other.edges:
            self.add_edge(src, dst)

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
                    fh.write(
                        json.dumps(
                            {
                                "kind": "vertex",
                                "key": key,
                                "matrix": self.vertices[key].to_lists(),
                            }
                        )
                        + "\n"
                    )
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
        store: DigraphStore | None = None
        # Vertices and edges are added once the meta line is known; each
        # keeps its line number for the error that adding it may raise.
        pending_vertices: list[tuple[int, str, IntMatrix]] = []
        pending_edges: list[tuple[int, str, str]] = []
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
                    elif kind == "vertex":
                        pending_vertices.append(
                            (lineno, rec["key"], IntMatrix(rec["matrix"]))
                        )
                    elif kind == "edge":
                        pending_edges.append((lineno, rec["from"], rec["to"]))
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
        try:
            for lineno, key, matrix in pending_vertices:
                store.add_vertex(key, matrix)
            for lineno, src, dst in pending_edges:
                store.add_edge(src, dst)
        except StoreError as exc:
            raise StoreError(f"{path}: line {lineno}: {exc}") from None
        return store


def _payload_is_unimodular(matrix: IntMatrix) -> bool:
    return matrix.is_square and abs(determinant(matrix)) == 1


def _compute_children(
    store: DigraphStore, matrix: IntMatrix
) -> list[tuple[str, IntMatrix]]:
    """Children of a canonical payload of the store as (key, payload)
    pairs; the store itself is not changed."""
    # All unimodular vertices share the store's epsilon key byte-exactly.
    eps = (store.epsilon, store.vertices[store.epsilon])
    if _payload_is_unimodular(matrix):
        return [eps]
    nash = store.mode == "nash"
    if nash:
        S = AffineSemigroup(matrix.columns(), assume_minimal=True)
        kids = nash_children(S, store.characteristic)
    else:
        kids = normalized_nash_children(Cone(matrix), store.characteristic)
    out: dict[str, IntMatrix] = {}
    for child in kids:
        if child.is_unimodular():
            out.setdefault(*eps)
            continue
        k = canonical_semigroup(child) if nash else canonical_cone(child)[0]
        out.setdefault(k.serialization, k.matrix)
    return sorted(out.items())


def vertex_key(store: DigraphStore, obj) -> tuple[str, IntMatrix]:
    """Canonical (key, payload) of a cone or semigroup for this store."""
    if isinstance(obj, str):
        if obj not in store.vertices:
            raise StoreError(f"unknown vertex key {obj!r}")
        return obj, store.vertices[obj]
    if isinstance(obj, Cone):
        if store.mode != "normalized":
            raise StoreError("cone vertices belong to normalized-mode stores")
        if obj.ambient_rank != store.rank:
            raise StoreError("ambient rank does not match the store")
        key = canonical_cone(obj)[0]
        return key.serialization, key.matrix
    if isinstance(obj, AffineSemigroup):
        if store.mode != "nash":
            raise StoreError("semigroup vertices belong to nash-mode stores")
        if obj.ambient_rank != store.rank:
            raise StoreError("ambient rank does not match the store")
        key = canonical_semigroup(obj)
        return key.serialization, key.matrix
    raise StoreError(f"cannot key object of type {type(obj).__name__}")


def expand(store: DigraphStore, vertex, payload: IntMatrix | None = None):
    """Compute (or look up) the children of one vertex, record them in the
    store, and return the sorted child keys.  Unimodular vertices are
    terminal and expand to themselves without recomputation."""
    if isinstance(vertex, str) and vertex not in store.vertices:
        if payload is None:
            raise StoreError(f"unknown vertex key {vertex!r} and no payload given")
        store.add_vertex(vertex, payload)
        key, matrix = vertex, payload
    else:
        key, matrix = vertex_key(store, vertex)
        store.add_vertex(key, matrix)
    if store.is_expanded(key):
        return store.children_of(key)
    children = _compute_children(store, matrix)
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
    start_key, start_matrix = vertex_key(store, start)
    store.add_vertex(start_key, start_matrix)
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


def _tarjan_sccs(keys, out_edges) -> list[list[str]]:
    """Iterative Tarjan strongly connected components, deterministic."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in keys:
        if root in index:
            continue
        work = [(root, iter(out_edges(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out_edges(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(sorted(scc))
    return sccs


def find_cycles(store: DigraphStore, max_report: int | None = None):
    """One directed cycle per nontrivial strongly connected component (and
    per self-loop), excluding the epsilon self-loop.  A cycle is a list of
    keys whose consecutive pairs, and last-to-first pair, are edges."""
    keys = sorted(store.vertices)
    sccs = _tarjan_sccs(keys, store.children_of)
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
        label = json.dumps(store.vertices[key].to_lists(), separators=(",", ""))
        label = label.replace('"', '\\"')
        shape = "doublecircle" if key == store.epsilon else "box"
        lines.append(f'  "{_dot_escape(key)}" [shape={shape}, label="{label}"];')
    for src, dst in sorted(store.edges):
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
