"""Persistent partial knowledge of the Nash and normalized Nash digraphs.

A store holds each vertex once, as its canonical key, with the sorted
tuple of its children's keys, () while it is unexpanded.  A key spells
out its canonical payload matrix: save and export_dot copy it from the
key text, and only an expansion parses it.
Exploration is the breadth-first resolution subgraph: one serial loop
records each key's children in BFS order, offers the keys it will take to
worker processes that compute them ahead, and stops when the reachable
closure is complete or a budget runs out.  Stores round-trip through a
JSON-lines file, which load reads in one pass in file order, and merge by
union when their metadata agree.
"""

import json
import os
import time
from bisect import bisect_left
from collections import deque
from contextlib import AbstractContextManager, suppress
from dataclasses import dataclass
from numbers import Real

from .blowup import nash_children, normalized_nash_children
from .canonical import CanonicalKey, canonical_cone, canonical_semigroup
from .cones import Cone
from .errors import InputError, NashToricError, StoreError
from .linalg import IntMatrix, Rows, check_characteristic, identity, int_tuple
from .semigroups import AffineSemigroup

STORE_VERSION = 1
MODES = ("nash", "normalized")
_decode = json.JSONDecoder().decode


def _vertex(mode: str, payload: Rows):
    """The mode's semigroup or cone generated by the columns of payload."""
    if mode == "nash":
        return AffineSemigroup(zip(*payload), assume_minimal=True)
    return Cone(zip(*payload))


def _key(obj) -> CanonicalKey:
    """Canonical key of a semigroup or a cone."""
    if isinstance(obj, AffineSemigroup):
        return canonical_semigroup(obj)
    return canonical_cone(obj)[0]


def epsilon_key(mode: str, rank: int) -> CanonicalKey:
    """Canonical key of the unimodular vertex for the given mode."""
    return _key(_vertex(mode, identity(rank)))


def _check_rows(rows) -> None:
    """Raise unless a decoded payload is nonempty rows of ints of one
    width, the rows IntMatrix takes, except bools, which are refused."""
    if any(type(x) is not int for row in rows for x in row):
        raise StoreError("matrix entries must be integers")
    if not rows or not rows[0]:
        raise InputError("matrix must have at least one row and one column")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputError("matrix rows must all have the same length")


class DigraphStore:
    """A partially known Nash digraph: _out maps each vertex, held only as
    its canonical key, to the sorted tuple of its children's keys, each
    once, or to the shared () while it is unexpanded."""

    def __init__(self, mode: str, characteristic: int, rank: int):
        if mode not in MODES:
            raise StoreError(f"unknown mode {mode!r}")
        (rank,) = int_tuple((rank,))
        if rank < 1:
            raise StoreError("rank must be >= 1")
        self.mode = mode
        self.characteristic = check_characteristic(characteristic)
        self.rank = rank
        eps = epsilon_key(mode, rank).serialization
        self._out: dict[str, tuple[str, ...]] = {eps: (eps,)}
        self.epsilon = eps

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
        """The (source, target) pairs, read from the children tuples."""
        return frozenset((s, d) for s, dsts in self._out.items() for d in dsts)

    def add_vertex(self, key: str, matrix: IntMatrix) -> None:
        """Add a vertex given from outside, after checking that its payload
        has the store's rank and that key serializes it.  The package's own
        keys, just serialized, go into _out directly."""
        self._add_payload(key, matrix.data)

    def _add_payload(self, key: str, rows) -> None:
        """add_vertex of a payload given as nonempty integer rows of one
        width."""
        if len(rows) != self.rank:
            raise StoreError(
                f"payload has {len(rows)} rows, store rank is {self.rank}"
            )
        if key != CanonicalKey.serialize(rows):
            raise StoreError(f"key {key!r} does not serialize its payload")
        self._out.setdefault(key, ())

    def add_edge(self, src: str, dst: str) -> None:
        """Insert dst into the sorted children of src, unless already there."""
        if src not in self._out or dst not in self._out:
            raise StoreError("edge endpoints must be stored vertices")
        dsts = self._out[src]
        i = bisect_left(dsts, dst)
        if i == len(dsts) or dsts[i] != dst:
            self._out[src] = (*dsts[:i], dst, *dsts[i:])

    def children_of(self, key: str) -> tuple[str, ...]:
        return self._out.get(key, ())

    def is_expanded(self, key: str) -> bool:
        return bool(self._out.get(key))

    def vertex_count(self) -> int:
        return len(self._out)

    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def merge(self, other: "DigraphStore") -> None:
        if self.meta != other.meta:
            raise StoreError("cannot merge stores with different metadata")
        # Each key of other was checked or serialized under the same rank.
        for key, dsts in other._out.items():
            self._out[key] = tuple(sorted({*self._out.get(key, ()), *dsts}))

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the store as JSON lines copied from the checked key texts,
        which hold no character that JSON escapes.  The lines stream to a
        temporary file that then replaces path, so a failed save leaves any
        earlier file at path as it was."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        keys = sorted(self._out)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.meta) + "\n")
                fh.writelines(
                    f'{{"kind": "vertex", "key": "{key}", '
                    f'"matrix": {CanonicalKey.json_rows(key)}}}\n'
                    for key in keys
                )
                fh.writelines(
                    f'{{"kind": "edge", "from": "{src}", "to": "{dst}"}}\n'
                    for src in keys for dst in self.children_of(src)
                )
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
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    rec = _decode(line)
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
                        rows = rec["matrix"]
                        _check_rows(rows)
                        store._add_payload(rec["key"], rows)
                    elif kind == "edge":
                        store.add_edge(rec["from"], rec["to"])
                    else:
                        raise StoreError(f"unknown record kind {kind!r}")
                except StoreError as exc:
                    raise StoreError(f"{path}: line {lineno}: {exc}") from None
                except (KeyError, ValueError, TypeError) as exc:
                    raise StoreError(
                        f"{path}: line {lineno}: malformed record ({exc})"
                    ) from None
        if store is None:
            raise StoreError(f"{path}: no meta line found")
        return store


def _compute_children(mode: str, characteristic: int, key: str) -> tuple[str, ...]:
    """The sorted child keys of a vertex key, from the payload that the key
    spells out.  It reads no store, so a worker process receives the three
    arguments alone.  No smoothness test: every unimodular child's key is
    byte-equal to the store's epsilon, and in normalized mode
    normalized_nash_children has cached every child's key."""
    step = nash_children if mode == "nash" else normalized_nash_children
    rows = CanonicalKey.parse(key).matrix.data
    kids = step(_vertex(mode, rows), characteristic)
    return tuple(sorted({_key(child).serialization for child in kids}))


def vertex_key(store: DigraphStore, obj) -> str:
    """The stored key of a key, cone or semigroup.  A key must already be
    stored, and nothing is parsed; a cone or semigroup is canonicalized
    and its key added to the store."""
    if isinstance(obj, str):
        if obj not in store.vertices:
            raise StoreError(f"unknown vertex key {obj!r}")
        return obj
    kind = AffineSemigroup if store.mode == "nash" else Cone
    if not isinstance(obj, kind):
        raise StoreError(f"{store.mode}-mode vertices are {kind.__name__} objects")
    if obj.ambient_rank != store.rank:
        raise StoreError("ambient rank does not match the store")
    key = _key(obj).serialization
    store._out.setdefault(key, ())
    return key


def _record(store: DigraphStore, key: str, children: tuple[str, ...]):
    """Store the computed children of the unexpanded key and return them."""
    for child in children:
        store._out.setdefault(child, ())
    store._out[key] = children
    return children


def expand(store: DigraphStore, vertex):
    """Compute (or look up) the children of a stored key, cone or semigroup,
    record them in the store, and return the sorted child keys.  Epsilon
    is expanded when the store is built, so it expands to itself."""
    key = vertex_key(store, vertex)
    return store.children_of(key) or _record(
        store, key, _compute_children(store.mode, store.characteristic, key)
    )


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


def _serve(conn, mode: str, characteristic: int) -> None:
    """A worker: answer each key with its children or its error until EOF."""
    with suppress(EOFError):
        while True:
            key = conn.recv()
            try:
                conn.send(_compute_children(mode, characteristic, key))
            except Exception as exc:
                conn.send(exc)


class _Prefetcher(AbstractContextManager):
    """Computes children ahead of the loop of _explore on `processes` forked
    workers, at most one per CPU, and hands a key's children over, or raises
    its error, when the loop asks.  Its one feed is offered, where the loop
    appends in BFS order each unexpanded key it meets and will take; an idle
    worker takes the key the loop waits for, then the offered keys not yet
    sent.  Workers start once the loop asks while an offered key waits, and
    read the package's globals as they stood then.  Each has its own pipe
    and one key in flight at most, so no lock is shared, a dead one shows as
    end of file, and exit kills them all."""

    def __init__(self, store: DigraphStore, processes: int):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            cpus = os.cpu_count() or 1
        self.store = store
        self.processes = min(processes, cpus)
        self.offered = deque()  # keys the loop will take, in BFS order
        self._workers = {}  # pipe -> its worker process
        self._busy = {}  # pipe -> its key in flight
        self._sent = {}  # key handed out -> its result, None while in flight

    def children(self, key: str) -> tuple[str, ...]:
        if not self._workers:
            if len(self.offered) < 2:  # key (none at the start), then those waiting
                self.offered.clear()
                return _compute_children(self.store.mode, self.store.characteristic, key)
            self._start()
        self._collect(0, key)
        while self._sent.get(key) is None:
            self._collect(None, key)
        result = self._sent.pop(key)
        if isinstance(result, Exception):
            raise result
        return result

    def _start(self) -> None:
        import multiprocessing.connection  # only a run that forks pays for it

        self._ready = multiprocessing.connection.wait
        fork = multiprocessing.get_context("fork")
        for _ in range(self.processes):
            conn, there = fork.Pipe()
            args = (there, self.store.mode, self.store.characteristic)
            worker = fork.Process(target=_serve, args=args, daemon=True)
            worker.start()
            there.close()
            self._workers[conn] = worker

    def _collect(self, timeout: float | None, want: str) -> None:
        """Feed idle workers, want first; keep results back within timeout (None: wait for one)."""
        idle = [conn for conn in self._workers if conn not in self._busy]
        while idle and (want not in self._sent or self.offered):
            key = want if want not in self._sent else self.offered.popleft()
            if key not in self._sent and not self.store.is_expanded(key):
                self._send(idle.pop(), key)
        for conn in self._ready(list(self._busy), timeout):
            key = self._busy.pop(conn)
            try:
                self._sent[key] = conn.recv()
            except EOFError:
                raise NashToricError(f"a worker process died expanding {key!r}") from None

    def _send(self, conn, key: str) -> None:
        conn.send(key)
        self._busy[conn] = key
        self._sent[key] = None

    def __exit__(self, *exc):
        for conn, worker in self._workers.items():
            worker.kill()
            worker.join()
            worker.close()
            conn.close()


def check_budgets(max_vertices: int, max_seconds: float, threads: int) -> None:
    """Raise InputError unless max_vertices and threads are integers,
    max_seconds is a real number, and all three are positive."""
    seconds_ok = isinstance(max_seconds, Real) and max_seconds > 0
    if min(int_tuple((max_vertices, threads))) <= 0 or not seconds_ok:
        raise InputError("budgets and thread count must be positive")


def resolution_subgraph(
    store: DigraphStore,
    start,
    *,
    max_vertices: int = 10**6,
    max_seconds: float = 86400.0,
    threads: int = 1,
):
    """Breadth-first expansion of all descendants of start (Algorithm-1
    style): take keys from a queue, record the children of each key not yet
    expanded, and enqueue those not seen before.  max_vertices, which counts
    every key taken, and max_seconds are checked before each key.

    threads worker processes, at most one per CPU, compute ahead of the loop
    the children of keys it will take, once two such keys wait, and none
    outlives the call.  Only the loop records, so the store, the result and
    the frontier are a serial run's, and an expansion that raises does so
    after the same records.  Returns Complete with the reachable vertex and
    edge counts, or BudgetExhausted with the frontier in BFS order, each key once."""
    check_budgets(max_vertices, max_seconds, threads)
    with _Prefetcher(store, threads) as ahead:
        return _explore(store, start, max_vertices, max_seconds, ahead)


def _explore(store, start, max_vertices, max_seconds, ahead: _Prefetcher):
    """resolution_subgraph, its budgets checked, with the caller's prefetcher."""
    start_key = vertex_key(store, start)
    deadline = time.monotonic() + max_seconds
    queue, seen = deque([start_key]), {start_key}
    ahead.offered.clear()
    offer = ahead.offered.append if ahead.processes > 1 else None
    while queue:
        if len(seen) - len(queue) >= max_vertices or time.monotonic() > deadline:
            return BudgetExhausted(tuple(queue), store.vertex_count(), store.edge_count())
        key = queue.popleft()
        children = store.children_of(key) or _record(store, key, ahead.children(key))
        for child in children:
            if child not in seen:
                # len(seen) is the child's place in BFS order.
                if offer and len(seen) < max_vertices and not store.is_expanded(child):
                    offer(child)
                seen.add(child)
                queue.append(child)
    return Complete(len(seen), sum(len(store.children_of(k)) for k in seen))


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
    keys whose consecutive pairs, and last-to-first pair, are edges.  At
    most max_report cycles are returned, a nonnegative integer or None."""
    if max_report is not None and min(int_tuple((max_report,))) < 0:
        raise InputError("max_report must be nonnegative")
    keys = sorted(store.vertices)
    sccs = _sccs(keys, store.children_of)
    cycles: list[list[str]] = []
    for scc in sorted(sccs):
        if max_report is not None and len(cycles) >= max_report:
            break
        if scc == [store.epsilon]:
            continue
        # Shortest cycle through the smallest vertex, deterministic BFS.
        members = set(scc)
        source = scc[0]
        parent = {source: source}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            if source in store.children_of(v):
                path = [v]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                cycles.append(path[::-1])
                break
            for w in store.children_of(v):
                if w in members and w not in parent:
                    parent[w] = v
                    queue.append(w)
    return cycles


def export_dot(store: DigraphStore) -> str:
    """Deterministic DOT rendering; the unimodular vertex is a double
    circle, every other vertex a box labeled with its payload matrix.
    Stored keys are checked canonical text, with nothing for DOT to escape."""
    lines = ["digraph nash {"]
    keys = sorted(store.vertices)
    for key in keys:
        label = CanonicalKey.json_rows(key).replace(" ", "")
        shape = "doublecircle" if key == store.epsilon else "box"
        lines.append(f'  "{key}" [shape={shape}, label="{label}"];')
    for src in keys:
        for dst in store.children_of(src):
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
