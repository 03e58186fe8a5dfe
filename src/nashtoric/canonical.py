"""Canonical representatives modulo unimodular equivalence.

The canonical form of a pointed full-dimensional cone is the row-major
lexicographically greatest Hermite normal form over all column orderings
of its primitive extreme-ray matrix.  Two cones get equal keys iff they
are unimodularly equivalent: left-multiplying by a unimodular matrix does
not change any HNF, and column order is searched exhaustively.

A unimodular cone needs no search: every column order R P of its ray
matrix R has the identity as HNF, realized by (R P)^-1, so the key is the
identity and the transforms are the n! row orders of R^-1.

Any other cone is searched by branch and bound.  Columns are placed one
at a time with the HNF's own column step (linalg.hnf_reduce); the
committed columns of the final HNF depend only on the placed prefix, so
a branch dies as soon as its known entries fall behind the incumbent in
row-major order.  Until the last column is placed those entries are row
0's, so the bound is one comparison of the prefix's row 0 with the
incumbent's.  Each child's column is multiplied by the node's transform
once, to u = U * col.  While the prefix ties, the child's row-0 entry is
previewed from rows 0 and r.. of u (linalg.hnf_top_entry), r the pivots
placed; a child that would fall behind is never placed, and a kept child
is placed from the same u, its rows 1..r-1 filled in.  Once the prefix
has n pivots the step no longer changes the transform U, and each
remaining column commits as U * col.  The best order of that tail is
then its columns in decreasing lexicographic order, and no other order
ties it (the rays are distinct and U is unimodular), so the search
finishes such a node with one sorted tail instead of branching over it.
A finished node is compared in full.  Every column placed, and every
transform of a unimodular cone, counts against DEFAULT_SEARCH_CAP, read
at call time; past it the search raises SearchCapExceeded.

A semigroup key applies every optimal cone transform to the Hilbert basis,
sorts the columns lexicographically, and keeps the least such matrix in
row-major order, so hull automorphisms cannot split an equivalence class.
"""

from dataclasses import dataclass
from itertools import chain, permutations
from math import factorial
from operator import mul

from .cones import Cone
from .errors import InputError, SearchCapExceeded
from .linalg import IntMatrix, Vector, dot, hermite_normal_form
from .linalg import hnf_reduce, hnf_top_entry
from .semigroups import AffineSemigroup

DEFAULT_SEARCH_CAP = 10**6


@dataclass(frozen=True)
class CanonicalKey:
    """A canonical matrix plus its bit-exact text serialization."""

    matrix: IntMatrix
    serialization: str

    @classmethod
    def from_matrix(cls, M: IntMatrix) -> "CanonicalKey":
        return cls(M, cls.serialize(M.data))

    @staticmethod
    def serialize(rows) -> str:
        """The key text of a matrix given as nonempty integer rows of one
        width: "2 x 2: 1,0,0,1" for the identity.  Nothing is checked."""
        body = ",".join([str(x) for row in rows for x in row])
        return f"{len(rows)} x {len(rows[0])}: {body}"

    @staticmethod
    def json_rows(text: str) -> str:
        """The rows that canonical key text spells out, as json.dumps writes
        them: "2 x 2: 1,0,0,1" gives "[[1, 0], [0, 1]]".  Nothing is checked."""
        head, body = text.split(": ", 1)
        c, entries = int(head.partition(" x ")[2]), body.split(",")
        rows = [", ".join(entries[i : i + c]) for i in range(0, len(entries), c)]
        return f"[[{'], ['.join(rows)}]]"

    @classmethod
    def parse(cls, text: str) -> "CanonicalKey":
        try:
            head, body = text.split(":", 1)
            r, c = (int(t) for t in head.lower().split("x"))
            entries = [int(t) for t in body.split(",")]
        except ValueError:
            raise InputError(f"malformed canonical key {text!r}") from None
        if len(entries) != r * c:
            raise InputError(f"key claims {r}x{c} but has {len(entries)} entries")
        M = IntMatrix([entries[i * c : (i + 1) * c] for i in range(r)])
        key = cls.from_matrix(M)
        if key.serialization != text.strip():
            raise InputError(f"non-canonical key text {text!r}")
        return key

    def __str__(self) -> str:
        return self.serialization


def _place_column(U: tuple, r: int, u: list):
    """Extend a partial HNF by the column whose image under U is u:
    (new U, new r, committed column).

    A delegate rather than an alias of hnf_reduce: perfbench's tracer
    wraps every module binding of the object it traces, so an alias would
    count every HNF step as a canonical search node."""
    return hnf_reduce(U, r, u)


def _images(U: tuple, columns: tuple[Vector, ...], todo) -> list:
    """(idx, U * columns[idx]) for each idx of todo, each image a new list."""
    return [(i, [sum(map(mul, row, columns[i])) for row in U]) for i in todo]


def _row_major(cols: list[Vector]) -> tuple:
    return tuple(chain.from_iterable(zip(*cols)))


def _max_hnf_over_permutations(
    columns: tuple[Vector, ...], n: int
) -> tuple[list[Vector], list[tuple]]:
    """Max (row-major) HNF over all column orderings, with every row
    transform that realizes it.

    A node whose prefix has n pivots is finished with its remaining
    columns committed and sorted in decreasing lexicographic order, the
    only best order of that tail.  Each optimal ordering has exactly one
    such node, so the transforms are those of every optimal ordering.
    Raises SearchCapExceeded once more than DEFAULT_SEARCH_CAP columns
    would have been placed."""
    m = len(columns)
    cap = DEFAULT_SEARCH_CAP
    placed = 0
    # The incumbent's key is row-major, so its first m entries are row 0.
    best_key: tuple = ()
    best_cols: list[Vector] = []
    best_us: list[tuple] = []

    # A node: (U, r, committed columns, their row-0 entries, columns left).
    stack = [(IntMatrix.identity(n).data, 0, [], (), frozenset(range(m)))]
    while stack:
        U, r, prefix, row0, remaining = stack.pop()
        j = len(prefix)
        # Known entries are final and row 0 comes first in row-major order.
        if row0 < best_key[:j]:
            continue
        if r == n:
            # U is final: the tail commits as U * col, best in sorted order.
            placed += len(remaining)
            if placed > cap:
                raise SearchCapExceeded(cap)
            images = _images(U, columns, remaining)
            tail = [_place_column(U, r, u)[2] for _, u in images]
            cols = prefix + sorted(tail, reverse=True)
            key = _row_major(cols)
            if key > best_key:
                best_key, best_cols, best_us = key, cols, [U]
            elif key == best_key:
                best_us.append(U)
            continue
        if best_key and row0 == best_key[:j]:
            # Tied with the incumbent so far (so r >= 1, past the root):
            # a child whose row-0 entry falls below it is never placed.
            # The preview needs rows 0 and r.. of u alone, formed first as
            # [u_0, u_r, ...]; rows 1..r-1 are formed for a kept child only.
            floor, outer, inner = best_key[j], U[:1] + U[r:], U[1:r]
            todo = []
            for i in remaining:
                col = columns[i]
                u = [sum(map(mul, row, col)) for row in outer]
                if hnf_top_entry(u, 1) >= floor:
                    u[1:1] = [sum(map(mul, row, col)) for row in inner]
                    todo.append((i, u))
        else:
            todo = _images(U, columns, remaining)
        placed += len(todo)
        if placed > cap:
            raise SearchCapExceeded(cap)
        # Try the lexicographically largest extensions first so the first
        # dive lands near the optimum and later branches prune early.
        exts = []
        for idx, u in todo:
            U2, r2, hcol = _place_column(U, r, u)
            exts.append((hcol, idx, U2, r2))
        exts.sort()
        for hcol, idx, U2, r2 in exts:
            child = (U2, r2, prefix + [hcol], row0 + hcol[:1], remaining - {idx})
            stack.append(child)
    assert best_key
    return best_cols, sorted(best_us)


def _unimodular_cone_data(rays: tuple[Vector, ...], n: int):
    """Key and transforms of a unimodular cone without a search.

    Every column order R P of the ray matrix R has the identity as its
    HNF, realized by (R P)^-1 = P^-1 R^-1: the n! row orders of R^-1,
    which is the U of hermite_normal_form(R).  They count against
    DEFAULT_SEARCH_CAP as the placed columns of a search do."""
    if factorial(n) > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(DEFAULT_SEARCH_CAP)
    _, inverse = hermite_normal_form(IntMatrix.from_columns(rays))
    key = CanonicalKey.from_matrix(IntMatrix.identity(n))
    # Permutations of sorted rows come out in sorted order.
    return key, tuple(permutations(sorted(inverse.data)))


def _canonical_cone_data(C: Cone):
    """(key, transforms), cached on the cone: every transform realizing
    the key as a tuple of integer rows, in sorted order."""

    def compute():
        C.check_pointed_full_dimensional("canonical form")
        if C.is_unimodular():
            return _unimodular_cone_data(C.rays, C.ambient_rank)
        cols, us = _max_hnf_over_permutations(C.rays, C.ambient_rank)
        key = CanonicalKey.from_matrix(IntMatrix.from_columns(cols))
        return key, tuple(us)

    return C._cached("canonical", compute)


def canonical_cone(C: Cone) -> tuple[CanonicalKey, IntMatrix]:
    """Canonical key of a cone and one unimodular transform realizing it."""
    key, us = _canonical_cone_data(C)
    return key, IntMatrix(us[0])


def canonical_semigroup(S: AffineSemigroup) -> CanonicalKey:
    """Canonical key of a pointed full-rank affine semigroup, cached on it."""

    def compute():
        _, us = _canonical_cone_data(S.hull)
        images = (sorted(tuple(dot(row, g) for row in U) for g in S.generators) for U in us)
        return CanonicalKey.from_matrix(IntMatrix.from_columns(min(images, key=_row_major)))

    return S._cached("canonical", compute)


def are_equivalent(X, Y) -> bool:
    """Unimodular equivalence of two cones or two semigroups."""
    if isinstance(X, Cone) and isinstance(Y, Cone):
        if X.ambient_rank != Y.ambient_rank:
            raise InputError("ambient ranks differ")
        return _canonical_cone_data(X)[0] == _canonical_cone_data(Y)[0]
    if isinstance(X, AffineSemigroup) and isinstance(Y, AffineSemigroup):
        if X.ambient_rank != Y.ambient_rank:
            raise InputError("ambient ranks differ")
        return canonical_semigroup(X) == canonical_semigroup(Y)
    raise InputError("are_equivalent needs two cones or two semigroups")
