"""Canonical representatives modulo unimodular equivalence.

The canonical form of a pointed full-dimensional cone is the row-major
lexicographically greatest Hermite normal form over all column orderings
of its primitive extreme-ray matrix.  Two cones get equal keys iff they
are unimodularly equivalent: left-multiplying by a unimodular matrix does
not change any HNF, and column order is searched exhaustively.

The search is branch and bound.  Columns are placed one at a time with
the HNF's own column step (linalg.hnf_column_step); the committed columns
of the final HNF depend only on the placed prefix, so a branch dies as
soon as its known entries fall behind the incumbent in row-major order.

A semigroup key applies every optimal cone transform to the Hilbert basis,
sorts the columns lexicographically, and keeps the least such matrix, so
hull automorphisms cannot split an equivalence class.
"""

from dataclasses import dataclass

from .cones import Cone
from .errors import InputError, NotFullRankError, NotPointedError
from .linalg import IntMatrix, Vector, hnf_column_step
from .semigroups import AffineSemigroup


@dataclass(frozen=True)
class CanonicalKey:
    """A canonical matrix plus its bit-exact text serialization."""

    matrix: IntMatrix
    serialization: str

    @classmethod
    def from_matrix(cls, M: IntMatrix) -> "CanonicalKey":
        body = ",".join(str(x) for row in M.data for x in row)
        return cls(M, f"{M.rows} x {M.cols}: {body}")

    @classmethod
    def parse(cls, text: str) -> "CanonicalKey":
        try:
            head, body = text.split(":", 1)
            r, c = (int(t) for t in head.lower().split("x"))
            entries = [int(t) for t in body.split(",")]
        except ValueError as exc:
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


def _place_column(U: tuple, r: int, col: Vector):
    """Extend a partial HNF by one column: (new U, new r, committed column).

    A delegate rather than an alias of hnf_column_step: perfbench's tracer
    wraps every module binding of the object it traces, so an alias would
    count every HNF step as a canonical search node."""
    return hnf_column_step(U, r, col)


def _row_major(cols: list[Vector], n: int) -> tuple:
    return tuple(cols[j][i] for i in range(n) for j in range(len(cols)))


def _max_hnf_over_permutations(
    columns: tuple[Vector, ...], n: int
) -> tuple[list[Vector], list[tuple]]:
    """Max (row-major) HNF over all column orderings, with every row
    transform that realizes it."""
    m = len(columns)
    best_cols: list[Vector] | None = None
    best_key: tuple | None = None
    best_us: list[tuple] = []

    def viable(prefix: list[Vector]) -> bool:
        # Row-major walk over known entries; unknown entries end the scan.
        j = len(prefix)
        for i in range(n):
            for c in range(m):
                if c >= j:
                    return True
                a, b = prefix[c][i], best_cols[c][i]
                if a != b:
                    return a > b
        return True

    stack = [(IntMatrix.identity(n).data, 0, [], frozenset(range(m)))]
    while stack:
        U, r, prefix, remaining = stack.pop()
        if not remaining:
            nonlocal_key = _row_major(prefix, n)
            if best_key is None or nonlocal_key > best_key:
                best_key = nonlocal_key
                best_cols = list(prefix)
                best_us = [U]
            elif nonlocal_key == best_key:
                best_us.append(U)
            continue
        if best_cols is not None and not viable(prefix):
            continue
        # Try the lexicographically largest extensions first so the first
        # dive lands near the optimum and later branches prune early.
        exts = []
        for idx in remaining:
            U2, r2, hcol = _place_column(U, r, columns[idx])
            exts.append((hcol, idx, U2, r2))
        exts.sort()
        for hcol, idx, U2, r2 in exts:
            stack.append((U2, r2, prefix + [hcol], remaining - {idx}))
    assert best_cols is not None
    return best_cols, sorted(best_us)


def _canonical_cone_data(C: Cone):
    def compute():
        if not C.is_full_dimensional():
            raise NotFullRankError("canonical form needs a full-dimensional cone")
        if not C.is_pointed():
            raise NotPointedError("canonical form needs a pointed cone")
        cols, us = _max_hnf_over_permutations(C.rays, C.ambient_rank)
        key = CanonicalKey.from_matrix(IntMatrix.from_columns(cols))
        return key, tuple(IntMatrix(u) for u in us)

    return C._cached("canonical", compute)


def canonical_cone(C: Cone) -> tuple[CanonicalKey, IntMatrix]:
    """Canonical key of a cone and one unimodular transform realizing it."""
    key, us = _canonical_cone_data(C)
    return key, us[0]


def canonical_semigroup(S: AffineSemigroup) -> CanonicalKey:
    """Canonical key of a pointed full-rank affine semigroup."""
    cached = S._cache.get("canonical")
    if cached is not None:
        return cached
    _, us = _canonical_cone_data(S.hull)
    best = None
    for U in us:
        image = sorted(U.mult_vector(g) for g in S.generators)
        M = IntMatrix.from_columns(image)
        key = tuple(x for row in M.data for x in row)
        if best is None or key < best[0]:
            best = (key, M)
    result = CanonicalKey.from_matrix(best[1])
    S._cache["canonical"] = result
    return result


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
