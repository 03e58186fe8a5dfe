"""Exact arbitrary-precision integer linear algebra.

Normal forms (Hermite, Smith), determinants, primitivity, lattice indices
and modular basis tests.  All arithmetic uses Python integers, so results
are exact for every input; nothing here ever touches floating point.

The Hermite normal form convention is row-style: each row's pivot (first
nonzero entry) lies strictly to the right of the pivot above, pivots are
positive, and entries above a pivot are nonnegative and strictly smaller
than the pivot.  hnf_reduce computes one column of it from the column's
image u = U * col under the transform U of the earlier columns.  One
loop, _hnf_rows, reduces rows in place with it, each column of the rows
its own u: hermite_normal_form reduces [A | I] over the columns of A to
[H | U], and lattice_basis_of_columns the generators as rows.  The
canonical-form search of canonical.py forms each u once, previews its
row-0 entry with hnf_top_entry (all the search's bound needs to reject a
column) and places it with hnf_reduce, so the convention behind
canonical keys lives here alone.

Elimination has two kernels.  The Smith form, lattice_index and
solve_integer are built from the Hermite form.  One echelon step,
reduce_independent, over Q or GF(p), drives the one greedy run,
independent, which gives rank, the greedy bases of blowup.py and the seed
of the placing triangulation of semigroups.py.
determinant and adjugate share one fraction-free Gauss-Jordan pass
(Bareiss 1968); the adjugate is that pass over [M | I].
"""

from collections.abc import Iterable, Sequence
from math import gcd, prod
from operator import index, mul

from .errors import InputError, NotFullRankError

Vector = tuple[int, ...]


def int_tuple(values: Iterable) -> Vector:
    """values as a tuple of Python ints.  Ints, bools and numpy integers
    pass; any other entry, a float or a string, raises InputError instead
    of being truncated."""
    try:
        return tuple(map(index, values))
    except TypeError as exc:
        raise InputError(f"entries must be integers: {exc}") from None


class IntMatrix:
    """Immutable integer matrix, stored row-major as tuples of tuples."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(map(int_tuple, rows))
        if not data or not data[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise InputError("matrix rows must all have the same length")
        self._data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise InputError("identity size must be >= 1")
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, columns: Iterable[Sequence[int]]) -> "IntMatrix":
        cols = tuple(map(int_tuple, columns))
        if not cols:
            raise InputError("matrix must have at least one column")
        try:
            rows = tuple(zip(*cols, strict=True))
        except ValueError:
            raise InputError("matrix columns must all have the same length") from None
        return cls(rows)

    @property
    def data(self) -> tuple[Vector, ...]:
        return self._data

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return len(self._data[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self._data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self._data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix dimensions do not match for multiplication")
        cols = other.columns()
        return IntMatrix(
            tuple(tuple(dot(r, c) for c in cols) for r in self._data)
        )

    def mult_vector(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise InputError("vector length does not match matrix width")
        return tuple(dot(row, v) for row in self._data)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        body = ", ".join(repr(list(row)) for row in self._data)
        return f"IntMatrix([{body}])"


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def make_primitive(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise InputError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def hnf_reduce(
    U: tuple[Vector, ...], r: int, u: list[int]
) -> tuple[tuple[Vector, ...], int, Vector]:
    """Reduce the column u = U * col of a partial Hermite normal form.

    U is the row transform accumulated over the earlier columns, or the
    rows being reduced themselves, and r the number of pivots found so
    far.  u is reduced among rows r.. by Euclidean steps (the entry of
    least magnitude, first such row on ties, divides the others), the
    surviving entry moves to row r and is made positive, and the entries
    above it are reduced to [0, pivot); each step is applied to the rows
    of U alike.  Returns (new U, new r, the committed HNF column); later
    steps never change a committed column.  Rows of U are tuples, so a
    caller may branch from the same U many times; u is a list of its own,
    which the step overwrites."""
    m = len(U)
    W = list(U)
    while True:
        nz = [i for i in range(r, m) if u[i]]
        if len(nz) <= 1:
            break
        i0 = min(nz, key=lambda i: abs(u[i]))
        p, P = u[i0], W[i0]
        for i in nz:
            if i == i0:
                continue
            q = u[i] // p
            if q:
                u[i] -= q * p
                W[i] = tuple([a - q * b for a, b in zip(W[i], P)])
    if nz:
        i0 = nz[0]
        if i0 != r:
            u[r], u[i0] = u[i0], u[r]
            W[r], W[i0] = W[i0], W[r]
        if u[r] < 0:
            u[r] = -u[r]
            W[r] = tuple(-x for x in W[r])
        p, P = u[r], W[r]
        for i in range(r):
            q = u[i] // p
            if q:
                u[i] -= q * p
                W[i] = tuple([a - q * b for a, b in zip(W[i], P)])
        r += 1
    return tuple(W), r, tuple(u)


def hnf_top_entry(u: Sequence[int], r: int) -> int:
    """The row-0 entry that hnf_reduce(U, r, u) commits, for r >= 1,
    without the step.  Row 0 holds an earlier pivot, so the step only
    reduces u[0] modulo the new pivot, the gcd g of u[r:]; with no new
    pivot (g = 0) the entry stays as it is."""
    g = gcd(*u[r:])
    return u[0] % g if g else u[0]


def _hnf_rows(rows: tuple[Vector, ...], width: int) -> tuple[tuple[Vector, ...], int]:
    """The rows reduced in place by hnf_reduce, column j of them at step j
    for the first width columns, and the number of pivots found."""
    r = 0
    for j in range(width):
        rows, r, _ = hnf_reduce(rows, r, [row[j] for row in rows])
    return rows, r


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U * A = H, |det U| = 1, and H the unique matrix in
    Hermite normal form with the same row lattice as A.  The rows of
    [A | I] are reduced over the columns of A, which leaves [H | U]."""
    m, n = A.rows, A.cols
    rows = tuple(a + (0,) * i + (1,) + (0,) * (m - 1 - i) for i, a in enumerate(A.data))
    rows, _ = _hnf_rows(rows, n)
    return IntMatrix(row[:n] for row in rows), IntMatrix(row[n:] for row in rows)


def _bareiss(rows: list[list[int]], n: int) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the first n
    columns of n rows [M | B]: (det M, rows).  Every division is exact.  A
    swap negates the row it moves up, so no sign is tracked, and the rows
    end as [det(M) I | adj(M) B].  A singular M stops the pass at its
    first column without a pivot, with det 0."""
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0, rows
            rows[k], rows[swap] = [-x for x in rows[swap]], rows[k]
        Ak = rows[k]
        pivot = Ak[k]
        for i in range(n):
            if i != k:
                Ai = rows[i]
                a = Ai[k]
                rows[i] = [(pivot * x - a * y) // prev for x, y in zip(Ai, Ak)]
        prev = pivot
    return prev, rows


def determinant(A: IntMatrix) -> int:
    """Exact determinant by one fraction-free elimination pass."""
    if not A.is_square:
        raise InputError("determinant requires a square matrix")
    return _bareiss([list(row) for row in A.data], A.rows)[0]


def adjugate(cols: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Rows of the adjugate of the nonsingular square matrix M whose
    columns are cols, so that M * adj = det(M) * I: the right block of
    [M | I] after one fraction-free elimination pass."""
    n = len(cols)
    rows = [
        list(row) + [int(i == j) for j in range(n)]
        for i, row in enumerate(zip(*cols))
    ]
    det, rows = _bareiss(rows, n)
    if not det:
        raise NotFullRankError("adjugate needs a nonsingular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def smith_normal_form(
    A: IntMatrix,
) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form: (invariant_factors, left, right).

    left * A * right is diagonal with the positive invariant factors on the
    diagonal (padded with zeros), each factor dividing the next; left and
    right are unimodular.

    Hermite forms of D and of its transpose alternate until neither
    changes D, which leaves D diagonal (Kannan-Bachem 1979).  Where a
    factor d_i does not divide d_i+1, column i+1 is added to column i:
    the next row form puts gcd(d_i, d_i+1) < d_i at (i, i) and leaves the
    entries before it alone, so the diagonal falls in divisor order."""
    D, L, R = A, IntMatrix.identity(A.rows), IntMatrix.identity(A.cols)
    while True:
        H, U = hermite_normal_form(D)
        G, V = hermite_normal_form(H.transpose())
        L, R = U @ L, R @ V.transpose()
        if H != D or G != D.transpose():
            D = G.transpose()
            continue
        d = [D.data[i][i] for i in range(min(A.rows, A.cols))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            return tuple(x for x in d if x), L, R
        E = IntMatrix.identity(A.cols).to_lists()
        E[i + 1][i] = 1
        E = IntMatrix(E)
        D, R = D @ E, R @ E


def reduce_independent(rows: Sequence, v: Sequence[int], p: int):
    """Reduce v against echelon rows over Q (p = 0) or GF(p); returns the
    new echelon row or None when v is dependent."""
    if p:
        w = [x % p for x in v]
        for pos, row in rows:
            if w[pos]:
                f = w[pos] * pow(row[pos], p - 2, p) % p
                w = [(a - f * b) % p for a, b in zip(w, row)]
    else:
        w = list(v)
        for pos, row in rows:
            if w[pos]:
                a, b = row[pos], w[pos]
                w = [a * x - b * y for x, y in zip(w, row)]
    pos = next((i for i, x in enumerate(w) if x), None)
    return None if pos is None else (pos, w)


def independent(vectors: Iterable[Sequence[int]], p: int) -> list:
    """The greedy run (Edmonds 1971): in the given order, each vector
    independent over Q (p = 0) or GF(p) of the ones kept before it,
    stopping once the kept vectors form a basis."""
    kept, echelon = [], []
    for v in vectors:
        row = reduce_independent(echelon, v, p)
        if row is not None:
            kept.append(v)
            echelon.append(row)
            if len(echelon) == len(v):
                break
    return kept


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a set of integer vectors: the length of its greedy run."""
    return len(independent(rows, 0))


def lattice_index(A: IntMatrix) -> int:
    """Index in Z^n of the sublattice spanned by the columns of A: the
    product of the diagonal of its column-HNF basis."""
    B = lattice_basis_of_columns(A)
    return prod(B.data[i][i] for i in range(B.rows))


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % small == 0:
            return p == small
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> int:
    (p,) = int_tuple((p,))
    if p != 0 and not is_prime(p):
        raise InputError(f"characteristic must be 0 or a prime, got {p}")
    return p


def is_basis_modulo(columns: Sequence[Sequence[int]], p: int) -> bool:
    """True iff the n given vectors form a basis of Z^n tensored with a
    field of characteristic p (det nonzero, or nonzero mod p)."""
    p = check_characteristic(p)
    cols = [tuple(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if len(cols) != n or any(len(c) != n for c in cols):
        raise InputError(f"need exactly {n} vectors of length {n}")
    d = determinant(IntMatrix.from_columns(cols))
    return d != 0 if p == 0 else d % p != 0


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution x of A x = b, or None when none exists."""
    if len(b) != A.rows:
        raise InputError("right-hand side length does not match")
    # Row-HNF of the transpose gives A * U^T = H^T: solve H^T y = b by
    # substituting down the rows of H, then x = U^T y.
    H, U = hermite_normal_form(A.transpose())
    residual = list(b)
    y = []
    for hrow in H.data:
        pos = next((i for i, x in enumerate(hrow) if x), None)
        if pos is None:
            break
        yk, rem = divmod(residual[pos], hrow[pos])
        if rem:
            return None
        y.append(yk)
        residual = [x - yk * h for x, h in zip(residual, hrow)]
    if any(residual):
        return None
    return tuple(dot(col, y) for col in zip(*U.data))


def lattice_basis_of_columns(A: IntMatrix) -> IntMatrix:
    """Canonical (column-HNF) basis matrix of the lattice spanned by the
    columns of A.  Requires full row rank; the result is n x n.

    The columns of A, as k rows n wide, are reduced by _hnf_rows.  With n
    pivots the first n rows of their row-style HNF are the basis vectors,
    the rest zero."""
    n = A.rows
    rows, r = _hnf_rows(A.columns(), n)
    if r < n:
        raise NotFullRankError("columns do not span a full-rank lattice")
    return IntMatrix(zip(*rows[:n]))


def parse_matrix(text: str) -> IntMatrix:
    """Parse the shared matrix text format: one row per line, whitespace
    separated entries, '#' starts a comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if not rows:
        raise InputError("no matrix rows found")
    return IntMatrix(rows)


def format_matrix(A: IntMatrix) -> str:
    widths = [max(len(str(A.data[i][j])) for i in range(A.rows)) for j in range(A.cols)]
    lines = [
        " ".join(str(x).rjust(w) for x, w in zip(row, widths)) for row in A.data
    ]
    return "\n".join(lines)
