"""Exact arbitrary-precision integer linear algebra.

Normal forms (Hermite, Smith), determinants, primitivity, lattice indices
and modular basis tests.  All arithmetic uses Python integers, so results
are exact for every input; nothing here ever touches floating point.

Inside the package a matrix is Rows, a tuple of row tuples of Python
ints, which the kernels take and return unchecked.  A value from outside
is checked once, where it enters: by the functions and constructors of
__all__, parse_matrix, CanonicalKey.parse and DigraphStore.load.
IntMatrix, the checked public type, appears only there and where a value
leaves, as a CanonicalKey's matrix; the public kernels read its data.

The Hermite normal form convention is row-style: each row's pivot (first
nonzero entry) lies strictly to the right of the pivot above, pivots are
positive, and entries above a pivot are nonnegative and strictly smaller
than the pivot.  hnf_reduce computes one column of it from the column's
image u = U * col under the transform U of the earlier columns.  One
loop, _hnf_rows, reduces rows in place with it, each column of the rows
its own u: hermite_rows reduces [A | I] over the columns of A to [H | U],
and column_basis the generators as rows.  The canonical-form search of
canonical.py forms each u once, previews its row-0 entry with
hnf_top_entry (all the search's bound needs to reject a column) and
places it with hnf_reduce, so the convention behind canonical keys lives
here alone.

The Smith form is built from hermite_rows, and solve_columns is the
substitution solve_hermite over it, which a caller with fixed columns can
run over a cached hermite_rows.  One echelon step, reduce_independent,
over Q or GF(p), drives the one greedy run, independent, which gives rank,
the greedy bases of blowup.py and the seed of the placing triangulation
of semigroups.py.  Determinants and the adjugate share one fraction-free
Gauss-Jordan pass, _bareiss (Bareiss 1968); the adjugate is that pass
over [M | I].
"""

from collections.abc import Iterable, Sequence
from math import gcd, prod
from operator import add, index, mul

from .errors import InputError, NotFullRankError

Vector = tuple[int, ...]
Rows = tuple[Vector, ...]


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
        (n,) = int_tuple((n,))
        return cls(identity(n))

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
        return IntMatrix(matmul(self._data, other._data))

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


def identity(n: int) -> Rows:
    if n < 1:
        raise InputError("identity size must be >= 1")
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def matmul(A: Rows, B: Rows) -> Rows:
    cols = tuple(zip(*B))
    return tuple(tuple(dot(r, c) for c in cols) for r in A)


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def make_primitive(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    try:
        g = gcd(*v)
    except TypeError as exc:
        raise InputError(f"entries must be integers: {exc}") from None
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


def _hnf_rows(rows: Rows, width: int) -> tuple[Rows, int]:
    """The rows reduced in place by hnf_reduce, column j of them at step j
    for the first width columns, and the number of pivots found."""
    r = 0
    for j in range(width):
        rows, r, _ = hnf_reduce(rows, r, [row[j] for row in rows])
    return rows, r


def hermite_rows(rows: Rows) -> tuple[Rows, Rows]:
    """Row-style Hermite normal form (H, U) of A: U * A = H, |det U| = 1,
    and H the unique matrix in Hermite normal form with the row lattice of
    A.  The rows of [A | I] are reduced over the columns of A to [H | U]."""
    n = len(rows[0])
    rows, _ = _hnf_rows(tuple(map(add, rows, identity(len(rows)))), n)
    return tuple(row[:n] for row in rows), tuple(row[n:] for row in rows)


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """hermite_rows of A as (H, U)."""
    H, U = hermite_rows(A.data)
    return IntMatrix(H), IntMatrix(U)


def _bareiss(rows: list[Sequence[int]], n: int) -> tuple[int, list[Sequence[int]]]:
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
    det, rows = _bareiss(list(map(add, zip(*cols), identity(n))), n)
    if not det:
        raise NotFullRankError("adjugate needs a nonsingular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def smith_rows(rows: Rows) -> tuple[tuple[int, ...], Rows, Rows]:
    """Smith normal form of the nonempty rows A: (invariant_factors, left,
    right).

    left * A * right is diagonal with the positive invariant factors on the
    diagonal (padded with zeros), each factor dividing the next; left and
    right are unimodular.

    Hermite forms of D and of its transpose alternate until neither
    changes D, which leaves D diagonal (Kannan-Bachem 1979).  Where a
    factor d_i does not divide d_i+1, column i+1 is added to column i:
    the next row form puts gcd(d_i, d_i+1) < d_i at (i, i) and leaves the
    entries before it alone, so the diagonal falls in divisor order."""
    m, n = len(rows), len(rows[0])
    D, L, R = tuple(rows), identity(m), identity(n)
    while True:
        H, U = hermite_rows(D)
        G, V = hermite_rows(tuple(zip(*H)))
        L, R = matmul(U, L), matmul(R, tuple(zip(*V)))
        if H != D or G != tuple(zip(*D)):
            D = tuple(zip(*G))
            continue
        d = [D[i][i] for i in range(min(m, n))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            return tuple(x for x in d if x), L, R
        E = [list(row) for row in identity(n)]
        E[i + 1][i] = 1
        D, R = matmul(D, E), matmul(R, E)


def smith_normal_form(A: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """smith_rows of A as (invariant_factors, left, right)."""
    factors, L, R = smith_rows(A.data)
    return factors, IntMatrix(L), IntMatrix(R)


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
    """column_index of the columns of A."""
    return column_index(A.columns())


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


def solve_hermite(H: Rows, U: Rows, b: Sequence[int]) -> Vector | None:
    """solve_columns(cols, b) from (H, U) = hermite_rows(cols)."""
    # U * cols = H: solve H^T y = b by substituting down the rows of H,
    # then x = U^T y.
    residual = list(b)
    y = []
    for hrow in H:
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
    return tuple(dot(col, y) for col in zip(*U))


def solve_columns(cols: Rows, b: Sequence[int]) -> Vector | None:
    """One integer x with sum x_i cols_i = b, or None when none exists."""
    return solve_hermite(*hermite_rows(cols), b)


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution x of A x = b, or None when none exists."""
    if len(b) != A.rows:
        raise InputError("right-hand side length does not match")
    return solve_columns(A.columns(), b)


def column_basis(cols: Rows) -> Rows:
    """Canonical (column-HNF) basis of the lattice the vectors cols span, of
    full rank n: the first n rows of their row-style HNF, the rest zero."""
    n = len(cols[0])
    rows, r = _hnf_rows(tuple(cols), n)
    if r < n:
        raise NotFullRankError("columns do not span a full-rank lattice")
    return rows[:n]


def column_index(cols: Rows) -> int:
    """Index in Z^n of the lattice the vectors cols span."""
    return prod(b[i] for i, b in enumerate(column_basis(cols)))


def lattice_basis_of_columns(A: IntMatrix) -> IntMatrix:
    """The column_basis of the columns of A, as columns."""
    return IntMatrix(zip(*column_basis(A.columns())))


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
