"""Exact arbitrary-precision integer linear algebra.

Normal forms (Hermite, Smith), determinants, primitivity, lattice indices
and modular basis tests.  All arithmetic uses Python integers, so results
are exact for every input; nothing here ever touches floating point.

The Hermite normal form convention is row-style: each row's pivot (first
nonzero entry) lies strictly to the right of the pivot above, pivots are
positive, and entries above a pivot are nonnegative and strictly smaller
than the pivot.  hnf_column_step computes one column of it, and the
canonical-form search of canonical.py places its columns with that same
step, so the convention behind canonical keys lives here alone.
"""

from collections.abc import Iterable, Sequence
from math import gcd
from operator import mul

from .errors import InputError, NotFullRankError

Vector = tuple[int, ...]


class IntMatrix:
    """Immutable integer matrix, stored row-major as tuples of tuples."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(int(x) for x in row) for row in rows)
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
        cols = tuple(tuple(int(x) for x in c) for c in columns)
        if not cols:
            raise InputError("matrix must have at least one column")
        return cls(zip(*cols))

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

    def row(self, i: int) -> Vector:
        return self._data[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._data)

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
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def make_primitive(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise InputError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def hnf_column_step(
    U: tuple[Vector, ...], r: int, col: Sequence[int]
) -> tuple[tuple[Vector, ...], int, Vector]:
    """One column of the row-style Hermite normal form.

    U is the row transform accumulated over the earlier columns and r the
    number of pivots found so far.  The column U * col is reduced among
    rows r.. by Euclidean steps (the entry of least magnitude, first such
    row on ties, divides the others), the surviving entry moves to row r
    and is made positive, and the entries above it are reduced to
    [0, pivot).  Returns (new U, new r, the committed HNF column); later
    steps never change a committed column.  Rows of U are tuples, so a
    caller may branch from the same U many times."""
    m = len(col)
    u = [sum(map(mul, row, col)) for row in U]
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
                W[i] = tuple(a - q * b for a, b in zip(W[i], P))
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
                W[i] = tuple(a - q * b for a, b in zip(W[i], P))
        r += 1
    return tuple(W), r, tuple(u)


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U * A = H, |det U| = 1, and H the unique matrix in
    Hermite normal form with the same row lattice as A.  H is built one
    column at a time by hnf_column_step, from the identity transform."""
    m = A.rows
    U = tuple(tuple(int(i == k) for k in range(m)) for i in range(m))
    r = 0
    cols = []
    for col in zip(*A.data):
        U, r, h = hnf_column_step(U, r, col)
        cols.append(h)
    return IntMatrix(zip(*cols)), IntMatrix(U)


def determinant(A: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    if not A.is_square:
        raise InputError("determinant requires a square matrix")
    n = A.rows
    a = A.data
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    M = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (pivot * Mi[j] - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def smith_normal_form(
    A: IntMatrix,
) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form: (invariant_factors, left, right).

    left * A * right is diagonal with the positive invariant factors on the
    diagonal (padded with zeros), each factor dividing the next; left and
    right are unimodular.
    """
    m, n = A.rows, A.cols
    S = [list(row) for row in A.data]
    L = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i: int, k: int, q: int) -> None:
        Si, Sk = S[i], S[k]
        for c in range(n):
            Si[c] -= q * Sk[c]
        Li, Lk = L[i], L[k]
        for c in range(m):
            Li[c] -= q * Lk[c]

    def col_sub(j: int, k: int, q: int) -> None:
        for r_ in range(m):
            S[r_][j] -= q * S[r_][k]
        for r_ in range(n):
            R[r_][j] -= q * R[r_][k]

    def swap_rows(i: int, k: int) -> None:
        S[i], S[k] = S[k], S[i]
        L[i], L[k] = L[k], L[i]

    def swap_cols(j: int, k: int) -> None:
        for r_ in range(m):
            S[r_][j], S[r_][k] = S[r_][k], S[r_][j]
        for r_ in range(n):
            R[r_][j], R[r_][k] = R[r_][k], R[r_][j]

    t = 0
    while t < min(m, n):
        # Locate a nonzero entry of smallest magnitude in the submatrix.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_sub(i, t, q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_sub(j, t, q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # Pivot must divide every remaining entry; fold a bad row in and redo.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % S[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            L[t] = [-x for x in L[t]]
        t += 1

    factors = tuple(S[i][i] for i in range(min(m, n)) if S[i][i] != 0)
    return factors, IntMatrix(L), IntMatrix(R)


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of a set of integer vectors, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    n = len(work[0])
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pivot = work[r][j]
        for i in range(r + 1, len(work)):
            f = work[i][j]
            if f:
                work[i] = [pivot * a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def lattice_index(A: IntMatrix) -> int:
    """Index in Z^n of the sublattice spanned by the columns of A."""
    n = A.rows
    if rank(A.columns()) < n:
        raise NotFullRankError("columns do not span a rank-n sublattice")
    H, _ = hermite_normal_form(A.transpose())
    idx = 1
    for i in range(n):
        idx *= next(x for x in H.row(i) if x != 0)
    return idx


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
    p = int(p)
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
    # Row-HNF of the transpose gives A * U^T = H^T with H^T column-echelon.
    H, U = hermite_normal_form(A.transpose())
    HT = H.transpose()  # A.rows x A.cols
    residual = list(b)
    y = [0] * A.cols
    for k in range(H.rows):
        hrow = H.row(k)
        pivot_pos = next((i for i, x in enumerate(hrow) if x != 0), None)
        if pivot_pos is None:
            break
        piv = hrow[pivot_pos]
        if residual[pivot_pos] % piv != 0:
            return None
        yk = residual[pivot_pos] // piv
        y[k] = yk
        if yk:
            for i in range(A.rows):
                residual[i] -= yk * HT.data[i][k]
    if any(residual):
        return None
    return U.transpose().mult_vector(y)


def lattice_basis_of_columns(A: IntMatrix) -> IntMatrix:
    """Canonical (column-HNF) basis matrix of the lattice spanned by the
    columns of A.  Requires full row rank; the result is n x n."""
    n = A.rows
    H, _ = hermite_normal_form(A.transpose())
    rows = [row for row in H.data if any(row)]
    if len(rows) < n:
        raise NotFullRankError("columns do not span a full-rank lattice")
    return IntMatrix(rows).transpose()


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
