import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashtoric import (
    AffineSemigroup,
    Cone,
    DigraphStore,
    InputError,
    IntMatrix,
    NotFullRankError,
    StoreError,
    determinant,
    format_matrix,
    hermite_normal_form,
    is_basis_modulo,
    lattice_index,
    make_primitive,
    parse_matrix,
    resolution_subgraph,
    semigroup_member,
    smith_normal_form,
)
from nashtoric.cones import dual_description
from nashtoric.linalg import adjugate, check_characteristic, independent, rank
from nashtoric.linalg import reduce_independent
from nashtoric.linalg import dot, hnf_reduce, hnf_top_entry, solve_integer
from nashtoric.linalg import lattice_basis_of_columns

from conftest import RUNNING_COLS, RUNNING_HNF_COLS, random_unimodular
from oracles import det_cofactor, hnf_by_search, is_hnf, rank_over_field
from oracles import lattice_basis_by_minors, snf_factors_by_minor_gcd

small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestIntMatrix:
    def test_validation(self):
        with pytest.raises(InputError):
            IntMatrix([])
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [3]])

    def test_ragged_columns_rejected(self):
        """Columns of unequal length raise, as ragged rows do, instead of
        being cut to the shortest."""
        for cols in ([(1, 2), (3,)], [(3,), (1, 2)], [(1, 2, 3), (4, 5), (6, 7, 8)]):
            with pytest.raises(InputError, match="same length"):
                IntMatrix.from_columns(cols)
        assert IntMatrix.from_columns([(1, 2), (3, 4)]) == IntMatrix([[1, 3], [2, 4]])

    def test_rejects_non_integral_entries(self, tmp_path):
        """A float is refused where it would have been truncated; ints,
        bools and numpy integers pass."""
        M = IntMatrix([[True, np.int64(2)]])
        assert M.data == ((1, 2),) and {type(x) for x in M.data[0]} == {int}
        assert Cone([(np.int32(1), 0), (0, 1)]) == Cone([(1, 0), (0, 1)])
        rejected = (
            lambda: Cone([(1.9, 0), (0.5, 1)]),
            lambda: IntMatrix([[2.7]]),
            lambda: IntMatrix.from_columns([(2.7,)]),
            lambda: dual_description([(1, 0.5)], 2),
            lambda: AffineSemigroup([(1, 0), (0.5, 1)]),
            lambda: AffineSemigroup([(1, 0), (0, 1), (0.0, 0.0)]),
            lambda: semigroup_member([(1, 0), (0, 1)], (1.5, 0)),
            lambda: check_characteristic(2.5),
        )
        for call in rejected:
            with pytest.raises(InputError):
                call()
        store = DigraphStore("normalized", 0, 2)
        resolution_subgraph(store, Cone([(1, 0), (3, 5)]))
        path = tmp_path / "store.jsonl"
        store.save(path)
        text = path.read_text()
        lineno = text[: text.index("[[1, 1], [0, 3]]")].count("\n") + 1
        path.write_text(text.replace("[[1, 1], [0, 3]]", "[[1.4, 1.4], [0.4, 3.4]]"))
        with pytest.raises(StoreError, match=f"line {lineno}:"):
            DigraphStore.load(path)

    def test_columns_roundtrip(self):
        M = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert IntMatrix.from_columns(M.columns()) == M
        assert M.transpose().transpose() == M

    def test_matmul(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert A @ IntMatrix.identity(2) == A
        assert A.mult_vector((1, 1)) == (3, 7)


class TestHermite:
    def test_identity(self):
        for n in (1, 2, 4):
            H, U = hermite_normal_form(IntMatrix.identity(n))
            assert H == IntMatrix.identity(n)
            assert U == IntMatrix.identity(n)

    def test_paper_equivalence_display(self):
        A = IntMatrix.from_columns(RUNNING_COLS)
        H, U = hermite_normal_form(A)
        assert H == IntMatrix.from_columns(RUNNING_HNF_COLS)
        assert U @ A == H
        assert abs(determinant(U)) == 1

    def test_small_fixture_against_exhaustive_search(self):
        # Unique HNF of [[2,4],[1,3]] found by exhaustive row operations.
        expected = hnf_by_search([[2, 4], [1, 3]], bound=6)
        assert expected == ((1, 1), (0, 2))
        H, _ = hermite_normal_form(IntMatrix([[2, 4], [1, 3]]))
        assert H.data == expected

    def test_idempotent_and_unimodular_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            A = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            )
            H, U = hermite_normal_form(A)
            assert is_hnf(H.data)
            assert U @ A == H
            assert abs(determinant(U)) == 1
            assert hermite_normal_form(H)[0] == H
            V = random_unimodular(n, rng)
            assert hermite_normal_form(V @ A)[0] == H

    @settings(max_examples=60, deadline=None)
    @given(small_matrix)
    def test_hypothesis_hnf_contract(self, rows):
        A = IntMatrix(rows)
        H, U = hermite_normal_form(A)
        assert is_hnf(H.data)
        assert U @ A == H

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.integers(0, 2**32),
                st.integers(1, n),
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                st.booleans(),
            )
        )
    )
    def test_top_entry_matches_column_step(self, case):
        """The row-0 preview is the row-0 entry of the step, for every
        r >= 1; a zero tail U[r:] * col leaves no new pivot."""
        seed, r, w, zero_tail = case
        n = len(w)
        U = random_unimodular(n, random.Random(seed))
        col = w
        if zero_tail:
            # col = U^-1 w with w zero past row r, so U[r:] * col = 0.
            inverse = hermite_normal_form(U)[1]
            col = inverse.mult_vector(w[:r] + [0] * (n - r))
        u = U.mult_vector(col)
        step = hnf_reduce(U.data, r, [dot(row, col) for row in U.data])
        assert hnf_top_entry(u, r) == step[2][0]

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form as sym_hnf

        # sympy's convention is column-style; compare through transposes.
        rng = random.Random(3)
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            A = IntMatrix(rows)
            if rank(rows) < min(n, m):
                continue
            ours = hermite_normal_form(A)[0]
            theirs = sym_hnf(sympy.Matrix(rows).T).T
            got = [list(r) for r in ours.data if any(r)]
            want = [[int(x) for x in theirs.row(i)] for i in range(theirs.rows)]
            want = [r for r in want if any(r)]
            # sympy drops zero rows and may order differently; compare the
            # row-lattice canonical forms.
            if want:
                assert hermite_normal_form(IntMatrix(want))[0].data[: len(got)] == tuple(
                    tuple(r) for r in got
                )


class TestDeterminant:
    def test_examples(self):
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix.from_columns([(2, 1), (1, 3)])) == 5
        assert det_cofactor([[2, 1], [1, 3]]) == 5
        assert determinant(IntMatrix.from_columns([(1, 0), (2, 0)])) == 0

    def test_non_square(self):
        with pytest.raises(InputError):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_cofactor_oracle_and_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            B = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            MA, MB = IntMatrix(A), IntMatrix(B)
            assert determinant(MA) == det_cofactor(A)
            assert determinant(MA) * determinant(MB) == determinant(MA @ MB)


class TestAdjugate:
    @staticmethod
    def cofactor_adjugate(rows):
        n = len(rows)
        if n == 1:
            return [[1]]
        return [
            [
                (-1) ** (i + j)
                * det_cofactor(
                    [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                )
                for j in range(n)
            ]
            for i in range(n)
        ]

    def test_cofactor_oracle_and_contract(self):
        rng = random.Random(13)
        # Zero leading entries force row swaps in the elimination.
        cases = [[[0, 1], [1, 0]], [[0, 2, 1], [0, 1, 3], [1, 0, 0]], [[-7]]]
        while len(cases) < 200:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                for i in range(n):
                    rows[i][i] = 0
            if det_cofactor(rows):
                cases.append(rows)
        swaps = 0
        for rows in cases:
            n = len(rows)
            swaps += rows[0][0] == 0
            adj = adjugate(list(zip(*rows)))
            assert [list(row) for row in adj] == self.cofactor_adjugate(rows)
            d = det_cofactor(rows)
            product = IntMatrix(rows) @ IntMatrix(adj)
            assert product == IntMatrix([[d * (i == j) for j in range(n)] for i in range(n)])
        assert swaps >= 20

    def test_singular(self):
        with pytest.raises(NotFullRankError):
            adjugate([(1, 2), (2, 4)])


def assert_smith_contract(rows):
    """The whole contract of smith_normal_form on the matrix with these
    rows, and its factors against the minor-gcd formula."""
    A = IntMatrix(rows)
    factors, L, R = smith_normal_form(A)
    assert abs(determinant(L)) == 1
    assert abs(determinant(R)) == 1
    D = L @ A @ R
    padded = [
        [factors[i] if i == j and i < len(factors) else 0 for j in range(A.cols)]
        for i in range(A.rows)
    ]
    assert D.to_lists() == padded
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert factors == snf_factors_by_minor_gcd(rows)
    return factors


class TestSmith:
    def test_identity(self):
        factors, L, R = smith_normal_form(IntMatrix.identity(3))
        assert factors == (1, 1, 1)

    def test_a2_dual_rays(self):
        M = IntMatrix.from_columns(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (4, 8, 3, 12)]
        )
        factors, L, R = smith_normal_form(M)
        assert factors == (1, 1, 1, 12)
        assert factors == snf_factors_by_minor_gcd([list(r) for r in M.data])

    def test_diag(self):
        factors, _, _ = smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
        assert factors == (2, 4)

    def test_random_contract(self):
        rng = random.Random(9)
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            A = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
            factors, L, R = smith_normal_form(A)
            assert abs(determinant(L)) == 1
            assert abs(determinant(R)) == 1
            D = L @ A @ R
            for i in range(n):
                for j in range(m):
                    if i == j and i < len(factors):
                        assert D.data[i][j] == factors[i]
                    else:
                        assert D.data[i][j] == 0
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert factors == snf_factors_by_minor_gcd([list(r) for r in A.data])
            if n == m and determinant(A) != 0:
                prod = 1
                for f in factors:
                    prod *= f
                assert prod == abs(determinant(A))

    def test_zero_matrix(self):
        for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
            assert assert_smith_contract([[0] * n for _ in range(m)]) == ()

    def test_row_and_column_vectors(self):
        assert assert_smith_contract([[6, -4, 10]]) == (2,)
        assert assert_smith_contract([[6], [-4], [10]]) == (2,)
        assert assert_smith_contract([[0, 0, -7]]) == (7,)
        assert assert_smith_contract([[0], [5]]) == (5,)

    def test_rank_deficient(self):
        assert assert_smith_contract([[2, 4, 6], [2, 4, 6]]) == (2,)
        assert assert_smith_contract([[1, 2], [2, 4], [3, 6]]) == (1,)
        rows = [
            [-9, 6, -15, 8, 9],
            [21, -11, 19, 16, -23],
            [9, -24, 30, -16, -30],
            [-11, -22, 24, 27, -4],
            [-9, 6, -15, 8, 9],
        ]
        assert assert_smith_contract(rows) == (1, 1, 1, 87)

    def test_factors_out_of_divisor_order(self):
        assert assert_smith_contract([[2, 0], [0, 3]]) == (1, 6)
        assert assert_smith_contract([[4, 0], [0, 6]]) == (2, 12)
        assert assert_smith_contract([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)

    def test_random_up_to_5x5(self):
        rng = random.Random(17)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            assert_smith_contract(rows)


class TestRank:
    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([(0, 0, 0), (0, 0, 0)]) == 0

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 5)
            r = rng.randint(0, n)
            basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            vs = []
            # More vectors than entries, zero vectors among them, and
            # spanning at most r dimensions, so both exits are reached.
            for _ in range(rng.randint(n + 1, 3 * n)):
                if not basis or rng.random() < 0.15:
                    vs.append((0,) * n)
                    continue
                coeffs = [rng.randint(-2, 2) for _ in basis]
                vs.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
            assert rank(vs) == sympy.Matrix(vs).rank()

    def test_echelon_fold_matches_is_basis_modulo(self):
        rng = random.Random(29)
        for p in (2, 3, 5):
            for _ in range(150):
                n = rng.randint(1, 4)
                cols = [tuple(rng.randint(-p, p) for _ in range(n)) for _ in range(n)]
                echelon, independent = [], True
                for v in cols:
                    row = reduce_independent(echelon, v, p)
                    if row is None:
                        independent = False
                        break
                    echelon.append(row)
                assert independent == is_basis_modulo(cols, p)


class TestIndependent:
    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_greedy_run_against_elimination(self, p):
        rng = random.Random(31 + p)
        exits = {"basis": 0, "exhausted": 0}
        for _ in range(200):
            n = rng.randint(1, 5)
            vs = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 2 * n + 1))
            ]
            it = iter(vs)
            kept = independent(it, p)
            examined = vs[: len(vs) - len(list(it))]
            # The kept vectors are independent over the field.
            assert rank_over_field(kept, p) == len(kept)
            # In order, each examined vector is the next kept one, or it
            # depends on the vectors kept before it.
            j = 0
            for v in examined:
                if j < len(kept) and v is kept[j]:
                    j += 1
                else:
                    assert rank_over_field(kept[:j] + [v], p) == j
            assert j == len(kept)
            # The run stops at the vector that completes a basis, and
            # otherwise reads every vector.
            if len(kept) == n:
                assert examined[-1] is kept[-1]
                exits["basis"] += 1
            else:
                assert examined == vs
                exits["exhausted"] += 1
        assert min(exits.values()) >= 20


class TestVectorOps:
    def test_make_primitive(self):
        assert make_primitive((2, 4)) == (1, 2)
        assert make_primitive((0, -3)) == (0, -1)
        assert make_primitive((3, -1)) == (3, -1)
        with pytest.raises(InputError):
            make_primitive((0, 0))

    def test_lattice_basis_against_minors(self):
        """lattice_basis_of_columns on 1-5-row matrices of n to n + 3
        columns, some of them not of full rank, against the minor oracle."""
        rng = random.Random(12)
        for _ in range(400):
            n = rng.randint(1, 5)
            bound = rng.choice([1, 3, 9])
            cols = [
                tuple(rng.randint(-bound, bound) for _ in range(n))
                for _ in range(rng.randint(n, n + 3 if n < 4 else n + 1))
            ]
            try:
                basis = lattice_basis_of_columns(IntMatrix.from_columns(cols)).data
            except NotFullRankError:
                basis = None
            assert lattice_basis_by_minors(cols, basis), (cols, basis)

    def test_lattice_index(self):
        assert lattice_index(IntMatrix.identity(4)) == 1
        assert lattice_index(IntMatrix([[1, 1], [0, 3]])) == 3
        rho45 = IntMatrix.from_columns(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)]
        )
        assert lattice_index(rho45) == 5
        with pytest.raises(NotFullRankError):
            lattice_index(IntMatrix.from_columns([(1, 0), (2, 0)]))

    def test_index_one_iff_basis(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 3)
            cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
            M = IntMatrix.from_columns(cols)
            d = determinant(M)
            if d == 0:
                continue
            assert (lattice_index(M) == 1) == (abs(d) == 1)

    def test_is_basis_modulo(self):
        assert is_basis_modulo([(2,)], 3) is True
        assert is_basis_modulo([(3,)], 3) is False
        assert is_basis_modulo([(1, 1), (1, 1)], 0) is False
        assert is_basis_modulo([(1, 1), (1, 0)], 0) is True
        with pytest.raises(InputError):
            is_basis_modulo([(1, 0)], 0)
        with pytest.raises(InputError):
            is_basis_modulo([(1, 0), (0, 1)], 4)


class TestSolveInteger:
    def test_solvable(self):
        A = IntMatrix([[2, 1], [1, 1]])
        assert solve_integer(A, (3, 2)) == (1, 1)

    def test_unsolvable(self):
        A = IntMatrix([[2, 0], [0, 2]])
        assert solve_integer(A, (1, 0)) is None

    def test_random_roundtrip(self):
        rng = random.Random(17)
        for _ in range(50):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            A = IntMatrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
            x = tuple(rng.randint(-4, 4) for _ in range(m))
            b = A.mult_vector(x)
            sol = solve_integer(A, b)
            assert sol is not None
            assert A.mult_vector(sol) == b


class TestTextFormat:
    def test_roundtrip(self):
        M = IntMatrix([[1, -2, 3], [0, 5, -6]])
        assert parse_matrix(format_matrix(M)) == M

    def test_comments_and_blanks(self):
        text = "# generator matrix\n1 0\n\n  # inline\n0 1  # trailing\n"
        assert parse_matrix(text) == IntMatrix.identity(2)

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_matrix("1 x\n")
        with pytest.raises(InputError):
            parse_matrix("# nothing\n")
        with pytest.raises(InputError):
            parse_matrix("1 2\n3\n")
