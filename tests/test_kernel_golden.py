"""Golden outputs of the exact kernels.

The mathematics fixes a Hermite form H, the extreme rays of a pointed cone
and the invariant factors of a Smith form, but not everything a kernel
returns: the transform U of a Hermite form, the rays of a cone with
lineality (taken modulo it), the one solution picked from many, the
transforms L and R of a Smith form and the order of the points of a
parallelepiped follow from the arithmetic.  This file pins those too, on
handpicked and seeded-random inputs: dual descriptions of non-pointed,
lower-dimensional, duplicate-row and zero-row inputs, Hermite forms of
rank-deficient and non-square matrices, underdetermined integer solves,
Smith forms, column lattice bases and parallelepiped points.

Each case is stored in kernel_golden.json as [input, output].  Regenerate
the expected file, after a deliberate change of output, with
    PYTHONPATH=src python tests/test_kernel_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from nashtoric.cones import dual_description
from nashtoric.linalg import (
    IntMatrix,
    determinant,
    hermite_normal_form,
    lattice_basis_of_columns,
    smith_normal_form,
    solve_integer,
)
from nashtoric.semigroups import _parallelepiped_points

from conftest import LOOP4_COLS, LOOP5_COLS, RUNNING_COLS, RUNNING_INEQS

GOLDEN = Path(__file__).with_name("kernel_golden.json")


def _matrix(rng, rows, cols, bound, zero=0.0):
    return [
        [0 if rng.random() < zero else rng.randint(-bound, bound) for _ in range(cols)]
        for _ in range(rows)
    ]


def _dual_cases():
    cases = [
        [[], 3],
        [[[0, 0]], 2],
        [[[1, 0, 0]], 3],
        [[[1, 0], [-1, 0]], 2],
        [[[1, 2, 3], [-1, -2, -3], [0, 1, 0]], 3],
        [[[2, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]], 3],
        [[[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0], [1, -1, 0, 0]], 4],
        [[[3, -2, 5], [1, 1, 0]], 3],
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -1, -1]], 3],
        [[list(r) for r in RUNNING_INEQS], 4],
        [[list(c) for c in RUNNING_COLS], 4],
        [[list(c) for c in LOOP4_COLS], 4],
        [[list(c) for c in LOOP5_COLS], 5],
    ]
    rng = random.Random(20261020)
    for _ in range(80):
        n = rng.randint(2, 5)
        rows = _matrix(rng, rng.randint(1, n + 3), n, 4, zero=0.3)
        if rng.random() < 0.3:
            rows.append([-x for x in rng.choice(rows)])
        if rng.random() < 0.3:
            rows.append([2 * x for x in rng.choice(rows)])
        if rng.random() < 0.2:
            rows.append([0] * n)
        rng.shuffle(rows)
        cases.append([rows, n])
    return cases


def _hermite_cases():
    cases = [
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[0, 0, 0]],
        [[2, 4, 6]],
        [[2], [4], [6]],
        [[6, 4], [9, 6], [3, 2]],
        [[0, 3], [0, 5]],
        [[0, 2, 3], [0, 4, 6], [1, 1, 1]],
        [list(r) for r in zip(*RUNNING_COLS)],
        [list(c) for c in RUNNING_COLS],
    ]
    rng = random.Random(20261021)
    for _ in range(60):
        rows = _matrix(rng, rng.randint(1, 5), rng.randint(1, 6), 9, zero=0.2)
        if len(rows) > 1 and rng.random() < 0.4:
            a, b = rng.sample(range(len(rows)), 2)
            q = rng.randint(-3, 3)
            rows[a] = [x + q * y for x, y in zip(rows[a], rows[b])]
            rows[b] = [q * y for y in rows[b]]
        cases.append(rows)
    return cases


def _solve_cases():
    cases = [
        [[[2, 4]], [6]],
        [[[2, 4]], [3]],
        [[[1, 1, 1]], [5]],
        [[[1, 2], [2, 4]], [3, 6]],
        [[[1, 2], [2, 4]], [3, 7]],
        [[[6, 10, 15]], [1]],
        [[[2, 3, 0], [0, 4, 6]], [5, 10]],
    ]
    rng = random.Random(20261022)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(m, m + 3) if rng.random() < 0.8 else rng.randint(1, m)
        A = _matrix(rng, m, n, 6, zero=0.2)
        if rng.random() < 0.7:
            x = [rng.randint(-5, 5) for _ in range(n)]
            b = [sum(a * y for a, y in zip(row, x)) for row in A]
        else:
            b = [rng.randint(-9, 9) for _ in range(m)]
        cases.append([A, b])
    return cases


def _smith_cases():
    cases = [
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[0, 0], [0, 0]],
        [[1, 2], [2, 4]],
        [[2, 3]],
        [[4], [6]],
        [[2, 0], [0, 3]],
    ]
    rng = random.Random(20261023)
    for _ in range(30):
        cases.append(_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 7, zero=0.2))
    return cases


def _lattice_cases():
    cases = [[[2, 0], [0, 3]], [[2, 3, 4]], [[6, 10], [4, 15]]]
    rng = random.Random(20261024)
    while len(cases) < 40:
        n = rng.randint(1, 4)
        rows = _matrix(rng, n, rng.randint(n, n + 3), 6, zero=0.2)
        if determinant(IntMatrix([r[:n] for r in rows])):
            cases.append(rows)
    return cases


def _parallelepiped_cases():
    cases = [[[1, 0], [1, 2]], [[1, 0, 0], [0, 1, 0], [1, 1, 3]], [[2, 1], [-1, 3]]]
    rng = random.Random(20261025)
    while len(cases) < 30:
        n = rng.randint(2, 4)
        cols = _matrix(rng, n, n, 3, zero=0.3)
        if 1 < abs(determinant(IntMatrix(cols))) <= 40:
            cases.append(cols)
    return cases


def _smith(rows):
    factors, L, R = smith_normal_form(IntMatrix(rows))
    return [factors, L.data, R.data]


KERNELS = {
    "dual_description": (_dual_cases, lambda c: dual_description(*c)),
    "hermite_normal_form": (
        _hermite_cases,
        lambda c: [M.data for M in hermite_normal_form(IntMatrix(c))],
    ),
    "solve_integer": (_solve_cases, lambda c: solve_integer(IntMatrix(c[0]), c[1])),
    "smith_normal_form": (_smith_cases, _smith),
    "lattice_basis_of_columns": (
        _lattice_cases,
        lambda c: lattice_basis_of_columns(IntMatrix(c)).data,
    ),
    "parallelepiped_points": (_parallelepiped_cases, _parallelepiped_points),
}


def _plain(value):
    """value with every tuple made a list, as it reads back from JSON."""
    return json.loads(json.dumps(value))


def _run_all() -> dict:
    return {
        name: [[case, _plain(run(case))] for case in cases()]
        for name, (cases, run) in KERNELS.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case(golden):
    assert list(golden) == list(KERNELS)
    for name, (cases, _) in KERNELS.items():
        assert [case for case, _ in golden[name]] == _plain(cases())


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_output_matches_golden(golden, name):
    run = KERNELS[name][1]
    for case, want in golden[name]:
        assert _plain(run(case)) == want, case


if __name__ == "__main__":
    lines = []
    for name, pairs in _run_all().items():
        body = ",\n".join("  " + json.dumps(pair, separators=(",", ":")) for pair in pairs)
        lines.append(f" {json.dumps(name)}: [\n{body}\n ]")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
