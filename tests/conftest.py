import random

import pytest

from nashtoric import Cone, IntMatrix

# Fixture matrices that recur across the suite (columns are generators).

RUNNING_COLS = [(-2, 5, 1, 2), (-1, 3, 2, -1), (5, 4, -1, 1), (0, -1, 1, 2), (0, 1, 4, 0), (5, 1, -2, -2)]
RUNNING_HNF_COLS = [(1, 0, 0, 0), (0, 1, 0, 0), (5, 9, 24, 0), (3, 4, 2, 8), (4, 8, 5, 11), (1, 4, 17, -6)]
RUNNING_INEQS = [
    (15, 8, -2, 5),
    (15, 5, 1, 2),
    (2, 4, -1, 8),
    (41, -11, 57, 40),
    (-2, 40, -10, 25),
    (9, 5, 45, -20),
    (3, 1, 13, -6),
    (5, 1, 21, -8),
]

LOOP4_COLS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 3, -2, -1), (1, 3, -1, -1)]

A1_COLS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -15, -5)]
A2_COLS = [(1, 0, 0, 0), (2, 3, 0, 0), (0, 0, 1, 0), (4, 0, 3, 12)]
A3_COLS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (9, 10, 11, 12)]

CYCLE2_COLS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -1, 2), (1, -1, 1), (2, -2, 1)]
CYCLE2_SEED_COLS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -6)]

LOOP5_COLS = [
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (2, 2, -1, 1, -2),
    (1, 2, -1, 1, -1),
    (1, 2, 0, 0, -1),
]

WHITNEY_COLS = [(1, 1), (1, 0), (0, 2)]


@pytest.fixture
def loop4_cone():
    return Cone(LOOP4_COLS)


@pytest.fixture
def running_cone():
    return Cone(RUNNING_COLS)


def random_unimodular(n: int, rng: random.Random, steps: int = 15) -> IntMatrix:
    """Product of random elementary integer row operations."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.choice(("add", "swap", "negate"))
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == "add" and i != j:
            q = rng.randint(-3, 3)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        elif op == "swap" and i != j:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-a for a in U[i]]
    return IntMatrix(U)


def random_pointed_cone(rng: random.Random, n: int, bound: int = 5, extra: int = 2):
    """Rejection-sample a pointed full-dimensional cone."""
    while True:
        m = rng.randint(n, n + extra)
        cols = [
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)
        ]
        if any(not any(c) for c in cols):
            continue
        C = Cone(cols)
        if C.is_pointed() and C.is_full_dimensional():
            return C


def polyhedron_vertices(points, rays):
    """The vertices of Conv(points) + cone(rays), sorted: the height-1
    extreme rays of the cone over each (p, 1) and each (r, 0)."""
    lifted = Cone([tuple(p) + (1,) for p in points] + [r + (0,) for r in rays])
    return tuple(sorted(r[:-1] for r in lifted.rays if r[-1] == 1))


def feasible_cone(v, points, rays):
    """Cone(P - v) at a vertex v of P = Conv(points) + cone(rays)."""
    diffs = [tuple(a - b for a, b in zip(p, v)) for p in points]
    return Cone([d for d in diffs if any(d)] + list(rays))
