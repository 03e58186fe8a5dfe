"""Golden outputs of cones and semigroups.

A cone answers its predicates and lists its rays, facets and span
equalities from the two double descriptions it caches; the dual of a
pointed full-dimensional cone gets its descriptions from the cone's own.
A pointed semigroup reduces its generators and answers membership through
one search over its hull's inequality rows.  This file pins all of these
on handpicked and seeded-random inputs, non-pointed and lower-dimensional
ones among them:
  - cones: is_pointed, is_full_dimensional, is_simplicial, is_unimodular,
    rays, facet_normals and span_equalities, and for a pointed
    full-dimensional cone the rays and facet normals of its dual;
  - semigroups: the minimal generators that _minimalize keeps, and the
    semigroup_member answer at each of a set of points.
A NotPointedError is pinned by its name, since its message is not part of
the contract.

Each case is stored in cone_golden.json as [input, output].  Regenerate
the expected file, after a deliberate change of output, with
    PYTHONPATH=src python tests/test_cone_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from nashtoric import Cone, NotPointedError, semigroup_member
from nashtoric.semigroups import _minimalize

from conftest import (
    A1_COLS,
    A2_COLS,
    CYCLE2_COLS,
    LOOP4_COLS,
    LOOP5_COLS,
    RUNNING_COLS,
    WHITNEY_COLS,
)

GOLDEN = Path(__file__).with_name("cone_golden.json")
NOT_POINTED = "NotPointedError"


def _columns(rng, n, count, bound, zero):
    """count nonzero columns in Z^n, entries in +-bound, some zeroed."""
    cols = []
    while len(cols) < count:
        c = [0 if rng.random() < zero else rng.randint(-bound, bound) for _ in range(n)]
        if any(c):
            cols.append(c)
    return cols


def _cone_cases():
    cases = [
        [[1, 0], [0, 1]],
        [[1, 0], [-1, 0]],
        [[1, 0], [-1, 0], [0, 1]],
        [[1, 0], [0, 1], [-1, -1]],
        [[1, 0, 0]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 1, 0], [1, -1, 0], [-1, 0, 0]],
        [[2, 0], [0, 2], [1, 1]],
        [[1, 0], [1, 2]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
        [list(c) for c in WHITNEY_COLS],
        [list(c) for c in RUNNING_COLS],
        [list(c) for c in LOOP4_COLS],
        [list(c) for c in LOOP5_COLS],
        [list(c) for c in A1_COLS],
        [list(c) for c in A2_COLS],
        [list(c) for c in CYCLE2_COLS],
    ]
    rng = random.Random(20261101)
    for _ in range(90):
        n = rng.randint(2, 5)
        cols = _columns(rng, n, rng.randint(1, n + 3), 4, 0.3)
        if rng.random() < 0.25:
            cols.append([-x for x in rng.choice(cols)])
        if rng.random() < 0.2:
            cols.append([3 * x for x in rng.choice(cols)])
        rng.shuffle(cols)
        cases.append(cols)
    return cases


def _cone_facts(cols):
    C = Cone(cols)
    out = {
        "is_pointed": C.is_pointed(),
        "is_full_dimensional": C.is_full_dimensional(),
        "is_simplicial": C.is_simplicial(),
        "is_unimodular": C.is_unimodular(),
        "rays": C.rays,
        "facet_normals": C.facet_normals,
        "span_equalities": C.span_equalities,
    }
    if C.is_pointed() and C.is_full_dimensional():
        D = C.dual()
        out["dual_rays"] = D.rays
        out["dual_facet_normals"] = D.facet_normals
    return out


def _semigroup_cases():
    cases = [
        [[1, 0], [0, 1], [1, 1]],
        [[2, 0], [3, 0], [0, 1]],
        [[1, 0], [1, 2], [1, 1]],
        [[1, 0], [-1, 0], [0, 1]],
        [[2, 0], [0, 2], [1, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0]],
        [list(c) for c in WHITNEY_COLS],
        [list(c) for c in CYCLE2_COLS],
    ]
    rng = random.Random(20261102)
    for _ in range(60):
        n = rng.randint(2, 4)
        cols = _columns(rng, n, rng.randint(1, n + 3), 3, 0.3)
        if rng.random() < 0.25:
            cols.append([-x for x in rng.choice(cols)])
        if rng.random() < 0.4:
            a, b = rng.choice(cols), rng.choice(cols)
            if any(x + y for x, y in zip(a, b)):
                cols.append([x + y for x, y in zip(a, b)])
        cases.append(cols)
    return cases


def _points(cols):
    """Query points: sums of up to three generators, a few of them minus
    one more, and seeded points of a small box."""
    rng = random.Random(repr(cols))
    n = len(cols[0])
    points = []
    for _ in range(8):
        picks = [rng.choice(cols) for _ in range(rng.randint(1, 3))]
        p = [sum(x) for x in zip(*picks)]
        if rng.random() < 0.3:
            p = [x - y for x, y in zip(p, rng.choice(cols))]
        points.append(p)
    points += [[rng.randint(-4, 4) for _ in range(n)] for _ in range(6)]
    return points


def _semigroup_facts(cols):
    gens = tuple(sorted({tuple(c) for c in cols}))
    try:
        minimal = _minimalize(gens)
    except NotPointedError:
        minimal = NOT_POINTED
    answers = []
    for p in _points(cols):
        try:
            answers.append([p, semigroup_member(gens, p)])
        except NotPointedError:
            answers.append([p, NOT_POINTED])
    return {"minimalize": minimal, "member": answers}


CASES = {
    "cone": (_cone_cases, _cone_facts),
    "semigroup": (_semigroup_cases, _semigroup_facts),
}


def _plain(value):
    """value with every tuple made a list, as it reads back from JSON."""
    return json.loads(json.dumps(value))


def _run_all() -> dict:
    return {
        name: [[case, _plain(run(case))] for case in cases()]
        for name, (cases, run) in CASES.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case(golden):
    assert list(golden) == list(CASES)
    for name, (cases, _) in CASES.items():
        assert [case for case, _ in golden[name]] == _plain(cases())


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(golden, name):
    run = CASES[name][1]
    for case, want in golden[name]:
        assert _plain(run(case)) == want, case


if __name__ == "__main__":
    lines = []
    for name, pairs in _run_all().items():
        body = ",\n".join("  " + json.dumps(pair, separators=(",", ":")) for pair in pairs)
        lines.append(f" {json.dumps(name)}: [\n{body}\n ]")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
