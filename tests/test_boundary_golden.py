"""Golden answers of the public entry points to what a caller may hand them.

A value from outside the package is checked where it enters: the public
constructors and functions, key and matrix text, a saved store, and the
budgets of an exploration or a sample.  This file feeds each of them
handpicked and seeded-random inputs with the faults a caller makes (bools,
floats, numpy integers and arrays, strings, None, ragged rows, empty input,
zero vectors and wrong lengths) next to good ones, and pins either the
result or the error: its type name and its message.

Inputs are JSON.  A numpy value is written {"np": 3} (numpy.int64),
{"npf": 2.0} (numpy.float64) or {"nprow": [1, 2]} (an int64 array), a
special float {"float": "nan"}, and an IntMatrix argument
{"IntMatrix": rows}.  Results are compared as JSON text, so True and 1,
or 1 and 1.0, stay apart; a value of any other type is written as its
type name and repr.

Each case is stored in boundary_golden.json as [input, output].
Regenerate the expected file, after a deliberate change of behaviour, with
    PYTHONPATH=src python tests/test_boundary_golden.py
"""

import json
import random
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from nashtoric import (
    AffineSemigroup,
    BudgetExhausted,
    CanonicalKey,
    Complete,
    Cone,
    DigraphStore,
    IntMatrix,
    SampleSummary,
    analyze,
    canonical_cone,
    canonical_semigroup,
    determinant,
    dual_description,
    find_cycles,
    full_rank_normalize,
    hermite_normal_form,
    is_basis_modulo,
    lattice_index,
    make_primitive,
    minimal_generators,
    nash_children,
    parse_matrix,
    reeves_cone,
    resolution_subgraph,
    sample_random,
    semigroup_member,
    smith_normal_form,
)
from nashtoric.linalg import lattice_basis_of_columns, solve_integer

GOLDEN = Path(__file__).with_name("boundary_golden.json")

# Entries that are not Python ints, as JSON.
BAD = [True, False, 1.0, 0.5, -2.0, "1", "x", None, {"np": 3}, {"np": -2}, {"npf": 2.0}]
TAGS = {
    "np": np.int64,
    "npf": np.float64,
    "nprow": lambda v: np.array(v, dtype=np.int64),
    "float": float,
}
# A small Nash semigroup of rank 2 that generates Z^2 and is not smooth.
SEMIGROUP = [[1, 0], [1, 1], [1, 3]]


def _decode(x):
    """A JSON input with its tagged values made the objects they stand for."""
    if isinstance(x, dict) and len(x) == 1:
        ((tag, v),) = x.items()
        if tag == "IntMatrix":
            return IntMatrix(_decode(v))
        if tag in TAGS:
            return TAGS[tag](v)
    if isinstance(x, list):
        return [_decode(y) for y in x]
    if isinstance(x, dict):
        return {k: _decode(v) for k, v in x.items()}
    return x


def _out(value):
    """A result as JSON: package objects by what they hold, tuples as lists,
    and a value of any other type as its type name and repr."""
    if isinstance(value, IntMatrix):
        return {"IntMatrix": _out(value.data)}
    if isinstance(value, CanonicalKey):
        return {"CanonicalKey": value.serialization, "matrix": _out(value.matrix.data)}
    if isinstance(value, Cone):
        return {"Cone": _out(value.generators)}
    if isinstance(value, AffineSemigroup):
        return {"AffineSemigroup": _out(value.generators)}
    if isinstance(value, (Complete, BudgetExhausted)):
        return {type(value).__name__: _out(asdict(value))}
    if isinstance(value, DigraphStore):
        return {
            "meta": value.meta,
            "vertices": sorted(value.vertices),
            "edges": sorted(map(list, value.edges)),
        }
    if isinstance(value, SampleSummary):
        summary = value.to_dict()
        summary.pop("elapsed_seconds")
        return {"SampleSummary": _out(summary), "items": _out(value.items)}
    if hasattr(value, "to_dict"):
        return {type(value).__name__: _out(value.to_dict())}
    if isinstance(value, dict):
        return {k: _out(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_out(v) for v in value]
    if value is None or type(value) in (bool, int, str, float):
        return value
    return f"{type(value).__name__}({value!r})"


def _fuzz_vector(rng, n, bad=0.15, bound=4):
    v = [rng.randint(-bound, bound) for _ in range(n)]
    if v and rng.random() < bad:
        v[rng.randrange(n)] = rng.choice(BAD)
    return v


def _fuzz_rows(rng, count, n, bound=4):
    """count vectors of length n, with one of the usual faults at times: a
    bad entry, no rows, a ragged row, a zero row, an empty row or a numpy
    array as a row."""
    rows = [_fuzz_vector(rng, n, 0.1, bound) for _ in range(count)]
    fault = rng.random()
    if not rows or fault < 0.1:
        return []
    i = rng.randrange(len(rows))
    if fault < 0.2:
        rows[i] = _fuzz_vector(rng, n + rng.choice((-1, 1)), 0, bound)
    elif fault < 0.3:
        rows[i] = [0] * n
    elif fault < 0.35:
        rows[i] = []
    elif fault < 0.45 and all(type(x) is int for x in rows[i]):
        rows[i] = {"nprow": rows[i]}
    return rows


def _random_rows(seed, count, shape=lambda rng: (rng.randint(1, 4), rng.randint(1, 4))):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        m, n = shape(rng)
        cases.append(_fuzz_rows(rng, m, n))
    return cases


MATRIX_ROWS = [
    [],
    [[]],
    [[], []],
    [[1]],
    [[0]],
    [[1, 2], [3]],
    [[1], [2, 3]],
    [[True, False], [False, True]],
    [[1.0, 0], [0, 1]],
    [[0.5, 0], [0, 1]],
    [["1", 0], [0, 1]],
    [[None, 0], [0, 1]],
    [[{"np": 2}, {"np": 1}], [{"np": 0}, {"np": 1}]],
    [{"nprow": [2, 1]}, {"nprow": [0, 1]}],
    [[{"npf": 2.0}, 1], [0, 1]],
    [[0, 0], [0, 0]],
    [[2, 4, 6]],
    [[2], [4], [6]],
    [[6, 4], [9, 6], [3, 2]],
    [[1, 2], [3, 4]],
    [[2, 1], [-1, 3]],
    [[3, 0, 0], [0, 2, 0], [0, 0, 5]],
]


def _matrix_cases(seed):
    return MATRIX_ROWS + _random_rows(seed, 30)


def _square_cases(seed):
    def shape(rng):
        n = rng.randint(1, 4)
        return n, n

    return MATRIX_ROWS + _random_rows(seed, 30, shape)


def _matrix_text_cases():
    return MATRIX_ROWS + ["12", 5, None, [[1, 2], "34"]]


def _generator_cases(seed):
    cases = [
        [],
        [[]],
        [[0, 0]],
        [[0, 0], [1, 0]],
        [[1, 0], [0, 1]],
        [[2, 0], [0, 2], [2, 2]],
        [[1, 0], [-1, 0]],
        [[1, 0], [-1, 0], [0, 1]],
        [[1, 0], [0, 1, 0]],
        [[True, False], [False, True]],
        [[1.0, 0], [0, 1]],
        [[0.5, 0], [0, 1]],
        [["1", 0], [0, 1]],
        [[{"np": 1}, 0], [0, {"np": 1}], [{"np": 1}, {"np": 3}]],
        [{"nprow": [1, 0]}, {"nprow": [1, 3]}],
        SEMIGROUP,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -6]],
        "ab",
        [1, 2],
        None,
    ]

    def shape(rng):
        n = rng.randint(1, 4)
        return rng.randint(1, n + 2), n

    return cases + _random_rows(seed, 30, shape)


def _vector_cases(seed):
    cases = [
        [],
        [0, 0],
        [1, 0],
        [2, 4],
        [-3, 6, 9],
        [True, False],
        [True, True],
        [1.0, 2],
        [0.5, 1],
        ["2", 4],
        [None],
        [{"np": 4}, {"np": 6}],
        {"nprow": [4, 6]},
        [{"npf": 2.0}, 4],
        "24",
    ]
    rng = random.Random(seed)
    cases += [_fuzz_vector(rng, rng.randint(1, 4), 0.3) for _ in range(20)]
    return cases


def _with_vectors(gens_cases, seed):
    """[generators, v] pairs: v of the generators' length, a length off by
    one, or with a bad entry."""
    rng = random.Random(seed)
    cases = []
    for gens in gens_cases:
        n = len(gens[0])
        for length in (n, n - 1, n + 1):
            cases.append([gens, _fuzz_vector(rng, length, 0.3)])
    return cases


POINTED = [
    [[1, 0], [0, 1]],
    [[1, 0], [1, 1], [1, 3]],
    [[1, 0], [1, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -6]],
]


def _contains_cases():
    cases = [
        [[[1, 0], [0, 1]], [1]],
        [[[1, 0], [0, 1]], [0.5, 1]],
        [[[1, 0], [0, 1]], [1, 1, 1]],
        [[[1, 0], [0, 1]], [1, 1, -1]],
        [[[1, 0], [0, 1]], [-1, 0]],
        [[[1, 0], [0, 1]], [True, False]],
        [[[1, 0], [0, 1]], [{"np": 1}, {"np": 2}]],
        [[[1, 0], [0, 1]], ["1", 0]],
        [[[1, 0], [0, 1]], []],
        [[[1, 0], [-1, 0]], [5]],
    ]
    return cases + _with_vectors(POINTED, 20261107)


def _member_cases():
    cases = [
        [[[1, 0], [0, 1]], [-1, 0, 5]],
        [[[1, 0], [0, 1]], [1, 0, 5]],
        [[[1, 0], [0, 1]], [2]],
        [[[1, 0], [0, 1]], [-2]],
        [[[1, 0], [0, 1]], [1.0, 0]],
        [[[2, 0], [0, 2]], [1, 1]],
        [[[2, 0], [0, 2]], [2, 4]],
        [[[1, 0], [-1, 0]], [0, 0]],
        [[[1, 0], [1, 1], [1, 3]], [2, 3]],
        [[[1, 0], [1, 1], [1, 3]], [1, 2]],
        [[[1, 0], [1, 1], [1, 3]], [True, False]],
        [[[1, 0], [1, 1], [1, 3]], {"nprow": [3, 4]}],
        [[[0, 0]], [0, 0]],
        [[], [0]],
    ]
    return cases + _with_vectors(POINTED, 20261108)


def _dual_cases():
    cases = [
        [[], 2],
        [[], 0],
        [[], 2.0],
        [[[1, 0]], 3],
        [[[1, 0], [0, 1]], 2],
        [[[1, 0], [0, 1]], True],
        [[[1, 0], [0, 1]], "2"],
        [[[True, 0], [0, 1]], 2],
        [[[1.0, 0], [0, 1]], 2],
        [[[0.5, 0], [0, 1]], 2],
        [[[{"np": 1}, 0], [0, {"np": 1}]], 2],
        [[{"nprow": [1, 0]}, {"nprow": [0, 1]}], 2],
        [[[0, 0]], 2],
        [[[1, 0], []], 2],
        [[[1, 0], [0, 1, 0]], 2],
        [["ab"], 2],
        [None, 2],
    ]
    rng = random.Random(20261101)
    for _ in range(30):
        n = rng.randint(1, 4)
        cases.append([_fuzz_rows(rng, rng.randint(1, n + 2), n), n])
    return cases


def _basis_modulo_cases():
    cases = [
        [[[1, 0], [0, 1]], 0],
        [[[2, 0], [0, 1]], 2],
        [[[2, 0], [0, 1]], 3],
        [[[1, 0], [0, 1]], 4],
        [[[1, 0], [0, 1]], 1],
        [[[1, 0], [0, 1]], -3],
        [[[1, 0], [0, 1]], True],
        [[[1, 0], [0, 1]], 2.0],
        [[[1, 0], [0, 1]], "2"],
        [[[1, 0], [0, 1]], {"np": 3}],
        [[[1, 0], [0, 1]], None],
        [[], 0],
        [[[]], 0],
        [[[1, 0]], 0],
        [[[1, 0], [0]], 0],
        [[[1.5, 0], [0, 1]], 0],
        [[[1.5, 0]], 0],
        [[[True, False], [False, True]], 0],
        [[{"nprow": [1, 2]}, {"nprow": [3, 4]}], 2],
    ]
    rng = random.Random(20261102)
    for _ in range(20):
        n = rng.randint(1, 3)
        cases.append([_fuzz_rows(rng, n, n), rng.choice([0, 2, 3, 5, 4, True, 2.0])])
    return cases


def _solve_cases():
    cases = [
        [[[2, 4]], [6]],
        [[[2, 4]], [3]],
        [[[2, 4]], [6, 1]],
        [[[2, 4]], []],
        [[[2, 4]], [6.0]],
        [[[2, 4]], ["6"]],
        [[[2, 4]], [True]],
        [[[1, 0], [0, 1]], [{"np": 2}, 3]],
        [[[1.0, 0]], [1]],
    ]
    rng = random.Random(20261103)
    for _ in range(20):
        m = rng.randint(1, 3)
        cases.append([_fuzz_rows(rng, m, rng.randint(1, 4)), _fuzz_vector(rng, m, 0.2)])
    return cases


def _parse_matrix_cases():
    return [
        "1 2\n3 4",
        "1 2\n3 4\n",
        "  1   2 # first row\n# a comment\n3 4",
        "1 2\n3",
        "1.5 2\n3 4",
        "1 a\n3 4",
        "true 1",
        "",
        "# only a comment",
        "\n\n",
        "0 0\n0 0",
        "-1 +2",
        "1_000 2",
        "1,2\n3,4",
        "１ 2",
    ]


def _key_text_cases():
    return [
        "2 x 2: 1,0,0,1",
        "2 x 2: 0,1,1,0",
        "2x2:1,0,0,1",
        "2 x 2: 1,0,0,1 ",
        " 2 x 2: 1,0,0,1",
        "2 X 2: 1,0,0,1",
        "2 x 2: 1,0,0",
        "2 x 2: 1,0,0,1,5",
        "2 x 2: 1,0,0,1.5",
        "2 x 2: 1,0,0,a",
        "a x b: 1",
        "2 x 2 1,0,0,1",
        "2: 1,0",
        "0 x 0: ",
        "1 x 0: 1",
        "0 x 2: ",
        "1 x 1: 7",
        "1 x 1: -0",
        "1 x 1: 007",
        "2 x 1: 1,2",
        "",
    ]


def _store_cases():
    cases = []
    for mode in ("nash", "normalized", "Nash", None):
        for char in (0, 2, 4, True, 2.0, "3"):
            cases.append([mode, char, 2])
    for rank in (0, -1, 1, 3, True, 2.0, "2", {"np": 2}, None):
        cases.append(["nash", 0, rank])
    return cases


META = '{"kind": "meta", "version": 1, "mode": "nash", "characteristic": 0, "rank": 2}'
EPS = '{"kind": "vertex", "key": "2 x 2: 0,1,1,0", "matrix": [[0, 1], [1, 0]]}'
LOOP = '{"kind": "edge", "from": "2 x 2: 0,1,1,0", "to": "2 x 2: 0,1,1,0"}'


def _vertex_line(key, matrix):
    return json.dumps({"kind": "vertex", "key": key, "matrix": matrix})


def _load_cases():
    good = "2 x 2: 1,1,0,3"
    return [
        [META, EPS, LOOP],
        [META, EPS, LOOP, "", META],
        [],
        [EPS],
        ["not json"],
        ['{"kind": "meta"}'],
        [META.replace('"version": 1', '"version": 2')],
        [META.replace('"rank": 2', '"rank": 0')],
        [META.replace('"rank": 2', '"rank": 2.0')],
        [META.replace('"rank": 2', '"rank": true')],
        [META.replace('"characteristic": 0', '"characteristic": 4')],
        [META.replace('"mode": "nash"', '"mode": "other"')],
        [META, META.replace('"characteristic": 0', '"characteristic": 2')],
        [META, _vertex_line(good, [[1, 1], [0, 3]])],
        [META, _vertex_line(good, [[True, 1], [False, 3]])],
        [META, _vertex_line(good, [[1.0, 1], [0, 3]])],
        [META, _vertex_line(good, [["1", 1], [0, 3]])],
        [META, _vertex_line(good, [[1, 1], [0]])],
        [META, _vertex_line(good, [])],
        [META, _vertex_line(good, [[]])],
        [META, _vertex_line(good, [[1, 1, 0], [0, 3, 0]])],
        [META, _vertex_line(good, [[1, 1]])],
        [META, _vertex_line(good, [[8, 1], [0, 3]])],
        [META, _vertex_line("2x2:1,1,0,3", [[1, 1], [0, 3]])],
        [META, _vertex_line(good, 5)],
        [META, _vertex_line(good, [1, 1])],
        [META, '{"kind": "vertex", "key": "2 x 2: 1,1,0,3"}'],
        [META, EPS, '{"kind": "edge", "from": "2 x 2: 0,1,1,0", "to": "2 x 2: 1,1,0,3"}'],
        [META, '{"kind": "face"}'],
        [META, "[1, 2]"],
    ]


def _load(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            return DigraphStore.load(path)
        except Exception as exc:
            raise type(exc)(str(exc).replace(str(path), "STORE")) from None


def _reeves_cases():
    return [
        [n, j]
        for n in (1, 2, 3, True, 2.0, 2.5, "3", {"np": 3}, None)
        for j in (0, 1, 2, 1.5, "1", {"np": 2})
    ]


def _characteristic_cases():
    return [0, 2, 3, 4, 1, -2, True, False, 2.0, 2.5, "2", {"np": 3}, {"npf": 3.0}, None]


def _max_report_cases():
    return [None, 0, 1, 5, -1, True, False, 1.5, 2.0, "1", {"np": 1}, {"np": -1}]


def _sample_cases():
    base = {
        "rank_": 2,
        "mode": "nash",
        "count": 0,
        "seed": 7,
        "entry_bound": 3,
    }
    cases = [base, dict(base, count=1), dict(base, count=2, mode="normalized")]
    for name, values in (
        ("rank_", [1, 3, 6, True, 2.0, "2", {"np": 2}]),
        ("mode", ["nash ", "Normalized", None, 2]),
        ("count", [-1, 1.0, "1", {"np": 0}, True]),
        ("entry_bound", [0, -1, 2.0, "3", {"np": 3}, True]),
        ("characteristic", [1, 4, -2, 2.0, "2", True, {"np": 3}]),
        ("max_vertices", [0, -1, 2.5, "5", {"np": 5}]),
        ("max_seconds", [0, -1, 0.0, "1", None, {"float": "nan"}, {"npf": 1.0}]),
        ("threads", [0, -1, 1.5, 2.0, "1", {"np": 2}, None]),
    ):
        cases += [dict(base, **{name: v}) for v in values]
    cases += [
        dict(base, count=1, max_vertices=1),
        dict(base, count=1, max_vertices=True),
        dict(base, count=1, max_vertices={"np": 2}),
        dict(base, count=1, threads=True),
        dict(base, count=1, max_seconds={"float": "inf"}),
        dict(base, count=1, characteristic=2),
    ]
    return cases


def _resolution_cases():
    budgets = [{}]
    for name, values in (
        ("max_vertices", [1, 2, 0, -1, True, 2.5, 3.0, "3", {"np": 2}, None]),
        ("max_seconds", [0, -1, 1, 1.5, {"float": "nan"}, {"float": "inf"}, "1", None, True]),
        ("threads", [0, -1, True, 1.0, "1", {"np": 1}, None]),
    ):
        budgets += [{name: v} for v in values]
    budgets += [{"threads": 2, "max_vertices": 0}, {"threads": 2, "max_seconds": -1}]
    starts = [
        {"semigroup": SEMIGROUP},
        {"semigroup": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"cone": SEMIGROUP},
        "2 x 2: 0,1,1,0",
        "2 x 2: 1,1,0,3",
        "2x2:0,1,1,0",
        None,
        5,
    ]
    return [[{"semigroup": SEMIGROUP}, b] for b in budgets] + [[s, {}] for s in starts]


def _start(spec):
    if isinstance(spec, dict) and "semigroup" in spec:
        return AffineSemigroup(spec["semigroup"])
    if isinstance(spec, dict) and "cone" in spec:
        return Cone(spec["cone"])
    return spec


def _resolution(case):
    start, budgets = case
    store = DigraphStore("nash", 0, 2)
    result = resolution_subgraph(store, _start(start), **budgets)
    return [result, store]


def _smith(rows):
    return smith_normal_form(IntMatrix(rows))


ENTRY_POINTS = {
    "IntMatrix": (_matrix_text_cases, IntMatrix),
    "IntMatrix.from_columns": (_matrix_text_cases, IntMatrix.from_columns),
    "IntMatrix.identity": (_characteristic_cases, IntMatrix.identity),
    "Cone": (
        lambda: _generator_cases(20261104)
        + [{"IntMatrix": rows} for rows in MATRIX_ROWS[3:5] + MATRIX_ROWS[15:]],
        Cone,
    ),
    "Cone.contains": (_contains_cases, lambda c: Cone(c[0]).contains(c[1])),
    "AffineSemigroup": (lambda: _generator_cases(20261105), AffineSemigroup),
    "AffineSemigroup.standard": (_characteristic_cases, AffineSemigroup.standard),
    "minimal_generators": (lambda: _generator_cases(20261106), minimal_generators),
    "full_rank_normalize": (lambda: _generator_cases(20261106), full_rank_normalize),
    "dual_description": (_dual_cases, lambda c: dual_description(*c)),
    "semigroup_member": (_member_cases, lambda c: semigroup_member(*c)),
    "hermite_normal_form": (
        lambda: _matrix_cases(20261109),
        lambda rows: hermite_normal_form(IntMatrix(rows)),
    ),
    "determinant": (
        lambda: _square_cases(20261110),
        lambda rows: determinant(IntMatrix(rows)),
    ),
    "smith_normal_form": (lambda: _matrix_cases(20261111), _smith),
    "lattice_index": (
        lambda: _matrix_cases(20261112),
        lambda rows: lattice_index(IntMatrix(rows)),
    ),
    "lattice_basis_of_columns": (
        lambda: _matrix_cases(20261113),
        lambda rows: lattice_basis_of_columns(IntMatrix(rows)),
    ),
    "solve_integer": (_solve_cases, lambda c: solve_integer(IntMatrix(c[0]), c[1])),
    "is_basis_modulo": (_basis_modulo_cases, lambda c: is_basis_modulo(*c)),
    "make_primitive": (lambda: _vector_cases(20261114), make_primitive),
    "parse_matrix": (_parse_matrix_cases, parse_matrix),
    "CanonicalKey.parse": (_key_text_cases, CanonicalKey.parse),
    "canonical_cone": (lambda: _generator_cases(20261115), lambda c: canonical_cone(Cone(c))),
    "canonical_semigroup": (
        lambda: _generator_cases(20261116),
        lambda c: canonical_semigroup(AffineSemigroup(c)),
    ),
    "analyze": (lambda: _generator_cases(20261117), lambda c: analyze(Cone(c))),
    "nash_children": (
        _characteristic_cases,
        lambda p: nash_children(AffineSemigroup(SEMIGROUP), p),
    ),
    "DigraphStore": (_store_cases, lambda c: DigraphStore(*c)),
    "DigraphStore.load": (_load_cases, _load),
    "reeves_cone": (_reeves_cases, lambda c: reeves_cone(*c)),
    "find_cycles": (
        _max_report_cases,
        lambda m: find_cycles(DigraphStore("nash", 0, 2), m),
    ),
    "sample_random": (_sample_cases, lambda kw: sample_random(**kw)),
    "resolution_subgraph": (_resolution_cases, _resolution),
}


def _plain(value):
    """value as it reads back from JSON."""
    return json.loads(json.dumps(value))


def _answer(run, case):
    try:
        return _out(run(_decode(case)))
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


def _run_all() -> dict:
    return {
        name: [[case, _answer(run, case)] for case in cases()]
        for name, (cases, run) in ENTRY_POINTS.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case(golden):
    assert list(golden) == list(ENTRY_POINTS)
    for name, (cases, _) in ENTRY_POINTS.items():
        want = json.dumps([case for case, _ in golden[name]])
        assert json.dumps(_plain(cases())) == want, name


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_answers_match_golden(golden, name):
    run = ENTRY_POINTS[name][1]
    for case, want in golden[name]:
        assert json.dumps(_answer(run, case)) == json.dumps(want), case


if __name__ == "__main__":
    lines = []
    for name, pairs in _run_all().items():
        body = ",\n".join("  " + json.dumps(pair, separators=(",", ":")) for pair in pairs)
        lines.append(f" {json.dumps(name)}: [\n{body}\n ]")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
