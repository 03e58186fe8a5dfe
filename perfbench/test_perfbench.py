"""Self-tests of the benchmark: its output checks and its tracer.

Run with ``python3 -m pytest perfbench -q`` from the root of the repository.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from nashtoric import blowup, canonical, digraph, sampling  # noqa: E402

# A cheap slice of explore-loop4: LOOP4 at p=2 and reeves_cone(3, j), j=1..4.
SMALL_EXPLORE = [0, 2, 3, 4, 5]


def small_explore_inputs(seed=0):
    inputs = workloads.build_explore_loop4(seed)
    return [inputs[i] for i in SMALL_EXPLORE]


def test_pinned_explore_outputs_pass(tmp_path):
    result = workloads.run_explore_loop4(
        small_explore_inputs(seed=7), str(tmp_path), workloads.EXPECTED["explore-loop4"]
    )
    assert result.tally.problems == []
    assert result.tally.attempted == len(SMALL_EXPLORE) * (1 + workloads.ROUND_TRIPS)
    assert result.expansions > 0 and len(result.resume_s) == workloads.ROUND_TRIPS


def test_wrong_expected_digest_is_a_failure(tmp_path):
    expected = dict(workloads.EXPECTED["explore-loop4"])
    expected["LOOP4 p=2"] = "0" * 64
    result = workloads.run_explore_loop4(small_explore_inputs(), str(tmp_path), expected)
    assert result.tally.failed == {"LOOP4 p=2"}
    assert any("store digest" in p for p in result.tally.problems)


def test_wrong_child_count_is_a_failure(tmp_path):
    inputs = [("LOOP4 p=2", 2, workloads.LOOP4_COLS)]
    expected = {"LOOP4 p=2": (1, "0" * 64)}
    result = workloads.run_normalized_step(inputs, str(tmp_path), expected)
    assert result.tally.failed == {"LOOP4 p=2"}
    assert len(result.tally.problems) == 2


def test_exception_and_tripped_budget_are_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MAX_VERTICES", 2)
    result = workloads.run_explore_loop4(
        small_explore_inputs(), str(tmp_path), workloads.EXPECTED["explore-loop4"]
    )
    assert "LOOP4 p=2" in result.tally.failed
    assert any("stopped early" in p for p in result.tally.problems)

    tally = workloads.Tally()
    assert tally.attempt("boom", lambda: 1 // 0) is None
    assert tally.attempted == 1 and tally.failed == {"boom"}


def test_fixture_inputs_change_with_the_seed():
    a, b = workloads.build_normalized_step(1), workloads.build_normalized_step(2)
    assert [cols for _, _, cols in a] != [cols for _, _, cols in b]
    assert workloads.build_normalized_step(1) == a


def traced_counts(run, inputs, expected, tmp_path):
    with tracer.Tracer() as t:
        result = run(inputs, str(tmp_path), expected)
    assert result.tally.problems == []
    return tracer.repeatable_counts(t), tracer.layer_values(t)


def test_two_traced_passes_count_the_same_explore(tmp_path):
    expected = workloads.EXPECTED["explore-loop4"]
    inputs = small_explore_inputs()
    first, values = traced_counts(workloads.run_explore_loop4, inputs, expected, tmp_path)
    second, _ = traced_counts(workloads.run_explore_loop4, inputs, expected, tmp_path)
    assert first == second
    assert values["digraph.compute_children.calls"] > 0
    assert values["canonical.place_column.calls"] > 0
    assert values["digraph.save.bytes"] > 0


def test_two_traced_passes_count_the_same_nash(tmp_path):
    expected = workloads.EXPECTED["nash-sample"]
    seed = workloads.build_nash_sample(0)
    first, values = traced_counts(workloads.run_nash_sample, seed, expected, tmp_path)
    second, _ = traced_counts(workloads.run_nash_sample, seed, expected, tmp_path)
    assert first == second
    assert first["blowup.nash_children.calls"] == 1376
    assert 0 < values["blowup.nash_charts_kept_ratio"] < 1


def test_tracer_patches_every_binding_and_restores_them():
    original = canonical.canonical_cone
    with tracer.Tracer():
        bound = {blowup.canonical_cone, digraph.canonical_cone, sampling.canonical_cone}
        assert len(bound) == 1 and original not in bound
        assert canonical.canonical_cone in bound
    for module in (canonical, blowup, digraph, sampling):
        assert module.canonical_cone is original
    assert "load" in digraph.DigraphStore.__dict__
    assert isinstance(digraph.DigraphStore.__dict__["load"], classmethod)


def test_missing_name_is_absent_not_an_error(monkeypatch):
    gone = (("blowup", "_gone", "blowup.gone", None), ("no_such_module", "f", "x.f", None))
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + gone)
    with tracer.Tracer() as t:
        pass
    assert {"nashtoric.blowup._gone", "nashtoric.no_such_module.f"} <= set(t.absent)
    assert set(tracer.layer_values(t)) >= {"blowup.pareto_filter.self_s"}


def test_self_time_subtracts_covered_child_time():
    assert tracer._covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
    t = tracer.Tracer()
    outer = t._timed("outer", lambda: inner(), None)
    inner = t._timed("inner", lambda: None, None)
    outer()
    spans = {name: (end - start) for _, _, name, start, end in t.spans()}
    self_s = t.self_times()
    assert self_s["inner"] == pytest.approx(spans["inner"])
    assert self_s["outer"] == pytest.approx(spans["outer"] - spans["inner"])


def test_run_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the command exits with
    an error and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nash-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
