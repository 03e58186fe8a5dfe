import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import nashtoric
from nashtoric import DigraphStore, export_dot
from nashtoric.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def chi_file(tmp_path):
    p = tmp_path / "chi.txt"
    p.write_text("# cone with chi display children\n1 3\n0 5\n")
    return str(p)


def test_hilbert(runner, chi_file):
    r = runner.invoke(main, ["hilbert", chi_file, "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["count"] == 4
    assert [1, 1] in data["basis_columns"]


def test_hilbert_side_n(runner, tmp_path):
    p = tmp_path / "sigma.txt"
    p.write_text("-1 3\n2 -1\n")
    r = runner.invoke(main, ["hilbert", str(p), "--side", "N", "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert sorted(map(tuple, data["basis_columns"])) == [(1, 1), (1, 2), (1, 3), (2, 1)]


def test_dual(runner, chi_file):
    r = runner.invoke(main, ["dual", chi_file, "--json"])
    assert r.exit_code == 0
    assert sorted(map(tuple, json.loads(r.output)["rays"])) == [(0, 1), (5, -3)]


def test_canon(runner, chi_file):
    r = runner.invoke(main, ["canon", chi_file])
    assert r.exit_code == 0
    assert r.output.strip() == "2 x 2: 1,3,0,5"


def test_canon_semigroup(runner, tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("2 3\n")
    r = runner.invoke(main, ["canon", str(p), "--kind", "semigroup"])
    assert r.exit_code == 0
    assert r.output.strip() == "1 x 2: 2,3"


def test_children_normalized(runner, chi_file):
    r = runner.invoke(main, ["children", chi_file, "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["count"] == 2
    keys = {c["key"] for c in data["children"]}
    assert keys == {"2 x 2: 1,0,0,1", "2 x 2: 1,1,0,3"}


def test_children_nash_cusp(runner, tmp_path):
    p = tmp_path / "cusp.txt"
    p.write_text("2 3\n")
    r = runner.invoke(main, ["children", str(p), "--mode", "nash", "--char", "3", "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["count"] == 1
    assert data["children"][0]["columns"] == [[2], [3]]


@pytest.mark.parametrize("command", ["children", "explore"])
def test_nash_mode_rejects_side_n(runner, chi_file, command):
    r = runner.invoke(main, [command, chi_file, "--mode", "nash", "--side", "N"])
    assert r.exit_code == 2
    assert "nash mode takes semigroup generators in M" in r.output


def test_canon_semigroup_rejects_side_n(runner, chi_file):
    r = runner.invoke(main, ["canon", chi_file, "--kind", "semigroup", "--side", "N"])
    assert r.exit_code == 2
    assert "nash mode takes semigroup generators in M" in r.output


def test_subdivide(runner, tmp_path):
    p = tmp_path / "sigma.txt"
    p.write_text("-1 3\n2 -1\n")
    r = runner.invoke(main, ["subdivide", str(p), "--side", "N", "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["count"] == 3


def test_explore_cycles_export(runner, chi_file, tmp_path):
    store = tmp_path / "store.jsonl"
    r = runner.invoke(main, ["explore", chi_file, "--store", str(store), "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["status"] == "complete"
    assert data["vertices"] == 3
    assert store.exists()

    r = runner.invoke(main, ["cycles", "--store", str(store), "--json"])
    assert r.exit_code == 0
    assert json.loads(r.output) == {"count": 0, "cycles": []}

    out = tmp_path / "g.dot"
    r = runner.invoke(main, ["export-dot", "--store", str(store), "-o", str(out)])
    assert r.exit_code == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 4


def test_export_dot_to_stdout(runner, chi_file, tmp_path):
    store = tmp_path / "store.jsonl"
    r = runner.invoke(main, ["explore", chi_file, "--store", str(store)])
    assert r.exit_code == 0
    r = runner.invoke(main, ["export-dot", "--store", str(store)])
    assert r.exit_code == 0
    assert "->" in r.output
    assert r.output == export_dot(DigraphStore.load(str(store)))


def test_explore_loop_cone_records_cycle(runner, tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("1 0 0 0 2 1\n0 1 0 0 3 3\n0 0 1 0 -2 -1\n0 0 0 1 -1 -1\n")
    store = tmp_path / "store.jsonl"
    r = runner.invoke(
        main,
        ["explore", p.as_posix(), "--store", store.as_posix(), "--max-vertices", "2", "--json"],
    )
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["status"] == "budget-exhausted"
    r = runner.invoke(main, ["cycles", "--store", store.as_posix(), "--json"])
    assert r.exit_code == 0
    assert json.loads(r.output)["count"] == 1


def test_analyze(runner, tmp_path):
    p = tmp_path / "a3.txt"
    p.write_text("1 0 0 9\n0 1 0 10\n0 0 1 11\n0 0 0 12\n")
    r = runner.invoke(main, ["analyze", str(p), "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["gorenstein"] and data["gorenstein_witness"] == [1, 1, 1, 1]
    assert data["simplicial"]


def test_reeves(runner):
    r = runner.invoke(main, ["reeves", "3", "2", "--json"])
    assert r.exit_code == 0
    cols = {tuple(c) for c in json.loads(r.output)["columns"]}
    assert cols == {(1, 0, 0), (0, 1, 0), (1, 1, 2)}


def test_reeves_bad_params(runner):
    r = runner.invoke(main, ["reeves", "1", "2"])
    assert r.exit_code == 2
    assert "error:" in r.output or "error:" in (r.stderr if hasattr(r, "stderr") else "")


def test_sample_zero(runner):
    r = runner.invoke(
        main, ["sample", "--rank", "2", "--count", "0", "--mode", "normalized", "--json"]
    )
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["count"] == 0 and data["resolved"] == 0


def test_sample_small_deterministic(runner):
    args = [
        "sample", "--rank", "2", "--count", "3", "--mode", "normalized",
        "--seed", "7", "--entry-bound", "4", "--json",
    ]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0
    d1, d2 = json.loads(r1.output), json.loads(r2.output)
    d1.pop("elapsed_seconds"); d2.pop("elapsed_seconds")
    assert d1 == d2
    assert d1["resolved"] == 3


def test_stdin_input(runner):
    r = runner.invoke(main, ["canon", "-"], input="1 0\n0 1\n")
    assert r.exit_code == 0
    assert r.output.strip() == "2 x 2: 1,0,0,1"


def test_error_exit_code_and_line(runner, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 junk\n")
    r = runner.invoke(main, ["hilbert", str(p)])
    assert r.exit_code == 2
    combined = r.output + (r.stderr if r.stderr_bytes else "")
    assert "error:" in combined


@pytest.mark.parametrize(
    "command", ["hilbert", "dual", "canon", "children", "subdivide", "explore", "analyze"]
)
def test_missing_matrix_file_is_a_usage_error(runner, tmp_path, command):
    r = runner.invoke(main, [command, str(tmp_path / "missing.txt")])
    assert r.exit_code == 2 and r.stdout == ""
    assert "Error: Invalid value for 'MATRIX'" in r.stderr
    assert "does not exist" in r.stderr


def test_store_in_missing_directory_fails_before_exploring(runner, chi_file, tmp_path, monkeypatch):
    import nashtoric.cli

    def explored(*args, **kwargs):
        raise AssertionError("explored before checking the store path")

    monkeypatch.setattr(nashtoric.cli, "resolution_subgraph", explored)
    store = tmp_path / "no" / "such" / "x.jsonl"
    r = runner.invoke(main, ["explore", chi_file, "--store", str(store)])
    assert r.exit_code == 2 and r.stdout == ""
    assert r.stderr.startswith("error: cannot write the store")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["explore", "CHI", "--store", "DIR"],
        ["cycles", "--store", "DIR"],
        ["export-dot", "--store", "DIR"],
        ["export-dot", "--store", "STORE", "-o", "DIR"],
    ],
)
def test_directory_as_store_or_output_is_a_usage_error(runner, chi_file, tmp_path, args):
    store = tmp_path / "s.jsonl"
    DigraphStore("normalized", 0, 2).save(str(store))
    names = {"CHI": chi_file, "DIR": str(tmp_path), "STORE": str(store)}
    r = runner.invoke(main, [names.get(a, a) for a in args])
    assert r.exit_code == 2 and r.stdout == ""
    assert r.stderr.endswith(f"'{tmp_path}' is a directory.\n")
    assert r.stderr.count("Error:") == 1


def _run_process(*args, stdin):
    """python -m nashtoric.cli in a child process, with this package first
    on its path; CliRunner mixes the two streams, a real process does not."""
    src = str(Path(nashtoric.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nashtoric.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_real_process_keys_stdin_and_errors_to_stderr():
    ok = _run_process("canon", "-", stdin="1 3\n0 5\n")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "2 x 2: 1,3,0,5\n", "")
    bad = _run_process("canon", "-", stdin="1 junk\n")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: line 1:")
