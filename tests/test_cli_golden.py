"""Golden outputs of the command-line surface.

Every case runs one command through CliRunner, in order, in one fresh
directory holding INPUTS; later cases read the stores that earlier ones
write.  Each case's exit code, stdout, stderr and the bytes of the file
it names with --store or -o are compared with cli_golden.json.  Only
elapsed_seconds and the directory's path are masked.

Regenerate the expected file, after a deliberate change of output, with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from nashtoric.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "chi.txt": "# cone with chi display children\n1 3\n0 5\n",
    "sigma.txt": "-1 3\n2 -1\n",
    "cusp.txt": "2 3\n",
    "whitney.txt": "1 1 0\n1 0 2\n",
    "loop.txt": "1 0 0 0 2 1\n0 1 0 0 3 3\n0 0 1 0 -2 -1\n0 0 0 1 -1 -1\n",
    "a3.txt": "1 0 0 9\n0 1 0 10\n0 0 1 11\n0 0 0 12\n",
    "halfplane.txt": "1 -1 0\n0 0 1\n",
    "bad.txt": "1 2\n3 junk\n",
}

# A case is a command line; "< FILE" feeds FILE's text on stdin.
CASES = [
    "--version",
    "explore --help",
    "sample --help",
    "hilbert chi.txt",
    "hilbert chi.txt --json",
    "hilbert sigma.txt --side N",
    "hilbert sigma.txt --side N --json",
    "dual chi.txt",
    "dual chi.txt --json",
    "canon chi.txt",
    "canon chi.txt --json",
    "canon sigma.txt --side N",
    "canon whitney.txt --kind semigroup",
    "canon whitney.txt --kind semigroup --json",
    "canon - < chi.txt",
    "canon - --kind semigroup --json < whitney.txt",
    "children chi.txt",
    "children chi.txt --json",
    "children sigma.txt --side N --char 2",
    "children whitney.txt --mode nash",
    "children whitney.txt --mode nash --json",
    "children cusp.txt --mode nash --char 3 --json",
    "subdivide sigma.txt --side N",
    "subdivide sigma.txt --side N --json",
    "subdivide chi.txt --char 3",
    "subdivide chi.txt --json",
    "analyze a3.txt",
    "analyze a3.txt --json",
    "analyze chi.txt --side N",
    "reeves 3 2",
    "reeves 3 2 --json",
    "sample --rank 2 --count 3 --seed 7 --entry-bound 4",
    "sample --rank 2 --count 3 --seed 7 --entry-bound 4 --json",
    "sample --rank 2 --count 2 --mode nash --seed 3 --entry-bound 3 --json",
    "sample --rank 2 --count 0 --json",
    "explore chi.txt",
    "explore chi.txt --json",
    "explore whitney.txt --mode nash --char 2 --json",
    "explore chi.txt --store chi.jsonl",
    "explore chi.txt --store chi.jsonl --json",
    "explore sigma.txt --side N --store chi.jsonl --json",
    "explore loop.txt --store loop.jsonl --max-vertices 2",
    "explore loop.txt --store loop.jsonl --max-vertices 3 --json",
    "cycles --store chi.jsonl",
    "cycles --store chi.jsonl --json",
    "cycles --store loop.jsonl",
    "cycles --store loop.jsonl --json --max-report 1",
    "export-dot --store chi.jsonl",
    "export-dot --store loop.jsonl -o loop.dot",
    # Error paths.
    "hilbert bad.txt",
    "canon - --json < bad.txt",
    "children chi.txt --mode nash --side N",
    "explore chi.txt --mode nash --side N",
    "canon chi.txt --kind semigroup --side N",
    "explore whitney.txt --mode nash --store chi.jsonl",
    "explore chi.txt --char 2 --store chi.jsonl",
    "explore cusp.txt --store chi.jsonl",
    "analyze halfplane.txt",
    "reeves 1 2",
    "sample --rank 7 --count 1",
    "cycles --store missing.jsonl",
]

_ELAPSED = re.compile(r'"elapsed_seconds": [0-9.e-]+')


def _run_all() -> dict:
    runner = CliRunner()
    results = {}
    with runner.isolated_filesystem() as root:
        for name, text in INPUTS.items():
            Path(name).write_text(text, encoding="utf-8")
        for case in CASES:
            line, _, stdin_file = case.partition(" < ")
            args = line.split()
            stdin = Path(stdin_file).read_text() if stdin_file else None
            r = runner.invoke(main, args, input=stdin, terminal_width=80)
            record = {"exit_code": r.exit_code, "stdout": r.stdout, "stderr": r.stderr}
            for flag in ("--store", "-o"):
                if flag in args and os.path.exists(args[args.index(flag) + 1]):
                    record["file"] = Path(args[args.index(flag) + 1]).read_text()
            for field, text in record.items():
                if isinstance(text, str):
                    text = _ELAPSED.sub('"elapsed_seconds": 0', text)
                    record[field] = text.replace(os.path.realpath(root), "<tmp>")
            results[case] = record
    return results


@pytest.fixture(scope="module")
def outputs():
    return _run_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(outputs, golden, case):
    assert outputs[case] == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_run_all(), indent=1) + "\n", encoding="utf-8")
