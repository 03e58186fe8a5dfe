"""Command-line surface for the Nash blowup engine.

Matrices are read in the shared text format (one row per line, whitespace
separated, '#' comments); columns are the generators.  By default an
input matrix describes a cone sigma-dual in M (or, in nash mode, the
generators of a semigroup in M); pass --side N when the matrix lists
generators of sigma in N instead.

Every command reads MATRIX through _read, prints vectors through _columns
(the JSON lists and the text matrix at once) and keys vertices through
digraph._key, as the explorer does.
"""

import json
import os
import sys

import click

from . import __version__
from .analysis import analyze as analyze_cone
from .blowup import (
    nash_children,
    nash_subdivision,
    normalized_nash_children,
    reeves_cone,
)
from .cones import Cone
from .digraph import (
    Complete,
    DigraphStore,
    _key,
    export_dot,
    find_cycles,
    resolution_subgraph,
)
from .errors import NashToricError
from .linalg import IntMatrix, format_matrix, parse_matrix
from .sampling import sample_random
from .semigroups import hilbert_basis, minimal_generators


def _read(path: str, side: str, mode: str = "normalized"):
    """The vertex that the columns of the MATRIX at path (stdin for "-")
    give: the semigroup they generate (nash mode) or the cone in M."""
    with click.open_file(path, encoding="utf-8") as fh:
        matrix = parse_matrix(fh.read())
    if mode == "nash":
        if side == "N":
            raise NashToricError("nash mode takes semigroup generators in M")
        return minimal_generators(matrix.columns())
    cone = Cone(matrix)
    return cone.dual() if side == "N" else cone


def _columns(vectors) -> tuple[list, str]:
    """vectors as JSON lists and as the text matrix with them as columns."""
    return [list(v) for v in vectors], format_matrix(IntMatrix.from_columns(vectors))


def _emit(as_json: bool, payload: dict, human: str) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(human)


def _load_or_create_store(path, mode, char, rank) -> DigraphStore:
    if path and os.path.exists(path):
        store = DigraphStore.load(path)
        if store.mode != mode or store.characteristic != char:
            raise NashToricError(
                f"store at {path} has mode={store.mode} characteristic="
                f"{store.characteristic}; flags disagree"
            )
        if store.rank != rank:
            raise NashToricError(f"store rank {store.rank} != input rank {rank}")
        return store
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise NashToricError(f"cannot write the store {path}: no such directory")
    return DigraphStore(mode, char, rank)


def _not_a_dir(ctx, param, path):
    """A file path option given a directory is a usage error."""
    if path and os.path.isdir(path):
        raise click.BadParameter(f"{path!r} is a directory.")
    return path


matrix_arg = click.argument(
    "matrix_file",
    metavar="MATRIX",
    type=click.Path(exists=True, dir_okay=False, allow_dash=True),
)
side_opt = click.option(
    "--side",
    type=click.Choice(["M", "N"]),
    default="M",
    show_default=True,
    help="whether MATRIX generates sigma-dual in M or sigma in N",
)
char_opt = click.option(
    "--char", "characteristic", type=int, default=0, show_default=True,
    help="characteristic of the base field (0 or a prime)",
)
mode_opt = click.option(
    "--mode",
    type=click.Choice(["nash", "normalized"]),
    default="normalized",
    show_default=True,
)
json_opt = click.option("--json", "as_json", is_flag=True, help="machine output")
stored_opt = click.option(
    "--store", "store_path", type=click.Path(exists=True), required=True, callback=_not_a_dir
)


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NashToricError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="nashtoric")
def main():
    """Exact Nash blowups of affine toric varieties."""


@main.command()
@matrix_arg
@side_opt
@json_opt
def hilbert(matrix_file, side, as_json):
    """Hilbert basis of the cone generated by the columns of MATRIX."""
    basis = hilbert_basis(_read(matrix_file, side))
    lists, text = _columns(basis)
    _emit(
        as_json,
        {"count": len(basis), "basis_columns": lists},
        f"# {len(basis)} elements (columns)\n{text}",
    )


@main.command()
@matrix_arg
@json_opt
def dual(matrix_file, as_json):
    """Extreme rays of the dual cone (columns)."""
    lists, text = _columns(_read(matrix_file, "N").rays)
    _emit(as_json, {"rays": lists}, text)


@main.command()
@matrix_arg
@side_opt
@json_opt
@click.option(
    "--kind",
    type=click.Choice(["cone", "semigroup"]),
    default="cone",
    show_default=True,
    help="canonicalize the cone of the columns, or the semigroup they generate",
)
def canon(matrix_file, side, as_json, kind):
    """Canonical key modulo unimodular equivalence."""
    mode = "nash" if kind == "semigroup" else "normalized"
    key = _key(_read(matrix_file, side, mode))
    _emit(
        as_json,
        {"key": key.serialization, "matrix": key.matrix.to_lists()},
        key.serialization,
    )


@main.command()
@matrix_arg
@side_opt
@mode_opt
@char_opt
@json_opt
def children(matrix_file, side, mode, characteristic, as_json):
    """One blowup step: the children of the cone or semigroup."""
    start = _read(matrix_file, side, mode)
    if mode == "nash":
        kids = [(k, k.generators) for k in nash_children(start, characteristic)]
    else:
        kids = [(k, k.rays) for k in normalized_nash_children(start, characteristic)]
    human = [f"# {len(kids)} children"]
    listed = []
    for kid, vectors in kids:
        key = _key(kid).serialization
        lists, text = _columns(vectors)
        human += [f"## {key}", text]
        listed.append({"key": key, "columns": lists})
    _emit(as_json, {"count": len(kids), "children": listed}, "\n".join(human))


@main.command()
@matrix_arg
@side_opt
@char_opt
@json_opt
def subdivide(matrix_file, side, characteristic, as_json):
    """Nash subdivision of sigma in N (maximal cones of the normal fan)."""
    sigma = _read(matrix_file, "M" if side == "N" else "N")
    fan = [_columns(piece.rays) for piece in nash_subdivision(sigma, characteristic)]
    human = [f"# {len(fan)} maximal cones"]
    for _, text in fan:
        human += ["##", text]
    _emit(
        as_json,
        {"count": len(fan), "maximal_cones": [lists for lists, _ in fan]},
        "\n".join(human),
    )


@main.command()
@matrix_arg
@side_opt
@mode_opt
@char_opt
@json_opt
@click.option(
    "--store", "store_path", type=click.Path(), callback=_not_a_dir, help="persistent store file"
)
@click.option("--max-vertices", type=int, default=10**6, show_default=True)
@click.option("--max-seconds", type=float, default=86400.0, show_default=True)
def explore(matrix_file, side, mode, characteristic, as_json, store_path, max_vertices, max_seconds):
    """Breadth-first resolution subgraph of the input vertex."""
    start = _read(matrix_file, side, mode)
    store = _load_or_create_store(store_path, mode, characteristic, start.ambient_rank)
    status = resolution_subgraph(
        store,
        start,
        max_vertices=max_vertices,
        max_seconds=max_seconds,
    )
    if store_path:
        store.save(store_path)
    if isinstance(status, Complete):
        payload = {
            "status": "complete",
            "vertices": status.vertex_count,
            "edges": status.edge_count,
            "store_vertices": store.vertex_count(),
        }
        human = (
            f"complete: {status.vertex_count} vertices, {status.edge_count} edges"
            f" (store has {store.vertex_count()})"
        )
    else:
        payload = {
            "status": "budget-exhausted",
            "frontier": list(status.frontier),
            "store_vertices": store.vertex_count(),
        }
        human = f"budget exhausted: frontier of {len(status.frontier)} vertices"
    _emit(as_json, payload, human)


@main.command()
@stored_opt
@click.option("--max-report", type=int, default=None)
@json_opt
def cycles(store_path, max_report, as_json):
    """Directed cycles (one per nontrivial SCC, epsilon loop excluded)."""
    store = DigraphStore.load(store_path)
    found = find_cycles(store, max_report)
    human = [f"# {len(found)} cycles"]
    for cyc in found:
        human.append(f"length {len(cyc)}: " + " -> ".join(cyc))
    _emit(as_json, {"count": len(found), "cycles": found}, "\n".join(human))


@main.command()
@matrix_arg
@side_opt
@json_opt
def analyze(matrix_file, side, as_json):
    """Singularity report of the cone generated by the columns of MATRIX."""
    d = analyze_cone(_read(matrix_file, side)).to_dict()
    human = "\n".join(f"{k}: {v}" for k, v in d.items())
    _emit(as_json, d, human)


@main.command()
@click.argument("rank", type=int)
@click.argument("j", type=int)
@json_opt
def reeves(rank, j, as_json):
    """Generator matrix of the Reeves cone (columns)."""
    lists, text = _columns(reeves_cone(rank, j).generators)
    _emit(as_json, {"columns": lists}, text)


@main.command()
@mode_opt
@char_opt
@json_opt
@click.option("--rank", type=int, required=True)
@click.option("--count", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--entry-bound", type=int, default=5, show_default=True)
@click.option("--max-vertices", type=int, default=50_000, show_default=True)
@click.option("--max-seconds", type=float, default=600.0, show_default=True)
def sample(mode, characteristic, as_json, rank, count, seed, entry_bound, max_vertices, max_seconds):
    """Random sampling run; reports resolved / exhausted / cycle counts."""
    summary = sample_random(
        rank,
        mode,
        count,
        seed,
        entry_bound,
        characteristic=characteristic,
        max_vertices=max_vertices,
        max_seconds=max_seconds,
    )
    human = (
        f"sampled {summary.count} (mode={summary.mode}, p={summary.characteristic}, "
        f"rank={summary.rank}, seed={summary.seed}, bound={summary.entry_bound}): "
        f"{summary.resolved} resolved, {summary.budget_exhausted} budget-exhausted, "
        f"{summary.cycles_found} cycles"
    )
    _emit(as_json, summary.to_dict(), human)


@main.command(name="export-dot")
@stored_opt
@click.option("--output", "-o", type=click.Path(), callback=_not_a_dir)
def export_dot_cmd(store_path, output):
    """DOT rendering of a stored digraph."""
    store = DigraphStore.load(store_path)
    text = export_dot(store)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
