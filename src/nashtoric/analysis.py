"""Singularity analysis of a pointed full-dimensional cone in M.

The report covers the three singularity classes the counterexample hunt
targets: toric hypersurfaces (Hilbert basis of size rank + 1), cyclic
quotients (cyclic N / N_sigma, read off the Smith normal form of the dual
rays), and Gorenstein singularities (a lattice point pairing to one with
every primitive dual ray), plus simpliciality, lattice index, saturation
and unimodularity flags.
"""

from dataclasses import asdict, dataclass

from .cones import Cone
from .linalg import Vector, column_index, smith_rows, solve_columns
from .semigroups import hilbert_basis


@dataclass(frozen=True)
class AnalysisReport:
    rank: int
    simplicial: bool
    index: int | None
    gorenstein: bool
    gorenstein_witness: Vector | None
    cyclic_quotient: bool
    invariant_factors: tuple[int, ...] | None
    hypersurface: bool
    hilbert_count: int
    saturated: bool
    unimodular: bool

    def to_dict(self) -> dict:
        """The fields in order, each tuple as a list."""
        return {
            k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()
        }


def analyze(C: Cone) -> AnalysisReport:
    """Analysis report of a pointed full-dimensional cone in M.

    Q-factoriality of the toric variety is exactly simpliciality of the
    cone, so no separate flag is reported."""
    C.check_pointed_full_dimensional("analyze")
    n = C.ambient_rank
    simplicial = C.is_simplicial()
    index = column_index(C.rays) if simplicial else None

    dual_rays = C.facet_normals  # primitive rays of the dual cone in N
    witness = solve_columns(tuple(zip(*dual_rays)), (1,) * len(dual_rays))
    gorenstein = witness is not None

    cyclic = False
    factors: tuple[int, ...] | None = None
    if simplicial:
        factors, _, _ = smith_rows(tuple(zip(*dual_rays)))
        cyclic = sum(1 for f in factors if f > 1) <= 1

    count = len(hilbert_basis(C))
    return AnalysisReport(
        rank=n,
        simplicial=simplicial,
        index=index,
        gorenstein=gorenstein,
        gorenstein_witness=witness,
        cyclic_quotient=cyclic,
        invariant_factors=factors,
        hypersurface=count == n + 1,
        hilbert_count=count,
        saturated=True,
        unimodular=index == 1,
    )
