"""Singularity analysis of a pointed full-dimensional cone in M.

The report covers the three singularity classes the counterexample hunt
targets: toric hypersurfaces (Hilbert basis of size rank + 1), cyclic
quotients (cyclic N / N_sigma, read off the Smith normal form of the dual
rays), and Gorenstein singularities (a lattice point pairing to one with
every primitive dual ray), plus simpliciality, lattice index, saturation
and unimodularity flags.
"""

from dataclasses import dataclass

from .cones import Cone
from .linalg import IntMatrix, Vector, lattice_index, smith_normal_form, solve_integer
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
        return {
            "rank": self.rank,
            "simplicial": self.simplicial,
            "index": self.index,
            "gorenstein": self.gorenstein,
            "gorenstein_witness": list(self.gorenstein_witness)
            if self.gorenstein_witness is not None
            else None,
            "cyclic_quotient": self.cyclic_quotient,
            "invariant_factors": list(self.invariant_factors)
            if self.invariant_factors is not None
            else None,
            "hypersurface": self.hypersurface,
            "hilbert_count": self.hilbert_count,
            "saturated": self.saturated,
            "unimodular": self.unimodular,
        }


def analyze(C: Cone) -> AnalysisReport:
    """Analysis report of a pointed full-dimensional cone in M.

    Q-factoriality of the toric variety is exactly simpliciality of the
    cone, so no separate flag is reported."""
    C.check_pointed_full_dimensional("analyze")
    n = C.ambient_rank
    simplicial = C.is_simplicial()
    index = lattice_index(IntMatrix.from_columns(C.rays)) if simplicial else None

    dual_rays = C.facet_normals  # primitive rays of the dual cone in N
    witness = solve_integer(IntMatrix(dual_rays), (1,) * len(dual_rays))
    gorenstein = witness is not None

    cyclic = False
    factors: tuple[int, ...] | None = None
    if simplicial:
        factors, _, _ = smith_normal_form(IntMatrix.from_columns(dual_rays))
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
        unimodular=C.is_unimodular(),
    )
