"""The three blowup procedures on toric data, parameterized by
characteristic: Nash blowup of a pointed affine semigroup, normalized Nash
blowup of a pointed cone, and the dual-side Nash subdivision of a cone.

All three read one chart at each vertex v of P = Conv(basis sums) + C, the
basis sums being the sums of the n-subsets of a generating set H of C that
are linear bases: H and each g - h (g, h in H) with v + g - h a basis sum.
Nash mode takes H the minimal generators of S and C its hull, and
minimalizes each chart.  Normalized mode takes H the Hilbert basis of C;
its chart at v is the saturation of the Nash chart, so the child is the
chart's cone.  The subdivision of sigma, the normal fan of P for C =
sigma-dual, takes the dual of each chart's cone.
The chart's cone is cone(P - v), since H lies in C: for bases I, J with
h_I = v, Brualdi's bijective exchange sigma: I-J -> J-I (1969) makes
h_J - v the sum of the chart elements sigma(e) - e.

Only the characteristic of the base field enters the computation, through
the echelon step over Q or GF(p) that decides which subsets of H are linear
bases.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import add

from .canonical import canonical_cone
from .cones import Cone, LatticePolyhedron
from .errors import BasisCapExceeded, InputError, NotFullRankError, NotPointedError
from .linalg import Vector, check_characteristic, reduce_independent, vec_sub
from .semigroups import AffineSemigroup, _full_rank_generators, _minimalize
from .semigroups import drop_dominated, hilbert_basis

DEFAULT_BASIS_CAP = 10**6


def enumerate_bases(
    H: Iterable[Sequence[int]], p, *, max_bases: int | None = None
) -> list[tuple[Vector, ...]]:
    """All n-element subsets of H that are bases of the ambient space over
    a field of characteristic p, in lexicographic order over sorted H."""
    p = check_characteristic(p)
    pts = _full_rank_generators(H)
    n, m = len(pts[0]), len(pts)
    out: list[tuple[Vector, ...]] = []
    # Depth-first over (next index, chosen points, their echelon rows), with
    # children pushed in reverse so that they pop in index order.
    stack = [(0, (), ())]
    while stack:
        start, chosen, rows = stack.pop()
        if len(chosen) == n:
            out.append(chosen)
            if max_bases is not None and len(out) > max_bases:
                raise BasisCapExceeded(max_bases)
            continue
        # Not enough points left to complete the subset.
        for i in reversed(range(start, m - (n - len(chosen)) + 1)):
            row = reduce_independent(rows, pts[i], p)
            if row is not None:
                stack.append((i + 1, chosen + (pts[i],), rows + (row,)))
    return out


def basis_sums(H: Iterable[Sequence[int]], p, *, max_bases=None) -> tuple[Vector, ...]:
    """Deduplicated sums over each basis subset of H."""
    sums = {
        tuple(sum(col) for col in zip(*subset))
        for subset in enumerate_bases(H, p, max_bases=max_bases)
    }
    return tuple(sorted(sums))


def _pareto_filter(points: Iterable[Vector], cone: Cone) -> tuple[Vector, ...]:
    """The points that can be vertices of conv(points) + cone.

    A delegate rather than an alias of drop_dominated: perfbench's tracer
    wraps every module binding of the object it traces, so an alias would
    count every Hilbert basis reduction as Pareto filtering."""
    return drop_dominated(points, cone.facet_normals)


def _vertex_charts(
    H: tuple[Vector, ...], C: Cone, p: int, max_bases: int | None
) -> list[tuple[Vector, ...]]:
    """The chart at each vertex v of P = Conv(basis sums of H) + C, in
    vertex order: the sorted union of H and each difference d of two
    elements of H with v + d a basis sum.  Every basis sum counts, not only
    the Pareto-kept ones: a semigroup need not be saturated."""
    sums = basis_sums(H, p, max_bases=max_bases)
    P = LatticePolyhedron(_pareto_filter(sums, C), C)
    sums = set(sums)
    exchanges = {vec_sub(g, h) for g in H for h in H if g != h}
    charts = []
    for v in P.vertices():
        chart = set(H)
        chart.update(d for d in exchanges if tuple(map(add, v, d)) in sums)
        charts.append(tuple(sorted(chart)))
    return charts


def nash_children(S: AffineSemigroup, p, *, max_bases: int = DEFAULT_BASIS_CAP):
    """One Nash blowup step: the collection of child semigroups of S.

    The chart at a basis I, S + <h_J - h_I over all bases J>, has the
    tangent cone of P at h_I as its hull, which is pointed exactly when h_I
    is a vertex.  So the kept charts are those of _vertex_charts, each
    minimalized; distinct children that happen to be unimodularly
    equivalent are both kept (the digraph collapses them by key later)."""
    p = check_characteristic(p)
    if not S.hull.is_pointed():
        raise NotPointedError("Nash blowup needs a pointed semigroup")
    if not S.is_full_lattice():
        raise NotFullRankError(
            "Nash blowup needs a full-rank semigroup generating Z^n; "
            "apply full_rank_normalize first"
        )
    children: set[AffineSemigroup] = set()
    for chart in _vertex_charts(S.generators, S.hull, p, max_bases):
        hull = Cone(chart)
        child = AffineSemigroup(_minimalize(chart, hull), assume_minimal=True)
        child._cache["hull"] = hull
        children.add(child)
    return tuple(sorted(children, key=lambda s: s.generators))


def normalized_nash_children(C: Cone, p, *, max_bases: int | None = None):
    """One normalized Nash blowup step: the cone of the chart at each
    vertex, the first of each unimodular class in vertex order."""
    p = check_characteristic(p)
    C.check_pointed_full_dimensional("normalized Nash blowup")
    children: dict[str, Cone] = {}
    for chart in _vertex_charts(hilbert_basis(C), C, p, max_bases):
        child = Cone(chart)
        key = canonical_cone(child)[0].serialization
        children.setdefault(key, child)
    return tuple(children[k] for k in sorted(children))


@dataclass(frozen=True)
class Fan:
    """A set of full-dimensional cones intersecting in common faces."""

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    def __iter__(self):
        return iter(self.maximal_cones)

    def __len__(self) -> int:
        return len(self.maximal_cones)


def nash_subdivision(sigma: Cone, p) -> Fan:
    """Nash subdivision of a cone on the N side: the duals of the cones of
    the charts of sigma-dual, the normal fan of its Newton polyhedron.
    Raises BasisCapExceeded past DEFAULT_BASIS_CAP bases of the dual."""
    p = check_characteristic(p)
    sigma.check_pointed_full_dimensional("nash_subdivision")
    dual = sigma.dual()
    charts = _vertex_charts(hilbert_basis(dual), dual, p, DEFAULT_BASIS_CAP)
    pieces = sorted((Cone(chart).dual() for chart in charts), key=lambda c: c.rays)
    return Fan(sigma.ambient_rank, tuple(pieces))


def reeves_cone(n: int, j: int) -> Cone:
    """The Reeves cone: e_1, ..., e_{n-1} together with (1, ..., 1, j)."""
    if n < 2 or j < 1:
        raise InputError("reeves_cone needs rank >= 2 and j >= 1")
    cols = [
        tuple(1 if i == k else 0 for i in range(n)) for k in range(n - 1)
    ]
    cols.append(tuple([1] * (n - 1) + [j]))
    return Cone(cols)


def semigroup_product(S: AffineSemigroup, k: int) -> AffineSemigroup:
    """Cartesian product of S with the standard semigroup of rank k."""
    if k < 0:
        raise InputError("k must be nonnegative")
    if k == 0:
        return S
    n = S.ambient_rank
    gens = [g + (0,) * k for g in S.generators]
    gens.extend(
        (0,) * n + tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
    )
    return AffineSemigroup(gens, assume_minimal=True)
