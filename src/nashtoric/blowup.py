"""The three blowup procedures on toric data, parameterized by
characteristic: Nash blowup of a pointed affine semigroup, normalized Nash
blowup of a pointed cone, and the dual-side Nash subdivision of a cone.

Only the characteristic of the base field enters the computation, through
determinant tests modulo p when deciding which subsets of a Hilbert basis
are linear bases.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .canonical import canonical_cone
from .cones import Cone, LatticePolyhedron, feasible_cone
from .errors import BasisCapExceeded, InputError, NotFullRankError, NotPointedError
from .linalg import Vector, check_characteristic, rank
from .semigroups import AffineSemigroup, _minimalize, drop_dominated, hilbert_basis

DEFAULT_BASIS_CAP = 10**6


def _reduce_independent(rows: list, v: Sequence[int], p: int):
    """Reduce v against echelon rows over Q (p = 0) or GF(p); returns the
    new echelon row or None when v is dependent."""
    if p:
        w = [x % p for x in v]
        for pos, row in rows:
            if w[pos]:
                f = w[pos] * pow(row[pos], p - 2, p) % p
                w = [(a - f * b) % p for a, b in zip(w, row)]
    else:
        w = list(v)
        for pos, row in rows:
            if w[pos]:
                a, b = row[pos], w[pos]
                w = [a * x - b * y for x, y in zip(w, row)]
    pos = next((i for i, x in enumerate(w) if x), None)
    return None if pos is None else (pos, w)


def enumerate_bases(
    H: Iterable[Sequence[int]], p, *, max_bases: int | None = None
) -> list[tuple[Vector, ...]]:
    """All n-element subsets of H that are bases of the ambient space over
    a field of characteristic p, in lexicographic order over sorted H."""
    p = check_characteristic(p)
    pts = sorted({tuple(int(x) for x in h) for h in H})
    if not pts:
        raise InputError("empty generating set")
    n = len(pts[0])
    if rank(pts) < n:
        raise NotFullRankError("generators do not span full rank")
    out: list[tuple[Vector, ...]] = []
    m = len(pts)

    def extend(start: int, chosen: list[Vector], rows: list):
        depth = len(chosen)
        if depth == n:
            out.append(tuple(chosen))
            if max_bases is not None and len(out) > max_bases:
                raise BasisCapExceeded(max_bases)
            return
        # Not enough points left to complete the subset.
        for i in range(start, m - (n - depth) + 1):
            new_row = _reduce_independent(rows, pts[i], p)
            if new_row is not None:
                extend(i + 1, chosen + [pts[i]], rows + [new_row])

    extend(0, [], [])
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


def _newton_polyhedron(C: Cone, p: int, max_bases: int | None) -> LatticePolyhedron:
    """Conv(basis sums of the Hilbert basis of C) + C, built from the sums
    that can be vertices."""
    sums = basis_sums(hilbert_basis(C), p, max_bases=max_bases)
    return LatticePolyhedron(_pareto_filter(sums, C), C)


def nash_children(S: AffineSemigroup, p, *, max_bases: int = DEFAULT_BASIS_CAP):
    """One Nash blowup step: the collection of child semigroups of S.

    Charts whose generators span a non-pointed cone are discarded.  The
    children are minimized and returned as a sorted tuple of distinct
    semigroups; distinct charts that happen to be unimodularly equivalent
    are both kept (the digraph collapses them by canonical key later)."""
    p = check_characteristic(p)
    if not S.hull.is_pointed():
        raise NotPointedError("Nash blowup needs a pointed semigroup")
    if not S.is_full_lattice():
        raise NotFullRankError(
            "Nash blowup needs a full-rank semigroup generating Z^n; "
            "apply full_rank_normalize first"
        )
    H = S.generators
    bases = enumerate_bases(H, p, max_bases=max_bases)
    basis_set = {frozenset(b) for b in bases}
    charts: set[frozenset] = set()
    for I in bases:
        I_set = frozenset(I)
        gens = set(H)
        for h in I:
            rest = I_set - {h}
            for g in H:
                if g in I_set:
                    continue
                if rest | {g} in basis_set:
                    gens.add(tuple(a - b for a, b in zip(g, h)))
        charts.add(frozenset(gens))
    children: set[AffineSemigroup] = set()
    for gens in charts:
        hull = Cone(gens)
        if not hull.is_pointed():
            continue
        minimal = _minimalize(tuple(sorted(gens)), hull)
        child = AffineSemigroup(minimal, assume_minimal=True)
        child._cache["hull"] = hull
        children.add(child)
    return tuple(sorted(children, key=lambda s: s.generators))


def normalized_nash_children(C: Cone, p, *, max_bases: int | None = None):
    """One normalized Nash blowup step: the feasible cones at the vertices
    of Conv(basis sums) + C, deduplicated up to unimodular equivalence."""
    p = check_characteristic(p)
    if not C.is_full_dimensional():
        raise NotFullRankError("normalized Nash blowup needs a full-dimensional cone")
    if not C.is_pointed():
        raise NotPointedError("normalized Nash blowup needs a pointed cone")
    P = _newton_polyhedron(C, p, max_bases)
    children: dict[str, Cone] = {}
    for v in P.vertices():
        child = feasible_cone(v, P)
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
    """Nash subdivision of a cone on the N side: the maximal cones of the
    normal fan of Conv(basis sums) + sigma-dual, i.e. the duals of the
    feasible cones produced by the normalized Nash blowup of the dual."""
    p = check_characteristic(p)
    if not sigma.is_full_dimensional():
        raise NotFullRankError("nash_subdivision needs a full-dimensional cone")
    if not sigma.is_pointed():
        raise NotPointedError("nash_subdivision needs a pointed cone")
    P = _newton_polyhedron(sigma.dual(), p, None)
    pieces = [feasible_cone(v, P).dual() for v in P.vertices()]
    pieces.sort(key=lambda c: c.rays)
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
