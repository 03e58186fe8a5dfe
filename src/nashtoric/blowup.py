"""The three blowup procedures on toric data, parameterized by
characteristic: Nash blowup of a pointed affine semigroup, normalized Nash
blowup of a pointed cone, and the dual-side Nash subdivision of a cone.

All three read one chart at each vertex v of P = Conv(basis sums) + C, the
basis sums being the sums of the n-subsets of a generating set H of C that
are linear bases.  No basis is enumerated: _vertex_charts walks the normal
fan of P.  Matroid greedy (Edmonds 1971) in the order of a functional w
inside a normal cone gives the one basis I of least w-weight, whose sum is
the vertex at w; one more greedy run crosses each wall between two normal
cones, as Groebner-fan traversal does (Fukuda-Jensen-Thomas 2007).  The
chart at v is H and each g - h with I - h + g a basis.  By Brualdi's
bijective exchange (1969) it generates S + <h_J - v over all bases J>, and
its cone is cone(P - v).  That cone contains C, so it is spanned by C's
rays and the chart's moves g - h that leave C; the moves inside C stay in
the chart but are not handed to the double description.  Nash mode takes
H the minimal generators of S and C its hull, and minimalizes each chart.
Normalized mode takes H the Hilbert basis of C; its chart is the
saturation of the Nash chart, so the child is the chart's cone.  The
subdivision of sigma, the normal fan of P for C = sigma-dual, takes the
dual of each chart's cone.

Only the characteristic of the base field enters the computation, through
the echelon step over Q or GF(p) of the greedy runs and the exchange test.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from operator import lt

from .canonical import canonical_cone
from .cones import Cone
from .errors import BasisCapExceeded, InputError, NotFullRankError, NotPointedError
from .linalg import Vector, adjugate, check_characteristic, dot, identity
from .linalg import independent, int_tuple, make_primitive, vec_sub
from .semigroups import AffineSemigroup, _minimalize, facet_values, hilbert_basis

DEFAULT_BASIS_CAP = 10**6


def _vector_sum(vectors: Iterable[Vector]) -> Vector:
    return tuple(map(sum, zip(*vectors)))


def _vertex_charts(
    H: tuple[Vector, ...], C: Cone, p: int, max_bases: int | None = None
) -> list[tuple[Vector, tuple[Vector, ...], Cone]]:
    """(v, chart, its cone) at each vertex v of P = Conv(basis sums of H) +
    C, in vertex order, by a walk over the normal fan of P.

    The chart at v is H and each g - h with I - h + g a basis, I the greedy
    basis with sum v: by Cramer's rule, when row k of adj(I), h the k-th
    element of I, is nonzero at g modulo p.  H generates C, so C lies in
    the chart's cone, and that cone is built from C's rays and only the
    moves g - h outside C.  A ray e of the cone outside C is a bounded
    edge; the sum w of the cone's facet normals tight at e lies on the wall
    between the normal cones of its ends, and the key (w.h, -e.h, h)
    orders H as a functional just past it.  Each edge is crossed once; past
    max_bases greedy bases, the first and one per crossing, the walk raises
    BasisCapExceeded.  A max_bases of None reads DEFAULT_BASIS_CAP at call
    time."""
    if max_bases is None:
        max_bases = DEFAULT_BASIS_CAP
    w0 = _vector_sum(C.facet_normals)
    todo = [independent(sorted(H, key=lambda h: (dot(w0, h), h)), p)]
    charts = {_vector_sum(todo[0]): None}
    crossed: set[tuple[Vector, Vector]] = set()
    # g - h lies in C iff no facet value of g is below the one of h.
    values = facet_values(H, C.facet_normals)
    while todo:
        I = todo.pop()
        v = _vector_sum(I)
        chart = set(H)
        outside = set(C.rays)
        for row, h in zip(adjugate(I), I):
            at_h = values[h]
            for g in H:
                x = dot(row, g)
                if g != h and (x % p if p else x):
                    move = vec_sub(g, h)
                    chart.add(move)
                    if any(map(lt, values[g], at_h)):
                        outside.add(move)
        K = Cone(outside)
        charts[v] = (v, tuple(sorted(chart)), K)
        for e in K.rays:
            if C.contains(e) or (v, e) in crossed:
                continue
            if 1 + len(crossed) >= max_bases:
                raise BasisCapExceeded(max_bases)
            w = _vector_sum(f for f in K.facet_normals if dot(f, e) == 0)
            J = independent(sorted(H, key=lambda h: (dot(w, h), -dot(e, h), h)), p)
            u = _vector_sum(J)
            crossed.add((u, make_primitive(vec_sub(v, u))))
            if u not in charts:
                charts[u] = None
                todo.append(J)
    return [charts[v] for v in sorted(charts)]


def nash_children(S: AffineSemigroup, p, *, max_bases: int | None = None):
    """One Nash blowup step: the collection of child semigroups of S.

    The chart S + <h_J - h_I over all bases J> has a pointed hull exactly
    when h_I is a vertex, so the children are the vertex charts minimalized;
    distinct children that happen to be unimodularly equivalent are both
    kept (the digraph collapses them by key later)."""
    p = check_characteristic(p)
    if not S.hull.is_pointed():
        raise NotPointedError("Nash blowup needs a pointed semigroup")
    if not S.is_full_lattice():
        raise NotFullRankError(
            "Nash blowup needs a full-rank semigroup generating Z^n; "
            "apply full_rank_normalize first"
        )
    children: set[AffineSemigroup] = set()
    for _, chart, hull in _vertex_charts(S.generators, S.hull, p, max_bases):
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
    for _, _, child in _vertex_charts(hilbert_basis(C), C, p, max_bases):
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
    Raises BasisCapExceeded past DEFAULT_BASIS_CAP bases of the walk."""
    p = check_characteristic(p)
    sigma.check_pointed_full_dimensional("nash_subdivision")
    dual = sigma.dual()
    charts = _vertex_charts(hilbert_basis(dual), dual, p)
    pieces = sorted((K.dual() for _, _, K in charts), key=lambda c: c.rays)
    return Fan(sigma.ambient_rank, tuple(pieces))


def reeves_cone(n: int, j: int) -> Cone:
    """The Reeves cone: e_1, ..., e_{n-1} together with (1, ..., 1, j)."""
    n, j = int_tuple((n, j))
    if n < 2 or j < 1:
        raise InputError("reeves_cone needs rank >= 2 and j >= 1")
    cols = list(identity(n)[: n - 1])
    cols.append((1,) * (n - 1) + (j,))
    return Cone(cols)

