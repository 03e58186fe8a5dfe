"""Hilbert bases and pointed affine semigroups.

hilbert_basis computes the minimal generating set of C n Z^n for a pointed
full-dimensional cone C by the primal method: a placing triangulation into
simplicial subcones, enumeration of the fundamental parallelepiped of each
subcone through column-HNF residues, and a single graded reduction pass to
the indecomposable elements.  The same reduction, with the membership
search as its test, gives the minimal generators of any pointed semigroup.

Non-saturated semigroups are represented by their minimal generating set.
Membership, for every rank, is one memoized depth-first search on facet
evaluations, graded by their sum: each node subtracts only the generators
whose grade is at most its own.
"""

import itertools
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from operator import sub

from .cones import Cone
from .errors import InputError, NotFullRankError, NotPointedError
from .linalg import (
    IntMatrix,
    Vector,
    adjugate,
    dot,
    independent,
    int_tuple,
    lattice_basis_of_columns,
    lattice_index,
    rank,
    solve_integer,
)


def _placing_triangulation(rays: Sequence[Vector]) -> list[tuple[int, ...]]:
    """Triangulate a pointed full-dimensional cone on its extreme rays.

    Rays are placed one at a time; each new ray is joined to the boundary
    facets of the current subcone that are visible from it."""
    # Seed with the first n independent rays (in sorted order).
    seed = [rays.index(r) for r in independent(rays, 0)]
    rest = [i for i in range(len(rays)) if i not in seed]
    simplices = [tuple(seed)]
    placed = [rays[i] for i in seed]
    for i in rest:
        r = rays[i]
        current = Cone(placed)
        visible = [f for f in current.facet_normals if dot(f, r) < 0]
        new_simplices = []
        for simplex in simplices:
            for drop in simplex:
                facet_idx = tuple(s for s in simplex if s != drop)
                for f in visible:
                    if all(dot(f, rays[s]) == 0 for s in facet_idx):
                        cand = tuple(sorted(facet_idx + (i,)))
                        if cand not in new_simplices:
                            new_simplices.append(cand)
                        break
        simplices.extend(new_simplices)
        placed.append(r)
    return simplices


def _parallelepiped_points(cols: Sequence[Vector]) -> list[Vector]:
    """Nonzero lattice points of {sum t_i c_i : 0 <= t_i < 1}."""
    n = len(cols)
    adj = adjugate(cols)
    # det(M) is entry (0, 0) of M * adj(M) = det(M) * I.
    d = sum(c[0] * a[0] for c, a in zip(cols, adj))
    if abs(d) == 1:
        return []
    # Column-HNF basis of the sublattice spanned by cols; the residues of
    # Z^n modulo the sublattice are the boxes under its diagonal.
    B = lattice_basis_of_columns(IntMatrix.from_columns(cols))
    diag = [B.data[i][i] for i in range(n)]
    out = []
    for tup in itertools.product(*(range(dd) for dd in diag)):
        # Map the residue representative into the parallelepiped.
        z = list(tup)
        lam_num = [dot(adj[i], z) for i in range(n)]
        q = [x // d for x in lam_num]
        p = tuple(
            z[i] - sum(cols[j][i] * q[j] for j in range(n)) for i in range(n)
        )
        if any(p):
            out.append(p)
    return out


def facet_values(points: Iterable[Vector], facets: Sequence[Vector]) -> dict:
    """Each point's tuple of facet values, keyed by the point."""
    return {pt: tuple(dot(f, pt) for f in facets) for pt in points}


def drop_dominated(
    evals: dict[Vector, tuple[int, ...]],
    member: Callable[[tuple[int, ...]], bool] | None = None,
) -> tuple[Vector, ...]:
    """The points that no kept point of smaller grade reduces, sorted.

    evals maps each point to its facet values (facet_values).  Points are
    taken by increasing grade, the sum of their facet values; a kept p
    reduces q when the facet values of q - p are all >= 0 and member, if
    given, accepts them.  Kept points suffice: if q = x + y in the
    semigroup, x is a sum of kept points, and q minus any one of them is in
    the semigroup.  With the facets of C and no member, candidates that
    generate C n Z^n reduce to its Hilbert basis."""
    kept: list[Vector] = []
    kept_evals: list[tuple[int, ...]] = []
    for pt in sorted(evals, key=lambda pt: (sum(evals[pt]), pt)):
        ev = evals[pt]
        for qe in kept_evals:
            diff = tuple(map(sub, ev, qe))
            if min(diff) >= 0 and (member is None or member(diff)):
                break
        else:
            kept.append(pt)
            kept_evals.append(ev)
    return tuple(sorted(kept))


def hilbert_basis(C: Cone) -> tuple[Vector, ...]:
    """The unique minimal generating set of C n Z^n (C pointed, full-dim)."""

    def compute():
        C.check_pointed_full_dimensional("hilbert_basis")
        rays = C.rays
        candidates = set(rays)
        for simplex in _placing_triangulation(rays):
            candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
        return drop_dominated(facet_values(candidates, C.facet_normals))

    return C._cached("hilbert", compute)


class AffineSemigroup:
    """Pointed affine semigroup given by its minimal generating set."""

    __slots__ = ("_gens", "_n", "_cache")

    def __init__(self, generators: Iterable[Sequence[int]], *, assume_minimal=False):
        gens = tuple(sorted({g for g in map(int_tuple, generators) if any(g)}))
        if not gens:
            raise InputError("semigroup needs at least one nonzero generator")
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise InputError("generators must have equal length")
        if not assume_minimal:
            gens = _minimalize(gens)
        self._gens = gens
        self._n = n
        self._cache: dict = {}

    @classmethod
    def standard(cls, n: int) -> "AffineSemigroup":
        return cls(IntMatrix.identity(n).columns(), assume_minimal=True)

    @property
    def ambient_rank(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple[Vector, ...]:
        """The Hilbert basis (minimal generating set), sorted."""
        return self._gens

    _cached = Cone._cached

    @property
    def hull(self) -> Cone:
        return self._cached("hull", lambda: Cone(self._gens))

    def _membership_solver(self) -> "_MembershipSolver":
        return self._cached("solver", lambda: _MembershipSolver(self._gens, self.hull))

    def is_full_lattice(self) -> bool:
        """True iff the generators span all of Z^n as a lattice."""
        gens = IntMatrix.from_columns(self._gens)
        return self.hull.is_full_dimensional() and lattice_index(gens) == 1

    def is_unimodular(self) -> bool:
        return len(self._gens) == self._n and self.is_full_lattice()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AffineSemigroup) and self._gens == other._gens

    def __hash__(self) -> int:
        return hash(self._gens)

    def __repr__(self) -> str:
        cols = ", ".join(str(list(g)) for g in self._gens)
        return f"AffineSemigroup([{cols}])"


class _MembershipSolver:
    """Exact membership in the semigroup of a fixed generator set.

    Points are handled through their facet-evaluation vectors (injective
    because the facet rows of a pointed hull have full rank), so the hull
    test is a componentwise comparison and results memoize across queries.
    The grade of a point is the sum of its evaluations, which is positive on
    every nonzero generator; one depth-first search, graded by it, answers
    every query.  A node only subtracts generators of grade at most its own,
    found by bisection in the generators sorted by decreasing grade.  member
    first rejects a point outside the group the generators span, which the
    search could only learn by exhausting every node below it."""

    def __init__(self, gens: Sequence[Vector], hull: Cone):
        """hull is the cone that gens span, which must be pointed; evals
        maps each generator to its values on the hull's inequality rows."""
        if not hull.is_pointed():
            raise NotPointedError("generators span a non-pointed cone")
        self.gens = gens
        self.facets = hull.inequality_rows()
        self.evals = facet_values(gens, self.facets)
        self.gen_evals = sorted(set(self.evals.values()), key=lambda e: (-sum(e), e))
        self._neg_grades = [-sum(e) for e in self.gen_evals]
        self.memo: dict[tuple[int, ...], bool] = {}

    def member_evals(self, target: tuple[int, ...]) -> bool:
        """target is a facet-evaluation vector with no negative entry.

        Each node on the stack is the node below it minus a generator, so
        one member above marks the whole stack; an exhausted node is not a
        member, since the generator set is fixed."""
        memo = self.memo
        if not any(target):
            return True
        if target in memo:
            return memo[target]
        gens, neg_grades = self.gen_evals, self._neg_grades

        def fitting(node):
            return iter(gens[bisect_left(neg_grades, -sum(node)) :])

        stack = [(target, fitting(target))]
        while stack:
            node, rest = stack[-1]
            for g in rest:
                child = tuple(map(sub, node, g))
                if min(child) < 0:
                    continue
                known = memo.get(child)
                if known is False:
                    continue
                if known or not any(child):
                    for above, _ in stack:
                        memo[above] = True
                    return True
                stack.append((child, fitting(child)))
                break
            else:
                memo[node] = False
                stack.pop()
        return False

    @cached_property
    def _lattice(self) -> IntMatrix:
        return IntMatrix.from_columns(self.gens)

    def member(self, v: Sequence[int]) -> bool:
        ev = tuple(dot(f, v) for f in self.facets)
        if min(ev) < 0 or solve_integer(self._lattice, v) is None:
            return False
        return self.member_evals(ev)


def semigroup_member(S, v: Sequence[int]) -> bool:
    """True iff v is a nonnegative integer combination of the generators.

    S may be an AffineSemigroup or a raw iterable of generators spanning a
    pointed cone."""
    if not isinstance(S, AffineSemigroup):
        S = AffineSemigroup(S, assume_minimal=True)
    return S._membership_solver().member(int_tuple(v))


def _minimalize(gens: tuple[Vector, ...], hull: Cone | None = None) -> tuple[Vector, ...]:
    """Indecomposable elements of the semigroup generated by gens, which
    form its unique minimal generating set: drop_dominated over the hull's
    inequality rows, with the membership search as its test."""
    solver = _MembershipSolver(gens, Cone(gens) if hull is None else hull)
    return drop_dominated(solver.evals, solver.member_evals)


def _full_rank_generators(G: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """The distinct nonzero vectors of G, sorted; they must span full rank."""
    gens = AffineSemigroup(G, assume_minimal=True).generators
    if rank(gens) < len(gens[0]):
        raise NotFullRankError("generators do not span full rank")
    return gens


def minimal_generators(G: Iterable[Sequence[int]]) -> AffineSemigroup:
    """The affine semigroup generated by G, reduced to its unique minimal
    generating set.  G must span a pointed full-rank cone."""
    return AffineSemigroup(_full_rank_generators(G))


def full_rank_normalize(
    G: Iterable[Sequence[int]],
) -> tuple[AffineSemigroup, IntMatrix]:
    """Change coordinates so the lattice generated by G becomes Z^n.

    Returns (semigroup, basis) where basis is the canonical column-HNF
    basis matrix of the original lattice: original = basis @ transformed.
    When the lattice is already Z^n the basis is the identity and the
    semigroup is unchanged."""
    gens = _full_rank_generators(G)
    B = lattice_basis_of_columns(IntMatrix.from_columns(gens))
    return AffineSemigroup([solve_integer(B, g) for g in gens]), B


def is_saturated(S: AffineSemigroup) -> bool:
    """True iff the semigroup equals the lattice points of its hull."""
    hull = S.hull
    if not hull.is_full_dimensional():
        raise NotFullRankError("saturation test needs a full-dimensional hull")
    return set(S.generators) == set(hilbert_basis(hull))
