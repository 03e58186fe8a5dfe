"""Hilbert bases and pointed affine semigroups.

hilbert_basis computes the minimal generating set of C n Z^n for a pointed
full-dimensional cone C by the primal method: a placing triangulation into
simplicial subcones, enumeration of the fundamental parallelepiped of each
subcone through column-HNF residues, and a single graded reduction pass to
the indecomposable elements.

Non-saturated semigroups are represented by their minimal generating set;
membership is a bounded search graded by a strictly positive functional.
"""

import itertools
from collections.abc import Iterable, Sequence

from .cones import Cone
from .errors import InputError, NotFullRankError, NotPointedError
from .linalg import (
    IntMatrix,
    Vector,
    determinant,
    dot,
    lattice_basis_of_columns,
    rank,
)


def _floor_div(a: int, b: int) -> int:
    # Floor of the exact rational a/b for b != 0.
    if b < 0:
        a, b = -a, -b
    return a // b


def _adjugate(cols: Sequence[Vector]) -> list[list[int]]:
    """Adjugate of the square matrix with the given columns, so that
    M * adj = det * I."""
    n = len(cols)
    M = IntMatrix.from_columns(cols)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [M.data[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            if n == 1:
                row.append(1)
            else:
                sign = -1 if (i + j) % 2 else 1
                row.append(sign * determinant(IntMatrix(minor)))
        adj.append(row)
    return adj


def _placing_triangulation(rays: Sequence[Vector], n: int) -> list[tuple[int, ...]]:
    """Triangulate a pointed full-dimensional cone on its extreme rays.

    Rays are placed one at a time; each new ray is joined to the boundary
    facets of the current subcone that are visible from it."""
    order = list(range(len(rays)))
    # Seed with the first n independent rays (in sorted order).
    seed: list[int] = []
    for i in order:
        if rank([rays[j] for j in seed] + [rays[i]]) > len(seed):
            seed.append(i)
            if len(seed) == n:
                break
    if len(seed) < n:
        raise NotFullRankError("cone is not full-dimensional")
    rest = [i for i in order if i not in seed]
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
    W = IntMatrix.from_columns(cols)
    d = determinant(W)
    if d == 0:
        raise NotFullRankError("simplicial cone matrix is singular")
    if abs(d) == 1:
        return []
    adj = _adjugate(cols)
    # Column-HNF basis of the sublattice spanned by cols; the residues of
    # Z^n modulo the sublattice are the boxes under its diagonal.
    B = lattice_basis_of_columns(W)
    diag = [B.data[i][i] for i in range(n)]
    out = []
    for tup in itertools.product(*(range(dd) for dd in diag)):
        # Map the residue representative into the parallelepiped.
        z = list(tup)
        lam_num = [dot(adj[i], z) for i in range(n)]
        q = [_floor_div(x, d) for x in lam_num]
        p = tuple(
            z[i] - sum(cols[j][i] * q[j] for j in range(n)) for i in range(n)
        )
        if any(p):
            out.append(p)
    return out


def drop_dominated(
    points: Iterable[Vector], facets: Sequence[Vector]
) -> tuple[Vector, ...]:
    """The points that dominate no other kept point, sorted.

    q is dominated by p when every facet value of q is at least that of p,
    i.e. q - p lies in the cone {x : f . x >= 0 for every facet f}.  Points
    are taken by increasing sum of facet values, so each dominated point
    meets a kept point that it dominates.  Two uses:
    - on candidates that generate C n Z^n, with the facets of C, the kept
      points are the indecomposable ones, the Hilbert basis;
    - on points P with the facets of a cone C, a dropped point lies in
      another point + C and is never a vertex of conv(P) + C."""
    evals = {pt: tuple(dot(f, pt) for f in facets) for pt in points}
    kept: list[Vector] = []
    kept_evals: list[tuple[int, ...]] = []
    for pt in sorted(evals, key=lambda pt: (sum(evals[pt]), pt)):
        ev = evals[pt]
        if any(all(a >= b for a, b in zip(ev, qe)) for qe in kept_evals):
            continue
        kept.append(pt)
        kept_evals.append(ev)
    return tuple(sorted(kept))


def hilbert_basis(C: Cone) -> tuple[Vector, ...]:
    """The unique minimal generating set of C n Z^n (C pointed, full-dim)."""

    def compute():
        if not C.is_full_dimensional():
            raise NotFullRankError("hilbert_basis needs a full-dimensional cone")
        if not C.is_pointed():
            raise NotPointedError("hilbert_basis needs a pointed cone")
        rays = C.rays
        n = C.ambient_rank
        candidates = set(rays)
        if len(rays) == n:
            candidates.update(_parallelepiped_points(rays))
        else:
            for simplex in _placing_triangulation(rays, n):
                candidates.update(
                    _parallelepiped_points([rays[i] for i in simplex])
                )
        return drop_dominated(candidates, C.facet_normals)

    return C._cached("hilbert", compute)


class AffineSemigroup:
    """Pointed affine semigroup given by its minimal generating set."""

    __slots__ = ("_gens", "_n", "_cache")

    def __init__(self, generators: Iterable[Sequence[int]], *, assume_minimal=False):
        gens = tuple(
            sorted({tuple(int(x) for x in g) for g in generators if any(g)})
        )
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

    @property
    def hull(self) -> Cone:
        if "hull" not in self._cache:
            self._cache["hull"] = Cone(self._gens)
        return self._cache["hull"]

    def _membership_solver(self) -> "_MembershipSolver":
        if "solver" not in self._cache:
            hull = self.hull
            if not hull.is_pointed():
                raise NotPointedError(
                    "semigroup membership needs a pointed hull"
                )
            self._cache["solver"] = _MembershipSolver(
                self._gens, hull.inequality_rows()
            )
        return self._cache["solver"]

    def is_full_lattice(self) -> bool:
        """True iff the generators span all of Z^n as a lattice."""
        if rank(self._gens) < self._n:
            return False
        return (
            lattice_basis_of_columns(IntMatrix.from_columns(self._gens))
            == IntMatrix.identity(self._n)
        )

    def is_unimodular(self) -> bool:
        return (
            len(self._gens) == self._n
            and abs(determinant(IntMatrix.from_columns(self._gens))) == 1
        )

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
    A one-dimensional shadow (which total grades are sums of generator
    grades) prunes most negative searches outright."""

    def __init__(self, gens: Sequence[Vector], facets: Sequence[Vector]):
        self.facets = facets
        evs = {tuple(dot(f, g) for f in facets) for g in gens}
        self.gen_evals = sorted(evs, key=lambda e: (-sum(e), e))
        self.grades = sorted({sum(e) for e in self.gen_evals})
        self.memo: dict[tuple[int, ...], bool] = {}
        self._bits = 1
        self._bits_limit = 0
        # 2-facet hulls get a bitset dynamic program instead of the search.
        self._rows: list[int] | None = [1] if len(facets) == 2 else None
        self._col_limit = 0

    def eval_point(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(dot(f, v) for f in self.facets)

    def _grade_reachable(self, t: int) -> bool:
        if t > self._bits_limit:
            limit = max(t, 2 * self._bits_limit, 64)
            mask = (1 << (limit + 1)) - 1
            reach = 1
            for g in self.grades:
                prev = 0
                while reach != prev:
                    prev = reach
                    reach |= (reach << g) & mask
            self._bits = reach
            self._bits_limit = limit
        return bool(self._bits >> t & 1)

    def _member_2d(self, target: tuple[int, int]) -> bool:
        """Unbounded two-constraint knapsack by rows of column bitsets:
        row r holds the reachable second coordinates over combinations
        whose first coordinates sum to r."""
        A, B = target
        if B > self._col_limit:
            self._col_limit = max(2 * self._col_limit, B, 64)
            self._rows = []
        rows = self._rows
        mask = (1 << (self._col_limit + 1)) - 1
        cross = [(a, b) for a, b in self.gen_evals if a > 0]
        within = [b for a, b in self.gen_evals if a == 0]
        while len(rows) <= A:
            r = len(rows)
            acc = 1 if r == 0 else 0
            for a, b in cross:
                if a <= r:
                    acc |= rows[r - a] << b
            acc &= mask
            for b in within:
                prev = -1
                while acc != prev:
                    prev = acc
                    acc |= (acc << b) & mask
            rows.append(acc)
        return bool(rows[A] >> B & 1)

    def member_evals(self, target: tuple[int, ...]) -> bool:
        """target is a facet-evaluation vector with no negative entry."""
        if not any(target):
            return True
        if len(self.facets) == 1:
            return self._grade_reachable(target[0])
        if self._rows is not None:
            return self._member_2d(target)
        memo = self.memo
        known = memo.get(target)
        if known is not None:
            return known
        gens = self.gen_evals
        stack: list[list] = [[target, 0]]
        while stack:
            frame = stack[-1]
            node, idx = frame
            known = memo.get(node)
            if known is True:
                stack.pop()
                if stack:
                    memo[stack[-1][0]] = True
                continue
            resolved = False
            while idx < len(gens):
                g = gens[idx]
                idx += 1
                child = tuple(a - b for a, b in zip(node, g))
                ok = True
                nonzero = False
                for x in child:
                    if x < 0:
                        ok = False
                        break
                    if x:
                        nonzero = True
                if not ok:
                    continue
                if not nonzero:
                    memo[node] = True
                    resolved = True
                    break
                sub = memo.get(child)
                if sub is True:
                    memo[node] = True
                    resolved = True
                    break
                if sub is False:
                    continue
                if not self._grade_reachable(sum(child)):
                    memo[child] = False
                    continue
                frame[1] = idx
                stack.append([child, 0])
                resolved = None
                break
            if resolved is None:
                continue
            if resolved:
                stack.pop()
                if stack:
                    memo[stack[-1][0]] = True
            else:
                memo[node] = False
                stack.pop()
        return memo[target]

    def member(self, v: Sequence[int]) -> bool:
        ev = self.eval_point(v)
        if any(x < 0 for x in ev):
            return False
        if any(ev) and not self._grade_reachable(sum(ev)):
            return False
        return self.member_evals(ev)


def semigroup_member(S, v: Sequence[int]) -> bool:
    """True iff v is a nonnegative integer combination of the generators.

    S may be an AffineSemigroup or a raw iterable of generators spanning a
    pointed cone."""
    if isinstance(S, AffineSemigroup):
        gens = S.generators
        hull = S.hull
        solver = S._membership_solver()
    else:
        gens = tuple(
            sorted({tuple(int(x) for x in g) for g in S if any(tuple(g))})
        )
        if not gens:
            raise InputError("empty generator set")
        hull = Cone(gens)
        if not hull.is_pointed():
            raise NotPointedError("semigroup membership needs a pointed hull")
        solver = _MembershipSolver(gens, hull.inequality_rows())
    return solver.member(tuple(int(x) for x in v))


def _minimalize(gens: tuple[Vector, ...], hull: Cone | None = None) -> tuple[Vector, ...]:
    """Indecomposable elements of the semigroup generated by gens, which
    form its unique minimal generating set (grade induction: a sum of two
    nonzero elements always splits off a generator of strictly smaller
    grade)."""
    if hull is None:
        hull = Cone(gens)
    if not hull.is_pointed():
        raise NotPointedError("generators span a non-pointed cone")
    solver = _MembershipSolver(gens, hull.inequality_rows())
    evals = {g: solver.eval_point(g) for g in gens}
    order = sorted(gens, key=lambda g: (sum(evals[g]), g))
    kept = []
    for g in order:
        gv = evals[g]
        grade = sum(gv)
        redundant = False
        for h in order:
            hv = evals[h]
            if sum(hv) >= grade:
                break
            diff = tuple(a - b for a, b in zip(gv, hv))
            if min(diff) >= 0 and solver.member_evals(diff):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    return tuple(sorted(kept))


def _full_rank_generators(G: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """The distinct nonzero vectors of G, sorted; they must span full rank."""
    gens = tuple(sorted({tuple(int(x) for x in g) for g in G if any(tuple(g))}))
    if not gens:
        raise InputError("no nonzero generators given")
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
    if B == IntMatrix.identity(len(gens[0])):
        return AffineSemigroup(gens), B
    new_gens = [_solve_lower_triangular(B, g) for g in gens]
    return AffineSemigroup(new_gens), B


def _solve_lower_triangular(B: IntMatrix, g: Vector) -> Vector:
    n = B.rows
    x = [0] * n
    for i in range(n):
        s = g[i] - sum(B.data[i][j] * x[j] for j in range(i))
        piv = B.data[i][i]
        if s % piv != 0:
            raise NotFullRankError("point is not in the lattice of the basis")
        x[i] = s // piv
    return tuple(x)


def is_saturated(S: AffineSemigroup) -> bool:
    """True iff the semigroup equals the lattice points of its hull."""
    hull = S.hull
    if not hull.is_full_dimensional():
        raise NotFullRankError("saturation test needs a full-dimensional hull")
    return set(S.generators) == set(hilbert_basis(hull))
