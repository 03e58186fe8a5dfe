"""Pointed rational polyhedral cones with exact dual descriptions.

A cone is created from integer generators; facet inequalities, extreme
rays, pointedness, and duals are derived with an exact double description
method.
"""

from collections.abc import Iterable, Sequence

from .errors import InputError, NotFullRankError, NotPointedError
from .linalg import (
    IntMatrix,
    Vector,
    dot,
    hermite_normal_form,
    determinant,
    int_tuple,
    make_primitive,
    rank,
)


def _normalize_columns(generators) -> tuple[Vector, ...]:
    if isinstance(generators, IntMatrix):
        cols = generators.columns()
    else:
        cols = tuple(map(int_tuple, generators))
    if not cols:
        raise InputError("a cone needs at least one generator")
    n = len(cols[0])
    if n < 1 or any(len(c) != n for c in cols):
        raise InputError("generators must be nonempty vectors of equal length")
    out = []
    for c in cols:
        if not any(c):
            raise InputError("zero vector is not a valid cone generator")
        out.append(make_primitive(c))
    return tuple(sorted(set(out)))


def dual_description(
    ineq_rows: Iterable[Sequence[int]], n: int
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Minimal generator description of {x in R^n : a . x >= 0 for all a}.

    Returns (lineality_basis, extreme_rays): the cone is the linear span of
    the lineality basis plus the nonnegative span of the rays, the rays
    being extreme modulo the lineality space.  All vectors are primitive
    integer vectors; the output is sorted and deterministic.

    Standard double description: start from all of R^n (lineality = the
    standard basis) and insert one inequality at a time.  While the new
    inequality cuts the lineality space, one lineality vector turns into a
    ray and the rest are projected onto the hyperplane.  Afterwards rays
    are split by sign and adjacent (+,-) pairs are combined; adjacency is
    the usual combinatorial test on sets of tight inequalities.
    """
    rows = []
    seen = set()
    for a in ineq_rows:
        t = int_tuple(a)
        if len(t) != n:
            raise InputError("inequality row has wrong length")
        if not any(t):
            continue
        t = make_primitive(t)
        if t not in seen:
            seen.add(t)
            rows.append(t)
    # Degeneracy-robust insertion order: few nonzero entries first.
    rows.sort(key=lambda t: (sum(1 for x in t if x), t))

    lineality = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[Vector, int]] = []  # (vector, tight bitmask)

    for k, a in enumerate(rows):
        evals = [dot(a, l) for l in lineality]
        if any(evals):
            idx = min(
                (i for i, e in enumerate(evals) if e), key=lambda i: abs(evals[i])
            )
            pivot = lineality[idx]
            ev_p = evals[idx]
            if ev_p < 0:
                pivot = tuple(-x for x in pivot)
                ev_p = -ev_p
            new_lin = []
            for i, l in enumerate(lineality):
                if i == idx:
                    continue
                e = dot(a, l)
                if e == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(
                        make_primitive(
                            tuple(ev_p * x - e * y for x, y in zip(l, pivot))
                        )
                    )
            new_rays = []
            for v, mask in rays:
                e = dot(a, v)
                if e == 0:
                    new_rays.append((v, mask | (1 << k)))
                else:
                    w = make_primitive(
                        tuple(ev_p * x - e * y for x, y in zip(v, pivot))
                    )
                    new_rays.append((w, mask | (1 << k)))
            new_rays.append((pivot, (1 << k) - 1))
            lineality = new_lin
            rays = new_rays
            continue

        plus, zero, minus = [], [], []
        for v, mask in rays:
            e = dot(a, v)
            if e > 0:
                plus.append((v, mask, e))
            elif e == 0:
                zero.append((v, mask | (1 << k)))
            else:
                minus.append((v, mask, e))
        if not minus:
            rays = [(v, m) for v, m, _ in plus] + zero
            continue
        combos = []
        for vp, mp, ep in plus:
            for vm, mm, em in minus:
                common = mp & mm
                adjacent = True
                for v, m in rays:
                    if v is vp or v is vm:
                        continue
                    if common & m == common:
                        adjacent = False
                        break
                if adjacent:
                    w = make_primitive(
                        tuple(ep * x - em * y for x, y in zip(vm, vp))
                    )
                    combos.append((w, common | (1 << k)))
        rays = [(v, m) for v, m, _ in plus] + zero + combos

    lin_out: tuple[Vector, ...] = ()
    if lineality:
        H, _ = hermite_normal_form(IntMatrix(lineality))
        lin_out = tuple(make_primitive(r) for r in H.data if any(r))
    ray_out = tuple(sorted({v for v, _ in rays}))
    return lin_out, ray_out


class Cone:
    """Rational polyhedral cone in Z^n given by integer generators.

    Generators are primitivized and deduplicated on construction; the
    extreme rays, facet normals and lineality space are computed lazily
    and cached.  The caches take no lock; cones are otherwise immutable.
    """

    __slots__ = ("_gens", "_n", "_cache")

    def __init__(self, generators):
        self._gens = _normalize_columns(generators)
        self._n = len(self._gens[0])
        self._cache: dict = {}

    @property
    def ambient_rank(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple[Vector, ...]:
        """The primitive deduplicated input generators (possibly redundant)."""
        return self._gens

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- dual description ------------------------------------------------

    def _dual_data(self):
        """(equalities, facet_rows): the cone is {x : F x >= 0, E x = 0}."""

        def compute():
            lin, facet_rays = dual_description(self._gens, self._n)
            return lin, facet_rays

        return self._cached("dual", compute)

    @property
    def facet_normals(self) -> tuple[Vector, ...]:
        """Primitive inward facet normals (for a full-dimensional cone this
        is the complete minimal inequality description)."""
        return self._dual_data()[1]

    @property
    def span_equalities(self) -> tuple[Vector, ...]:
        """Normals vanishing on the cone; empty iff full-dimensional."""
        return self._dual_data()[0]

    def inequality_rows(self) -> tuple[Vector, ...]:
        """Rows a with cone = {x : a . x >= 0}: the facet normals, then each
        span equality followed by its negative."""
        eq, fac = self._dual_data()
        return fac + tuple(r for e in eq for r in (e, tuple(-x for x in e)))

    # -- structural predicates -------------------------------------------

    def is_full_dimensional(self) -> bool:
        return rank(self._gens) == self._n

    def is_pointed(self) -> bool:
        def compute():
            eq, fac = self._dual_data()
            return rank(list(fac) + list(eq)) == self._n

        return self._cached("pointed", compute)

    def check_pointed_full_dimensional(self, op: str) -> None:
        """Raise unless the cone is full-dimensional and pointed, naming
        the operation op that needs it."""
        if not self.is_full_dimensional():
            raise NotFullRankError(f"{op} needs a full-dimensional cone")
        if not self.is_pointed():
            raise NotPointedError(f"{op} needs a pointed cone")

    def is_simplicial(self) -> bool:
        return self.is_pointed() and len(self.rays) == self._n

    def is_unimodular(self) -> bool:
        if not self.is_pointed():
            return False
        r = self.rays
        if len(r) != self._n:
            return False
        return abs(determinant(IntMatrix.from_columns(r))) == 1

    # -- extreme rays ------------------------------------------------------

    @property
    def rays(self) -> tuple[Vector, ...]:
        """Extreme rays (for pointed cones).  For a cone with lineality,
        the extreme rays modulo the lineality space."""

        def compute():
            eq, fac = self._dual_data()
            if self.is_pointed():
                # Pointed: keep generators whose tight facets have rank n-1.
                out = []
                for g in self._gens:
                    tight = [f for f in fac if dot(f, g) == 0]
                    tight.extend(eq)
                    if rank(tight) == self._n - 1:
                        out.append(g)
                return tuple(sorted(out))
            _, r = dual_description(self.inequality_rows(), self._n)
            return r

        return self._cached("rays", compute)

    def contains(self, v: Sequence[int]) -> bool:
        eq, fac = self._dual_data()
        v = tuple(v)
        return all(dot(f, v) >= 0 for f in fac) and all(dot(e, v) == 0 for e in eq)

    def dual(self) -> "Cone":
        """The dual cone {y : <y, x> >= 0 for all x in the cone}."""

        def compute():
            eq, fac = self._dual_data()
            d = Cone(self.inequality_rows())
            if self.is_pointed() and not eq:
                # Pointed and full-dimensional: each description is the
                # other's, so prime the dual's caches.  No pointer back to
                # self, which would make the pair a reference cycle; the
                # dual's own dual is rebuilt from these caches.
                d._cache.setdefault("dual", ((), self.rays))
                d._cache.setdefault("rays", tuple(sorted(fac)))
            return d

        return self._cached("_dual_cone", compute)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cone)
            and self._n == other._n
            and self.rays == other.rays
            and self.span_equalities == other.span_equalities
        )

    def __hash__(self) -> int:
        return hash((self._n, self.rays))

    def __repr__(self) -> str:
        cols = ", ".join(str(list(g)) for g in self._gens)
        return f"Cone([{cols}])"

