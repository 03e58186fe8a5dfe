"""Pointed rational polyhedral cones with exact dual descriptions.

A cone is created from integer generators and caches two exact double
descriptions (Fukuda-Prodon 1996): (equalities, facets) from the
generators, and (lineality, rays) from the inequality rows of the first.
Each predicate reads one of them, and the dual of a pointed
full-dimensional cone takes the two swapped.

At rank 2, dual_description takes the rows u and v that are extreme by
the sign of the 2x2 determinant.  When det(u, v) > 0 and every row lies
between them, the rays are the perpendiculars to u and v; any other input
(no rows, one direction, opposite rows, a half-plane or more) takes the
general method.
"""

from collections.abc import Iterable, Sequence

from .errors import InputError, NotFullRankError, NotPointedError
from .linalg import (
    IntMatrix,
    Vector,
    _bareiss,
    dot,
    hermite_rows,
    int_tuple,
    make_primitive,
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


def _combine(a: int, u: Vector, b: int, v: Vector) -> Vector:
    """The primitive vector along a * u - b * v."""
    return make_primitive([a * x - b * y for x, y in zip(u, v)])


def dual_description(
    ineq_rows: Iterable[Sequence[int]], n: int
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Minimal generator description of {x in R^n : a . x >= 0 for all a}.

    Returns (lineality_basis, extreme_rays): the cone is the linear span of
    the lineality basis plus the nonnegative span of the rays, the rays
    being extreme modulo the lineality space.  All vectors are primitive
    integer vectors; the output is sorted and deterministic.  At n = 2,
    rows u and v extreme by the sign of the 2x2 determinant answer a
    pointed input directly; any other input takes _double_description.
    """
    rows = set()
    for a in ineq_rows:
        t = int_tuple(a)
        if len(t) != n:
            raise InputError("inequality row has wrong length")
        if any(t):
            rows.add(make_primitive(t))
    if n == 2 and rows:
        u = v = next(iter(rows))
        for r in rows:
            if u[0] * r[1] < u[1] * r[0]:
                u = r
            if r[0] * v[1] < r[1] * v[0]:
                v = r
        if u[0] * v[1] > u[1] * v[0] and all(
            u[0] * r[1] >= u[1] * r[0] and r[0] * v[1] >= r[1] * v[0] for r in rows
        ):
            return (), tuple(sorted({(-u[1], u[0]), (v[1], -v[0])}))
    try:
        return _double_description(rows, n)
    except TypeError as exc:  # the rows are checked, so n is no integer
        raise InputError(f"n must be an integer: {exc}") from None


def _double_description(rows, n: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """dual_description of distinct primitive nonzero rows of length n.

    Standard double description: start from all of R^n (lineality = the
    standard basis) and insert one inequality at a time.  While the new
    inequality cuts the lineality space, one lineality vector turns into a
    ray and the rest are projected onto the hyperplane.  Afterwards rays
    are split by sign and adjacent (+,-) pairs are combined; adjacency is
    the usual combinatorial test on sets of tight inequalities.
    """
    # Degeneracy-robust insertion order: few nonzero entries first.
    rows = sorted(rows, key=lambda t: (sum(1 for x in t if x), t))

    lineality = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[Vector, int]] = []  # (vector, tight bitmask)

    for k, a in enumerate(rows):
        bit = 1 << k
        evals = [dot(a, l) for l in lineality]
        if any(evals):
            idx = min((abs(e), i) for i, e in enumerate(evals) if e)[1]
            pivot, ev_p = lineality.pop(idx), evals.pop(idx)
            if ev_p < 0:
                pivot, ev_p = tuple(-x for x in pivot), -ev_p
            lineality = [
                _combine(ev_p, l, e, pivot) if e else l for l, e in zip(lineality, evals)
            ]
            for i, (v, m) in enumerate(rays):
                e = dot(a, v)
                rays[i] = (_combine(ev_p, v, e, pivot) if e else v, m | bit)
            rays.append((pivot, bit - 1))
            continue

        plus, zero, minus = [], [], []
        for v, mask in rays:
            e = dot(a, v)
            if e > 0:
                plus.append((v, mask, e))
            elif e == 0:
                zero.append((v, mask | bit))
            else:
                minus.append((v, mask, e))
        combos = []
        for vp, mp, ep in plus:
            for vm, mm, em in minus:
                common = mp & mm
                for v, m in rays:
                    if common & m == common and v is not vp and v is not vm:
                        break
                else:
                    combos.append((_combine(ep, vm, em, vp), common | bit))
        rays = [(v, m) for v, m, _ in plus] + zero + combos

    lin_out: tuple[Vector, ...] = ()
    if lineality:
        H, _ = hermite_rows(lineality)
        lin_out = tuple(make_primitive(r) for r in H if any(r))
    ray_out = tuple(sorted({v for v, _ in rays}))
    return lin_out, ray_out


class Cone:
    """Rational polyhedral cone in Z^n given by integer generators.

    Generators are primitivized and deduplicated on construction.  The
    cone caches its two descriptions: (equalities, facets) answers
    facet_normals, span_equalities, inequality_rows, contains and
    is_full_dimensional; (lineality, rays) answers rays, is_pointed,
    is_simplicial and is_unimodular.  The caches take no lock; cones are
    otherwise immutable.
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

    # -- the two descriptions --------------------------------------------

    def _dual_data(self):
        """(equalities, facet_rows): the cone is {x : F x >= 0, E x = 0}."""
        return self._cached("dual", lambda: dual_description(self._gens, self._n))

    def _primal_data(self):
        """(lineality, rays): the cone is span(L) + cone(R)."""
        return self._cached(
            "primal", lambda: dual_description(self.inequality_rows(), self._n)
        )

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

    @property
    def rays(self) -> tuple[Vector, ...]:
        """Extreme rays (for pointed cones).  For a cone with lineality,
        the extreme rays modulo the lineality space."""
        return self._primal_data()[1]

    # -- structural predicates -------------------------------------------

    def is_full_dimensional(self) -> bool:
        return not self.span_equalities

    def is_pointed(self) -> bool:
        return not self._primal_data()[0]

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
        return self.is_simplicial() and abs(_bareiss(list(self.rays), self._n)[0]) == 1

    def contains(self, v: Sequence[int]) -> bool:
        v = int_tuple(v)
        if len(v) != self._n:
            raise InputError("vector length does not match the ambient rank")
        return all(dot(a, v) >= 0 for a in self.inequality_rows())

    def dual(self) -> "Cone":
        """The dual cone {y : <y, x> >= 0 for all x in the cone}."""

        def compute():
            d = Cone(self.inequality_rows())
            if self.is_full_dimensional() and self.is_pointed():
                # Each description is the other's.  No pointer back to self,
                # which would make the pair a reference cycle; the dual's
                # own dual is rebuilt from these caches.
                d._cache["dual"] = self._primal_data()
                d._cache["primal"] = self._dual_data()
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
