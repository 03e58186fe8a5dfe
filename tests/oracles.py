"""Independent brute-force oracles used to freeze expected test values.

Every oracle here is deliberately naive and shares no code path with the
implementation it checks: exhaustive search, cofactor expansion, minor
gcds, box enumeration, small-coefficient functional sweeps, extreme rays
by the rank of their tight facets, facets by cofactors with graded
decomposition search, charts taken from the definition of the Nash
blowup.  None of them imports the package.
"""

import itertools
import json
from fractions import Fraction
from math import gcd, prod


def is_hnf(rows) -> bool:
    """The paper's Hermite normal form conditions, checked literally."""
    pivots = []
    last = -1
    for row in rows:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        j = nz[0]
        if any(p is None for p in pivots):
            return False  # nonzero row below a zero row
        if j <= last:
            return False
        if row[j] <= 0:
            return False
        pivots.append(j)
        last = j
    for i, j in enumerate(pivots):
        if j is None:
            continue
        piv = rows[i][j]
        for k in range(i):
            if not (0 <= rows[k][j] < piv):
                return False
    return True


def hnf_by_search(rows, bound=8, max_states=2_000_000):
    """Exhaustive breadth-first search over elementary row operations; the
    unique reachable matrix in HNF.  Practical only for tiny matrices."""
    start = tuple(tuple(r) for r in rows)
    m = len(rows)
    seen = {start}
    frontier = [start]
    found = set()
    while frontier:
        nxt = []
        for M in frontier:
            if is_hnf(M):
                found.add(M)
            rows_ = [list(r) for r in M]
            candidates = []
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    for q in (-3, -2, -1, 1, 2, 3):
                        c = [list(r) for r in rows_]
                        c[i] = [a + q * b for a, b in zip(c[i], c[j])]
                        candidates.append(c)
                # swap and negate
                c = [list(r) for r in rows_]
                c[i] = [-a for a in c[i]]
                candidates.append(c)
            for i in range(m):
                for j in range(i + 1, m):
                    c = [list(r) for r in rows_]
                    c[i], c[j] = c[j], c[i]
                    candidates.append(c)
            for c in candidates:
                if any(abs(x) > bound for r in c for x in r):
                    continue
                t = tuple(tuple(r) for r in c)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
            if len(seen) > max_states:
                raise RuntimeError("state bound exceeded")
        frontier = nxt
    assert len(found) == 1, f"expected a unique reachable HNF, got {found}"
    return next(iter(found))


def det_cofactor(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def snf_factors_by_minor_gcd(rows):
    """Invariant factors via the classical minor-gcd formula: the k-th
    determinantal divisor d_k is the gcd of all k x k minors, and the k-th
    invariant factor is d_k / d_{k-1}."""
    m, n = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsub in itertools.combinations(range(m), k):
            for csub in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in csub] for i in rsub]
                g = gcd(g, det_cofactor(minor))
        if g == 0:
            break
        divisors.append(g)
    return tuple(
        divisors[k] // divisors[k - 1] for k in range(1, len(divisors))
    )


def lattice_basis_by_minors(columns, basis) -> bool:
    """Whether basis, n rows of n entries or None, is the column-HNF basis
    of the lattice the n-vectors columns span.  Its transpose must satisfy
    is_hnf, the product of its diagonal must be the gcd of the maximal
    minors of the column matrix, and each column must be an integer
    combination of the basis columns.  The last two make the lattices
    equal and the first picks one basis of it.  None passes exactly when
    the columns span no full-rank lattice."""
    n = len(columns[0])
    factors = snf_factors_by_minor_gcd([list(r) for r in zip(*columns)])
    if basis is None or len(factors) < n:
        return basis is None and len(factors) < n
    if not is_hnf([list(c) for c in zip(*basis)]):
        return False
    if prod(basis[i][i] for i in range(n)) != prod(factors):
        return False
    # The basis is lower triangular: solve for each column by forward
    # substitution, in integers.
    for col in columns:
        x = list(col)
        for i in range(n):
            if x[i] % basis[i][i]:
                return False
            q = x[i] // basis[i][i]
            for k in range(n):
                x[k] -= q * basis[k][i]
        if any(x):
            return False
    return True


def cone_contains(rays, v) -> bool:
    """Exact membership of v in the cone spanned by rays, by rational
    Gaussian elimination over all ray subsets (Caratheodory)."""
    n = len(v)
    for k in range(1, n + 1):
        for sub in itertools.combinations(rays, k):
            sol = _solve_nonneg(sub, v)
            if sol:
                return True
    return not any(v)


def _solve_nonneg(rays, v):
    # Solve sum x_i rays_i = v with x_i >= 0 rational, rays independent.
    n = len(v)
    k = len(rays)
    A = [[Fraction(rays[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if A[i][c] != 0), None)
        if piv is None:
            return None  # dependent subset: skip (other subsets cover it)
        A[r], A[piv] = A[piv], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(n):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
    if any(A[i][k] != 0 for i in range(r, n)):
        return None
    xs = [A[i][k] for i in range(r)]
    if any(x < 0 for x in xs):
        return None
    return xs


def _rank_over_q(rows):
    """Rank by rational Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, len(A)):
            f = A[i][c] / A[r][c]
            A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def rank_over_field(rows, p):
    """Rank over Q (p = 0) by rational elimination, or over GF(p) by
    elimination modulo p."""
    if not p:
        return _rank_over_q(rows)
    A = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], p - 2, p)
        for i in range(r + 1, len(A)):
            f = A[i][c] * inv % p
            A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        r += 1
    return r


def rays_by_tight_facets(generators, facet_normals, equalities):
    """Extreme rays of the pointed cone spanned by generators, given its
    facet normals and the equalities of its span: the generators whose
    tight facet normals, together with the equalities, have rank n - 1."""
    n = len(generators[0])
    return tuple(
        sorted(
            g
            for g in set(generators)
            if _rank_over_q(
                [f for f in facet_normals if sum(a * x for a, x in zip(f, g)) == 0]
                + list(equalities)
            )
            == n - 1
        )
    )


def hilbert_basis_oracle_graded(rays, facets, coord_cap=None):
    """Exact Hilbert basis oracle from first principles.

    Every indecomposable lattice point lies in the zonotope of the rays,
    so its grade (sum of facet evaluations) is at most G = sum of the ray
    grades.  Every cone point of grade <= G has coordinates bounded by
    B = max_j |r_j|_inf * G / grade(r_j), so enumerating the box of size B
    and filtering by the facets and the grade bound captures all of them;
    decomposition witnesses of graded points stay inside the same set.

    Returns None when the box exceeds coord_cap (oracle too expensive)."""
    n = len(rays[0])
    w = [sum(f[i] for f in facets) for i in range(n)]

    def grade(p):
        return sum(w[i] * p[i] for i in range(n))

    ray_grades = [grade(r) for r in rays]
    G = sum(ray_grades)
    B = max(
        abs(r[i]) * G // g + 1 for r, g in zip(rays, ray_grades) for i in range(n)
    )
    if coord_cap is not None and B > coord_cap:
        return None
    pts = []
    for p in itertools.product(range(-B, B + 1), repeat=n):
        if not any(p):
            continue
        if any(sum(f[i] * p[i] for i in range(n)) < 0 for f in facets):
            continue
        if grade(p) <= G:
            pts.append(p)
    pset = set(pts)
    pts.sort(key=grade)
    out = set()
    for p in pts:
        gp = grade(p)
        decomposable = False
        for a in pts:
            if 2 * grade(a) > gp:
                break
            b = tuple(x - y for x, y in zip(p, a))
            if b in pset:
                decomposable = True
                break
        if not decomposable:
            out.add(p)
    return out


def hilbert_basis_by_box(rays, facets, box):
    """Hilbert basis by box enumeration: all lattice points of the cone
    with coordinates in [-box, box], reduced to indecomposables.  Valid
    when the true basis and all witnesses fit in the box."""
    n = len(rays[0])
    pts = [
        p
        for p in itertools.product(range(-box, box + 1), repeat=n)
        if any(p) and all(sum(f[i] * p[i] for i in range(n)) >= 0 for f in facets)
    ]
    pset = set(pts)
    out = []
    for p in pts:
        decomposable = False
        for a in pts:
            b = tuple(x - y for x, y in zip(p, a))
            if any(b) and b in pset:
                decomposable = True
                break
        if not decomposable:
            out.append(p)
    return set(out)


def vertices_by_functional_sweep(points, recession_rays, coeff_bound=12):
    """Vertices of conv(points) + cone(recession): v is a vertex iff some
    integer functional up to the bound is strictly positive on every
    recession ray and strictly separates v below all other points."""
    n = len(points[0])
    verts = set()
    for v in points:
        others = [p for p in points if p != v]
        for c in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
            if not any(c):
                continue
            if any(sum(ci * ri for ci, ri in zip(c, r)) <= 0 for r in recession_rays):
                continue
            if all(
                sum(ci * (pi - vi) for ci, pi, vi in zip(c, p, v)) > 0 for p in others
            ):
                verts.add(v)
                break
    return verts


def max_hnf_transforms_all_permutations(columns, hnf_fn):
    """Canonical-form oracle with its transforms: the row-major maximum H
    over the HNFs of every column permutation, and the sorted list of the
    U with U * A_perm = H for every permutation that reaches it."""
    best, optimal = None, []
    for perm in itertools.permutations(columns):
        H, _ = hnf_fn(perm)
        key = tuple(x for row in H for x in row)
        if best is None or key > best[0]:
            best, optimal = (key, H), [perm]
        elif key == best[0]:
            optimal.append(perm)
    H = best[1]
    return H, sorted(_transform_onto(perm, H) for perm in optimal)


def hnf_2x2_by_gcd(columns):
    """Row-style HNF of the nonsingular 2 x 2 matrix with these columns,
    from the extended gcd of its first column: rows (g, x) and (0, h) with
    g the gcd of the first column, h = |det| / g and 0 <= x < h.  The
    second value is None, in the place of a transform."""
    (a, c), (b, d) = columns
    g, s, t, r_, s_, t_ = a, 1, 0, c, 0, 1
    while r_:
        q = g // r_
        g, s, t, r_, s_, t_ = r_, s_, t_, g - q * r_, s - q * s_, t - q * t_
    if g < 0:
        g, s, t = -g, -s, -t
    h = abs(a * d - b * c) // g
    return ((g, (s * b + t * d) % h), (0, h)), None


def _transform_onto(cols, H):
    # U with U * cols = H, solved exactly on n independent columns J:
    # B^T X = H_J^T with B = cols[J] and X = U^T, by Gauss-Jordan.
    n = len(H)
    J = next(
        J
        for J in itertools.combinations(range(len(cols)), n)
        if det_cofactor([[cols[j][i] for j in J] for i in range(n)]) != 0
    )
    A = [
        [Fraction(cols[j][i]) for i in range(n)] + [Fraction(H[i][j]) for i in range(n)]
        for j in J
    ]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(n):
            if i != c and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    U = [[A[j][n + i] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in U for x in row)
    return tuple(tuple(int(x) for x in row) for row in U)


def all_simple_cycles(vertices, edges, max_len=6):
    """Every simple directed cycle up to max_len, as canonically rotated
    vertex tuples."""
    out_adj = {v: sorted(w for (a, w) in edges if a == v) for v in vertices}
    cycles = set()

    def walk(path):
        if len(path) > max_len:
            return
        for w in out_adj.get(path[-1], ()):
            if w == path[0]:
                rot = min(
                    tuple(path[i:] + path[:i]) for i in range(len(path))
                )
                cycles.add(rot)
            elif w not in path:
                walk(path + [w])

    for v in sorted(vertices):
        walk([v])
    return cycles


def sccs_by_closure(vertices, edges):
    """Strongly connected components as frozensets: the classes of mutual
    reachability in the reflexive transitive closure of edges (Warshall)."""
    vs = sorted(vertices)
    reach = {v: {v} | {w for a, w in edges if a == v} for v in vs}
    for k in vs:
        for v in vs:
            if k in reach[v]:
                reach[v] |= reach[k]
    return {frozenset(w for w in vs if w in reach[v] and v in reach[w]) for v in vs}


def shortest_cycle_through(edges, v):
    """Length of a shortest directed cycle through v, or None: breadth-first
    distances from v over edges, closed by an edge back into v."""
    dist = {v: 0}
    layer = [v]
    while layer:
        if any((w, v) in edges for w in layer):
            return dist[layer[0]] + 1
        nxt = []
        for a, w in sorted(edges):
            if a in layer and w not in dist:
                dist[w] = dist[a] + 1
                nxt.append(w)
        layer = nxt
    return None


def store_lines_by_json(meta, vertex_matrices, edges):
    """The lines of a saved store, one json.dumps per record: the meta
    record, then each vertex (its key and its matrix as lists of rows) in
    sorted key order, then each (source, target) edge in sorted order."""
    lines = [json.dumps(meta) + "\n"]
    for key in sorted(vertex_matrices):
        record = {"kind": "vertex", "key": key, "matrix": vertex_matrices[key]}
        lines.append(json.dumps(record) + "\n")
    for src, dst in sorted(edges):
        lines.append(json.dumps({"kind": "edge", "from": src, "to": dst}) + "\n")
    return lines


def _columns_matrix(cols):
    return [[c[i] for c in cols] for i in range(len(cols[0]))]


def pointed_minimal_generators(generators):
    """Minimal generating set of the semigroup spanned by full-rank
    generators, or None when their cone is not pointed.

    Facets come from cofactors: the normal of every n-1 independent
    generators that is nonnegative on all of them.  The sum w of the facet
    normals is positive on every generator exactly when the cone is
    pointed.  A generator g is then decomposable iff g - h is a nonzero
    element of the semigroup for some generator h, and membership of v is
    decided by recursion on the grade w.v, pruned by the facets."""
    gens = sorted({tuple(g) for g in generators if any(g)})
    n = len(gens[0])
    lines = set()
    for sub in itertools.combinations(gens, n - 1):
        rows = _columns_matrix(sub) if sub else [[]] * n
        w = [
            (-1) ** i * det_cofactor(rows[:i] + rows[i + 1 :]) for i in range(n)
        ]
        d = gcd(*w)
        if d:
            lines.add(tuple(x // d for x in w))
    normals = set()
    for w in lines:
        signs = set()
        for g in gens:
            e = sum(a * x for a, x in zip(w, g))
            if e:
                signs.add(e > 0)
                if len(signs) == 2:
                    break
        if signs == {False}:
            normals.add(tuple(-x for x in w))
        elif len(signs) < 2:
            normals.add(w)
    weight = [sum(col) for col in zip(*normals)] if normals else [0] * n
    if any(sum(a * x for a, x in zip(weight, g)) <= 0 for g in gens):
        return None
    known = {}

    def member(v):
        if not any(v):
            return True
        if any(sum(a * x for a, x in zip(f, v)) < 0 for f in normals):
            return False
        if v not in known:
            known[v] = any(
                member(tuple(a - b for a, b in zip(v, h))) for h in gens
            )
        return known[v]

    return tuple(
        g
        for g in gens
        if not any(
            h != g and member(tuple(a - b for a, b in zip(g, h))) for h in gens
        )
    )


def bases_by_definition(H, p):
    """The n-subsets of the sorted distinct vectors of H, in lexicographic
    order, whose cofactor determinant is nonzero in characteristic p."""
    H = sorted({tuple(h) for h in H})
    bases = []
    for sub in itertools.combinations(H, len(H[0])):
        d = det_cofactor(_columns_matrix(sub))
        if d % p if p else d:
            bases.append(sub)
    return bases


def nash_charts_oracle(generators, p):
    """Children of one Nash blowup step, taken from the definition.

    The Nash blowup of the toric variety of a pointed semigroup S with
    minimal generators H is the blowup of its logarithmic Jacobian ideal,
    generated by the monomials x^h_J, h_J the sum of an n-subset J of H
    whose determinant is nonzero in characteristic p.  Its chart at such
    a subset I is the semigroup S + <h_J - h_I over all bases J>; charts
    with a non-pointed hull are dropped.  Bases are found by cofactor
    determinants, with no exchange shortcut, and pointedness and minimal
    generators by pointed_minimal_generators.  Returns the set of minimal
    generating tuples of the pointed charts."""
    H = sorted({tuple(g) for g in generators})
    sums = {tuple(map(sum, zip(*b))) for b in bases_by_definition(H, p)}
    children = set()
    for h_I in sums:
        gens = set(H) | {tuple(a - b for a, b in zip(h_J, h_I)) for h_J in sums}
        minimal = pointed_minimal_generators(gens)
        if minimal is not None:
            children.add(minimal)
    return children


def semigroups_equivalent_by_search(X, Y) -> bool:
    """True iff an integral matrix of determinant +-1 maps the generator
    set X onto the generator set Y.

    For minimal generating sets of pointed full-rank semigroups this is
    unimodular equivalence, since such a map sends the minimal generators
    of one semigroup onto those of the other.  Search: fix one basis B of
    X and try every ordered image of it among Y; the only candidate map is
    A = Y_image * adj(B) / det(B), in integers."""
    X = sorted({tuple(g) for g in X})
    Y = sorted({tuple(g) for g in Y})
    if len(X) != len(Y):
        return False
    n = len(X[0])
    basis = next(
        _columns_matrix(sub)
        for sub in itertools.combinations(X, n)
        if det_cofactor(_columns_matrix(sub)) != 0
    )
    det = det_cofactor(basis)
    # adj[i][j] = (-1)^(i+j) * det(basis without row j and column i)
    adj = [
        [
            (-1) ** (i + j)
            * det_cofactor(
                [[basis[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            )
            if n > 1
            else 1
            for j in range(n)
        ]
        for i in range(n)
    ]
    targets = set(Y)
    for image in itertools.permutations(Y, n):
        M = _columns_matrix(image)
        scaled = [
            [sum(M[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if any(x % det for row in scaled for x in row):
            continue
        A = [[x // det for x in row] for row in scaled]
        if abs(det_cofactor(A)) != 1:
            continue
        if {tuple(sum(a * x for a, x in zip(row, g)) for row in A) for g in X} == targets:
            return True
    return False
