"""Degree-zero and degree-one cohomology of center modules.

For a normal subgroup N of G, the quotient Q = G/N acts on A = Z(N) by
conjugation.  This module computes H0 = A_Q / A^tau (the fixed points
modulo the trace image), the group Z1 of crossed homomorphisms, the
principal subgroup B1, H1 = Z1/B1, and the bridge sending a cocycle f to
the automorphism g -> g (gN)^f.

A crossed homomorphism is a total table on Q obeying the cocycle law
f(qr) = f(q)^r f(r).  It is fixed by its values on generators of Q, and
in coordinates of A every other value is an integer-linear form in them,
so Z1 is the solution space of linear conditions modulo the orders of A's
basis.  `h0` and `h1` read H0, |Z1|, |B1| and H1 from span sizes, with no
enumeration.  `slice_is_bridge_image` decides proposition 1.3 the same
way: the bridge's defects are linear in the cocycle, so Z1's echelon basis
gives the subgroup K = bridge(Z1) of the pointwise-fixing slice, and the
slice is searched over coset representatives of K only.  `z1` and `b1`
list the cocycles for the checks that still need them: lemma 3.7's
exponent, second-proof's first cocycle in key order, and prop-1.3's
listing where the route declines.

For p-groups, vanishing of H0 or H1 in one degree forces vanishing in the
other.  Theorem 3.6's check asserts both degrees nonzero, and the test
`test_degree_consistency_on_all_modules` checks the equivalence on every
module.
"""

from __future__ import annotations

import itertools
from math import prod

from pgforge import kernel
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element, PcPresentation, p_valuation
from pgforge.errors import CapExceeded, DomainError, HypothesesUnmet
from pgforge import structure
from pgforge.subgroups import (
    Subgroup,
    _sift,
    coset_layers,
    enumerate_subgroups,
    is_normal,
    quotient,
)


class GModule:
    """Z(N) as a Q = G/N module under conjugation."""

    __slots__ = (
        "G",
        "N",
        "A",
        "Q",
        "gen_reps",
        "q_elements",
        "q_index",
        "basis",
        "basis_orders",
        "_coords",
    )

    def __init__(self, G, N, A, Q, caps=DEFAULT_CAPS):
        self.G = G
        self.N = N
        self.A = A
        self.Q = Q
        self.gen_reps = Q.generator_reps()
        self.q_elements = sorted(Q.elements(), key=lambda e: e.vec)
        self.q_index = {q.vec: i for i, q in enumerate(self.q_elements)}
        self.basis = structure.abelian_basis(A, caps)
        self.basis_orders = tuple(b.order() for b in self.basis)
        # b_1^e_1 ... b_m^e_m for every exponent tuple, e_1 varying slowest,
        # grown one basis element at a time with one product per element
        t = G._tables
        coords = {t.identity: ()}
        for b, o in zip(self.basis, self.basis_orders):
            powers = [b.vec]  # b, b^2, ..., b^(o - 1)
            while len(powers) < o - 1:
                powers.append(kernel.mul(t, powers[-1], b.vec))
            grown = {}
            for v, exps in coords.items():
                grown[v] = exps + (0,)
                for e, u in enumerate(powers, 1):
                    grown[kernel.mul(t, v, u)] = exps + (e,)
            coords = grown
        self._coords = coords

    def action_matrix(self, q: Element):
        """Row i = coordinates of basis[i]^q, entries mod the column
        orders."""
        t = self.G._tables
        qinv = kernel.inv(t, q.vec)
        return tuple(
            self._coords[kernel.product(t, (qinv, b.vec, q.vec))]
            for b in self.basis
        )

    def to_dict(self):
        return {
            "a_invariants": list(self.basis_orders),
            "q_order": self.Q.order,
            "action_matrices": {
                g.word_str(): [list(r) for r in self.action_matrix(g)]
                for g in self.gen_reps
            },
        }


def module_of(G: PcPresentation, N: Subgroup, caps=DEFAULT_CAPS) -> GModule:
    """The module of N, which must be normal: `quotient` refuses it
    otherwise, before the center sweep."""
    return _module_over(G, N, quotient(G, N), caps)


def _module_over(G, N, Q, caps):
    """The module of N with the quotient Q = G/N already built."""
    A = structure.center_of_subgroup(G, N, caps)
    if Q.order * A.order > caps.cohomology:
        raise CapExceeded("cohomology table", Q.order * A.order, caps.cohomology)
    return GModule(G, N, A, Q, caps)


class CrossedHom:
    """A total table Q -> A satisfying f(qr) = f(q)^r f(r)."""

    __slots__ = ("module", "values")

    def __init__(self, module: GModule, values):
        self.module = module
        self.values = tuple(values)

    def key(self):
        return tuple(v.vec for v in self.values)

    def power(self, k: int) -> "CrossedHom":
        return CrossedHom(self.module, [v ** k for v in self.values])

    def is_trivial(self):
        return all(v.is_identity for v in self.values)


def _xgcd(a, b):
    """(g, u, v) with g = gcd(a, b) = u*a + v*b, for a > 0 and b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _fold(modulus, rows, values, orders):
    """One column of an integer Hermite reduction in X = Z/o_1 + ... + Z/o_r
    (o = `orders`), for a column read modulo `modulus`.

    rows[i] has the value values[i] in the column.  The pivot (a, vec)
    starts as the column's relation row (modulus, 0), and each row with a
    nonzero value is folded into it by the unimodular step
    [[u, v], [b/g, -a/g]], which leaves g = gcd(a, b) in the pivot and 0
    in the row.  Returns the final pivot and the rows that are zero in the
    column; these generate the elements of <rows> whose value is 0."""
    a, pv = modulus, (0,) * len(orders)
    rest = []
    for b, r in zip(values, rows):
        if not b:
            rest.append(r)
            continue
        g, u, v = _xgcd(a, b)
        ag, bg = a // g, b // g
        other = tuple((bg * x - ag * y) % o for x, y, o in zip(pv, r, orders))
        pv = tuple((u * x + v * y) % o for x, y, o in zip(pv, r, orders))
        a = g
        if any(other):
            rest.append(other)
    return (a, pv), rest


def _cocycle_forms(M: GModule):
    """One breadth-first walk of Q's Cayley graph with linear forms.

    With s_1..s_k the greedy generators of Q and A written in the
    coordinates of M.basis (orders o_1..o_m), a cocycle is fixed by its
    values x_j = f(s_j) in A, and f(q) = sum_j x_j C_j(q) is linear in
    x = (x_1, ..., x_k), an element of X = A^k with coordinate orders
    `x_orders`.  The walk builds the forms by f(q s_j) = f(q)^{s_j} x_j.
    Returns (forms, conditions, x_orders): forms[i][c] holds the
    coefficients of x in coordinate c of f(q_i), and each condition
    (o_c, d) is one edge that reached an element a second time with a
    different form, read as x . d = 0 modulo o_c.
    """
    picks = M.gen_reps
    qs = M.q_elements
    idx = M.q_index
    orders = M.basis_orders
    m = len(orders)
    zero = (0,) * (m * len(picks))
    # the columns of each action matrix
    mat_cols = [tuple(zip(*M.action_matrix(s))) for s in picks]
    t = M.G._tables
    start = idx[M.Q.canonical_vec(t.identity)]
    forms = [None] * len(qs)
    forms[start] = (zero,) * m
    conditions = {}
    frontier = [start]
    while frontier:
        nxt = []
        for qi in frontier:
            q = qs[qi].vec
            by_x = list(zip(*forms[qi]))
            for j, (s, cols) in enumerate(zip(picks, mat_cols)):
                ni = idx[M.Q.canonical_vec(kernel.mul(t, q, s.vec))]
                form = []
                for c, (o, weights) in enumerate(zip(orders, cols)):
                    col = [sum(w * e for w, e in zip(weights, es)) for es in by_x]
                    col[j * m + c] += 1
                    form.append(tuple(v % o for v in col))
                form = tuple(form)
                old = forms[ni]
                if old is None:
                    forms[ni] = form
                    nxt.append(ni)
                elif old != form:
                    for c, o in enumerate(orders):
                        d = tuple((a - b) % o for a, b in zip(form[c], old[c]))
                        if any(d):
                            conditions[(o, d)] = None
        frontier = nxt
    return forms, list(conditions), orders * len(picks)


def _kernel_basis(conditions, x_orders):
    """The `_echelon` basis of {x in X : x . d = 0 mod o for each (o, d)},
    generated by the rows of [D | I] left zero in every condition column
    by the Hermite reduction with the relation rows o e_c."""
    width = len(x_orders)
    rows = [tuple(int(r == i) for i in range(width)) for r in range(width)]
    for o, d in conditions:
        values = [sum(a * b for a, b in zip(r, d)) % o for r in rows]
        _, rows = _fold(o, rows, values, x_orders)
    return _echelon(rows, x_orders)


def _echelon(rows, orders):
    """The reduction of `rows` in X = Z/o_1 + ... + Z/o_r (o = `orders`)
    with the relations o_i e_i, one coordinate at a time: one (d_i, h_i)
    per i, h_i zero before i with d_i | o_i at i, so the span has
    prod o_i / d_i elements, the sums of t_i h_i with 0 <= t_i < o_i / d_i."""
    basis = []
    for i, o in enumerate(orders):
        pivot, rows = _fold(o, rows, [r[i] for r in rows], orders)
        basis.append(pivot)
    return basis


def _span_size(rows, orders):
    """The number of elements of the span of `rows` in X, read from the
    diagonal of `_echelon`."""
    return prod(o // d for o, (d, _) in zip(orders, _echelon(rows, orders)))


def _coset_bounds(rows, orders):
    """The diagonal (d_1, ..., d_r) of the `_echelon` of `rows`: each coset
    of K = <rows> in X holds exactly one x with 0 <= x_c < d_c for every c.

    Let (d_c, h_c) be the echelon, so K is the set of sums of t_c h_c with
    0 <= t_c < o_c / d_c.  Two such x and y in one coset differ by one of
    these sums, x - y = sum t_c h_c.  If some t_c is nonzero, take the
    first: h_c' is zero at c for c' > c, so x_c - y_c = t_c d_c mod o_c,
    a value in [d_c, o_c - d_c], while |x_c - y_c| < d_c puts x_c - y_c
    mod o_c in [0, d_c) or (o_c - d_c, o_c).  So every t_c is zero and
    x = y.  There are prod d_c such x and |X| / |K| = prod o_c / prod
    (o_c / d_c) = prod d_c cosets, so each coset holds one."""
    return tuple(d for d, _ in _echelon(rows, orders))


def _quotient(p, big, small, orders, escaped):
    """(log_p |<big>|, log_p |<small>|, the invariant factors of
    B = <big>/<small>) for rows of X; DomainError(escaped) unless <small>
    lies in <big>.  p^k B is <p^k big, small>/<small>, and
    |B[p^k]| = |B| / |p^k B|, so the levels log_p |B[p^k]| come from one
    span size per k."""
    def log_size(rows):
        return p_valuation(_span_size(rows, orders), p)

    top, base = log_size(big), log_size(small)
    sizes = [log_size(big + small) - base]  # log_p |p^k B|
    if sizes[0] != top - base:
        raise DomainError(escaped)
    while sizes[-1]:
        big = [tuple(p * x % o for x, o in zip(r, orders)) for r in big]
        sizes.append(log_size(big + small) - base)
    return top, base, tuple(structure._invariant_factors(p, [sizes[0] - s for s in sizes]))


def _principal_rows(M: GModule, qs):
    """Row j is the table (b_j^q b_j^-1)_q over qs, from the action
    matrices: a -> (a^q a^-1)_q is linear, with kernel the fixed points
    and image B1 (over Q's generators, in X = A^k)."""
    orders = M.basis_orders
    mats = [M.action_matrix(q) for q in qs]
    return [
        tuple((mat[j][c] - (c == j)) % o for mat in mats for c, o in enumerate(orders))
        for j in range(len(orders))
    ]


def h0(M: GModule):
    """Invariant factors of H0, the fixed points A_Q (the kernel of
    `_principal_rows`) modulo the trace image, in the coordinates of
    M.basis.  Q's canonical representatives are g_1^e_1 ... g_n^e_n with
    0 <= e_i < l_i, l the coset layers of N, so the norm a -> prod_q a^q is
    the composite of the maps a -> a a^g ... a^(g^(l - 1)) for g = g_i in
    turn, with no loop over Q (K. S. Brown, Cohomology of Groups, VI)."""
    orders = M.basis_orders
    m = len(orders)
    conditions = list(zip(orders * len(M.gen_reps), zip(*_principal_rows(M, M.gen_reps))))
    trace = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    layers = coset_layers(M.N)
    for mat, layer in [(M.action_matrix(g), l) for g, l in zip(M.G.gens(), layers) if l > 1]:
        for i, v in enumerate(trace):
            acc = v  # v + v M + ... + v M^(layer - 1), by Horner's rule
            for _ in range(layer - 1):
                acc = tuple((sum(x * row[c] for x, row in zip(acc, mat)) + v[c]) % o
                            for c, o in enumerate(orders))
            trace[i] = acc
    fixed = [h for _, h in _kernel_basis(conditions, orders)]
    return _quotient(M.G.prime, fixed, trace, orders,
                     "trace image escaped the fixed points")[2]


def h1(M: GModule):
    """(|Z1|, |B1|, the invariant factors of H1 = Z1/B1), with nothing
    enumerated.  A cocycle is written as its values (f(s_1), ..., f(s_k))
    on the greedy generators of Q, in X = A^k: Z1 is the kernel of the
    conditions of `_cocycle_forms`, and B1 is spanned by `_principal_rows`."""
    _, conditions, x_orders = _cocycle_forms(M)
    p = M.G.prime
    cocycles = [h for _, h in _kernel_basis(conditions, x_orders)]
    z, b, invariants = _quotient(p, cocycles, _principal_rows(M, M.gen_reps), x_orders,
                                 "principal cocycles escaped the cocycle group")
    return p ** z, p ** b, invariants


def _cocycle_basis(M: GModule):
    """(forms, counts): the forms of `_cocycle_forms`, and the rows
    (o / d, h) of Z1's `_kernel_basis` with d < o, so that Z1 is the set of
    sums of t h with 0 <= t < o / d and |Z1| is the product of the counts.
    Listing Z1 means |Z1| |Q| values, refused above 50 000 000 here, before
    anything is listed; `slice_is_bridge_image` lists nothing but refuses
    here too, so the refusal fires where `z1` has it."""
    forms, conditions, x_orders = _cocycle_forms(M)
    counts = [
        (o // d, h)
        for o, (d, h) in zip(x_orders, _kernel_basis(conditions, x_orders))
        if d < o
    ]
    needed = prod(count for count, _ in counts) * len(forms)
    if needed > 50_000_000:
        raise CapExceeded("cocycle solver", needed, 50_000_000)
    return forms, counts


def z1(M: GModule, caps=DEFAULT_CAPS):
    """All crossed homomorphisms, sorted by key, solved as the kernel of
    one linear system rather than filtered from A^k.

    `_cocycle_forms` writes f(q) as a linear form in the values on the
    greedy generators of Q, with one condition per clash of the walk, and
    `_kernel_basis` solves the conditions.  Each cocycle's table is then a
    sum of basis tables.  `_cocycle_basis` refuses the enumeration before
    it starts.  The tests keep the assignment-by-assignment walk and the
    filter of all A-valued tables as oracles.
    """
    forms, counts = _cocycle_basis(M)
    n = len(forms)
    orders = M.basis_orders
    steps = [
        (count, tuple(
            sum(a * b for a, b in zip(h, col)) % o
            for form in forms
            for col, o in zip(form, orders)
        ))
        for count, h in counts
    ]
    return _crossed_homs(M, _span(steps, orders * n))


def _span(steps, flat_orders):
    """Every sum of t_i h_i with 0 <= t_i < count_i, for the coordinate
    tables h_i of (count_i, h_i) in steps, flat over (q, c) and reduced
    modulo flat_orders; the zero table comes first."""
    tables = [(0,) * len(flat_orders)]
    for count, h in steps:
        grown = []
        for t in tables:
            grown.append(t)
            for _ in range(count - 1):
                t = tuple((a + b) % o for a, b, o in zip(t, h, flat_orders))
                grown.append(t)
        tables = grown
    return tables


def _crossed_homs(M: GModule, tables):
    """The crossed homomorphisms of flat coordinate tables, sorted by key."""
    m = len(M.basis_orders)
    n = len(M.q_elements)
    elem = {exps: Element(M.G, vec) for vec, exps in M._coords.items()}
    out = [
        CrossedHom(M, [elem[t[i * m:(i + 1) * m]] for i in range(n)])
        for t in tables
    ]
    out.sort(key=CrossedHom.key)
    return out


def b1(M: GModule):
    """Principal crossed homomorphisms q -> a^{-1} a^q, sorted by key: the
    span of `_principal_rows` over all of Q, enumerated as in `z1` with
    duplicates dropped, so only the m basis elements are conjugated.  The
    test suite keeps the table of every a in A as its oracle."""
    orders = M.basis_orders
    steps = list(zip(orders, _principal_rows(M, M.q_elements)))
    return _crossed_homs(M, dict.fromkeys(_span(steps, orders * len(M.q_elements))))


# -- the automorphism bridge ---------------------------------------------------


def bridge_vecs(M: GModule, fs):
    """For each cocycle f in fs, the image vectors g_i f(g_i N) of the
    automorphism g -> g f(gN), formed on vectors and not validated: for
    cocycles that `z1` or `b1` has solved, the caller compares them with a
    slice found on its own, or validates the map once.  The test suite
    keeps the `Element` bridge, which checks the law and the relations of
    any table, as its oracle."""
    t = M.G._tables
    gens = [g.vec for g in M.G.gens()]
    cols = [M.q_index[M.Q.canonical_vec(g)] for g in gens]
    return [
        tuple(kernel.mul(t, g, f.values[c].vec) for g, c in zip(gens, cols))
        for f in fs
    ]


def c_aut_slice(G: PcPresentation, N: Subgroup, caps=DEFAULT_CAPS):
    """All automorphisms fixing the normal subgroup N pointwise with every
    defect g^{-1} g^a in N, sorted by key.

    The leaves of `autos._fixing_leaves`, the backtracking descent of the
    order-p search with its generation pruning, over `_slice_pools`.
    Every map there that keeps the relations and fixes N is an
    automorphism, being the identity on G/N and on N, so its kernel lies
    in N, where it is injective: the pruning drops no member of the slice.
    The search reads no cocycle or module, so the bridge can be checked
    against it.  prop-1.3 lists the slice only where
    `slice_is_bridge_image` declines.  The test suite keeps the filter of
    the whole product |N|^free as its oracle."""
    from pgforge.autos import Automorphism, _fixing_leaves

    if not is_normal(N):
        raise DomainError("c_aut_slice needs a normal subgroup")
    leaves = _fixing_leaves(G, N, _slice_pools(G, N, caps))
    return [Automorphism._of_vecs(G, leaf) for leaf in leaves]


def _slice_pools(G: PcPresentation, N: Subgroup, caps=DEFAULT_CAPS, keep=None):
    """The candidate images of `c_aut_slice`: [g_i] for a generator in N
    and g_i Z(N) for any other, with Z(N) from the `center_of_subgroup`
    memo, or only the g_i z with keep(i, z) when `keep` is given.  The
    product |Z(N)|^free is refused above 2 000 000, here, before the
    search starts and whatever `keep` drops.  N must be normal:
    `c_aut_slice` tests it, and `slice_is_bridge_image` takes N from a
    module, whose quotient has tested it.

    Z(N) drops no member of the slice.  Let a fix N pointwise and let
    n = g^-1 a(g) lie in N.  For m in N, m^g lies in N, since N is
    normal, so m^g = a(m^g) = a(m)^a(g) = m^(g n), and m^g = (m^g)^n.  As
    m runs over N so does m^g, so n commutes with every element of N and
    lies in Z(N)."""
    t = G._tables
    gens = [g.vec for g in G.gens()]
    in_n = [_sift(t, N._table, g) == t.identity for g in gens]
    z_vecs = sorted(structure.center_of_subgroup(G, N, caps).vectors())
    needed = len(z_vecs) ** in_n.count(False)
    if needed > 2_000_000:
        raise CapExceeded("pointwise-fixing slice", needed, 2_000_000)
    return [[g] if fixed else [kernel.mul(t, g, v) for v in z_vecs if keep is None or keep(i, v)]
            for i, (g, fixed) in enumerate(zip(gens, in_n))]


def slice_is_bridge_image(M: GModule, caps=DEFAULT_CAPS) -> bool:
    """Proposition 1.3 for M's N, decided from Z1's echelon basis with no
    cocycle, slice member or coboundary listed: True when the bridge
    f -> a_f, a_f(g) = g f(gN), is a bijection from Z1 onto the slice of
    `c_aut_slice` taking B1 onto the conjugations by A = Z(N); False when
    a step below does not confirm it, and the caller then lists both
    sides.  The refusals are the listing's, at the same points:
    `cocycle solver` in `_cocycle_basis`, then `pointwise-fixing slice` in
    `_slice_pools`, before the pools are cut.

    The defect map.  A member a of the slice fixes the generators in N, so
    it is fixed by its defect tuple (g_i^-1 a(g_i))_i over the generators
    g_i outside N, an element of X = A^free, in the coordinates of
    M.basis (the defects lie in A, see `_slice_pools`).  So the defect map
    is injective on the slice, and it is a homomorphism: for a and b in
    the slice, ab(g) = a(g d_b(g)) = g d_a(g) d_b(g), since d_b(g) lies in
    A, inside N, which a fixes.  The slice is a group, so its defects form
    a subgroup of X.  The bridge of a cocycle f has the defect
    (f(g_i N))_i, linear in f (`_bridge_defects`), and a_f a_h = a_(fh)
    by the same computation, so the defects of bridge(Z1) form the span
    of the basis rows' defects.  Then, in turn:

    - bridge(Z1) lies in the slice: each basis row's images keep the
      relations and fix N's IGS.  Such a map is an automorphism, being
      the identity on G/N and on N, so its kernel lies in N, where it is
      injective; the slice is a group, so it holds every product of them.
    - The bridge is injective: the span of the rows' defects, K, has
      |Z1| elements.
    - The slice lies in K: the descent of `c_aut_slice`, on pools cut to
      the defects reduced modulo K (`_coset_bounds`), yields one leaf per
      coset of K in the slice.  The identity is the leaf of K itself, so
      the slice is K when no other leaf comes.  When every cut pool has
      one candidate, that is the identity and the search is skipped.
    - B1 goes onto the conjugations by A: a -> (q -> a^q a^-1) and
      a -> (x -> a^-1 x a) are homomorphisms, so it is enough that the
      bridge defects of `_principal_rows` and the defects of conjugation
      by M.basis span one subgroup: sizes |P| = |I| = |P + I|.
    """
    from pgforge.autos import (_conjugation_vecs, _fixing_leaves, _gen_vecs, _image,
                               _vecs_validation_error)

    G, N, Q = M.G, M.N, M.Q
    t = G._tables
    ident = _gen_vecs(G.n_gens)
    m = len(M.basis_orders)
    one = Q.canonical_vec(t.identity)
    free = [i for i, g in enumerate(ident) if Q.canonical_vec(g) != one]
    orders = M.basis_orders * len(free)
    forms, counts = _cocycle_basis(M)
    rows = _bridge_defects(M, free, forms, [h for _, h in counts])
    vec_of = {exps: v for v, exps in M._coords.items()}
    fixed = [u.vec for u in N.igs]
    for d in rows:
        images = list(ident)
        for k, i in enumerate(free):
            images[i] = kernel.mul(t, ident[i], vec_of[d[k * m:(k + 1) * m]])
        if (_vecs_validation_error(G, images) is not None
                or any(_image(t, images, enumerate(u)) != u for u in fixed)):
            return False
    if _span_size(rows, orders) != prod(count for count, _ in counts):
        return False
    bounds = _coset_bounds(rows, orders)
    block = {i: bounds[k * m:(k + 1) * m] for k, i in enumerate(free)}
    pools = _slice_pools(G, N, caps, lambda i, z: all(
        e < d for e, d in zip(M._coords[z], block[i])))
    if any(len(pool) > 1 for pool in pools):
        if any(leaf != ident for leaf in _fixing_leaves(G, N, pools)):
            return False
    principal = _bridge_defects(M, free, forms, _principal_rows(M, M.gen_reps))
    inverses = {i: kernel.inv(t, ident[i]) for i in free}
    inner = [
        tuple(e for i in free for e in M._coords[kernel.mul(t, inverses[i], images[i])])
        for images in (_conjugation_vecs(G, b.vec) for b in M.basis)
    ]
    size = _span_size(principal, orders)
    return size == _span_size(inner, orders) == _span_size(principal + inner, orders)


def _bridge_defects(M: GModule, free, forms, rows):
    """The defect (f(g_i N))_i of the bridge of the cocycle f of each row
    of X = A^k (values on Q's greedy generators), over the generators g_i
    with index in `free`, flat in the coordinates of M.basis: f(g_i N) is
    read through the forms of `_cocycle_forms`, so nothing is listed."""
    orders = M.basis_orders
    cols = [forms[M.q_index[M.Q.canonical_vec(M.G.gen(i).vec)]] for i in free]
    return [
        tuple(sum(a * b for a, b in zip(h, w)) % o for form in cols for w, o in zip(form, orders))
        for h in rows
    ]


# -- the norm identity sweeps -------------------------------------------------


NORM_CASES = ("pcentral-odd", "class3-odd", "class3-even", "class2")


def norm_counterexample(G: PcPresentation, case: str, caps=DEFAULT_CAPS):
    """The norm identity in its case-exact form on every nontrivial
    abelian normal A, checked by `_norm_report` once the case's hypotheses
    hold.

    pcentral-odd: p odd and G/Z(G) p-central; for p > 3 the norm equals
    a^p exactly, for p = 3 up to a central defect.
    class3-odd: p odd, class <= 3; defect central.
    class3-even: p = 2, class <= 3; a^{xy} a^y a^x a = a^4 z, z central.
    class2: class <= 2; a^{g^{n-1}+...+1} = a^n z for a range of n.

    Returns (the first counterexample or None, tuples checked); raises
    HypothesesUnmet when the case does not apply to G.
    """
    if case not in NORM_CASES:
        raise DomainError(f"unknown norm case {case!r}")
    p = G.prime
    if G.order > caps.element_sweep:
        raise CapExceeded("norm sweep", G.order, caps.element_sweep)
    if case == "pcentral-odd":
        if p == 2:
            raise HypothesesUnmet("odd p required")
        if not structure.is_p_central(structure.central_quotient(G, caps), caps):
            raise HypothesesUnmet("central quotient not p-central")
    elif case == "class3-odd":
        if p == 2:
            raise HypothesesUnmet("odd p required")
        if structure.nilpotency_class(G) > 3:
            raise HypothesesUnmet("class exceeds 3")
    elif case == "class3-even":
        if p != 2:
            raise HypothesesUnmet("p = 2 required")
        if structure.nilpotency_class(G) > 3:
            raise HypothesesUnmet("class exceeds 3")
    else:
        if structure.nilpotency_class(G) > 2:
            raise HypothesesUnmet("class exceeds 2")

    return _norm_report(G, case, caps)


def _norm_exponents(case, p):
    """The n of the norms N_n checked in each case."""
    return [p] if case != "class2" else sorted({1, 2, p, p + 1, p * p})


def _norm_conjugators(G: PcPresentation, case: str, caps):
    """(A, xs, partners) for each nontrivial abelian member A of the
    normal-subgroup family, in its order.  Conjugation of A and the
    admissibility conditions only depend on cosets modulo the (normal)
    centralizer of A, so xs are the canonical coset representatives of
    C_G(A) that are admissible: g^p in C_G(A), or x^2 in C_G(A) for
    class3-even.  For class3-even partners[i] lists the k with
    (xs[i] xs[k])^2 in C_G(A); otherwise it is None."""
    p = G.prime
    t = G._tables
    mul, power = kernel.mul, kernel.power
    ident = t.identity
    for A in enumerate_subgroups(G, caps, normal=True):
        if A.is_trivial() or not A.is_abelian():
            continue
        cent = structure.centralizer(G, A, caps)

        def in_cent(v):
            return _sift(t, cent._table, v) == ident

        reps = itertools.product(*(range(l) for l in coset_layers(cent)))
        if case == "class3-even":
            xs = [x for x in reps if in_cent(power(t, x, 2))]
            partners = [[k for k, y in enumerate(xs) if in_cent(power(t, mul(t, x, y), 2))]
                        for x in xs]
        else:
            xs = [g for g in reps if in_cent(power(t, g, p))]
            partners = None
        yield A, xs, partners


def _norm_report(G: PcPresentation, case: str, caps=DEFAULT_CAPS):
    """(the first counterexample or None, tuples checked) of the norm
    identity over (A, a, g, n), or (A, a, x, y) for class3-even, in that
    order, with no hypothesis checks; the A and their admissible
    conjugators are those of `_norm_conjugators`.

    For fixed A and admissible g and n, a -> N_n(a) a^-n is a
    homomorphism A -> A, and so is a -> a^(xy) a^y a^x a a^-4 for fixed
    x, y: conjugation by g is an automorphism of the abelian normal A.  So
    the defect lies in Z(G) (or is trivial) on all of A exactly when it
    does on A's IGS (K. S. Brown, Cohomology of Groups, VI).  Each A is
    walked on its IGS, and when that passes it counts |A| tuples per
    admissible (g, n) or (x, y) pair.  The first A with a failing
    generator is walked again on all of its elements, and the first
    failing tuple there is the counterexample, its index among all the
    tuples the count, since every earlier A passed in full.  The
    test suite keeps the Element sweep as its oracle."""
    Z = structure.center(G, caps)
    ns = _norm_exponents(case, G.prime)
    checked = 0
    for A, xs, partners in _norm_conjugators(G, case, caps):
        walk = _norm_tuples(G, case, Z, A, xs, partners, [u.vec for u in A.igs])
        if all(passes for _, passes in walk):
            pairs = len(xs) * len(ns) if partners is None else sum(map(len, partners))
            checked += A.order * pairs
            continue
        walk = _norm_tuples(G, case, Z, A, xs, partners, A.vectors())
        return next((payload, index) for index, (payload, passes) in enumerate(walk, checked)
                    if not passes)
    return None, checked


def _norm_tuples(G: PcPresentation, case: str, Z: Subgroup, A: Subgroup, xs, partners,
                 elements):
    """(payload, whether the identity holds) for each tuple (a, g, n), or
    (a, x, y) for class3-even, with a running over `elements` of A, in
    that order.

    Each conjugator's inverse is formed once, and a^-n once per (a, n).
    The norms for every n come from one running product,
    N_(k+1)(a) = a^(g^k) N_k(a); for class3-even a^x is formed once per
    (a, x)."""
    p = G.prime
    t = G._tables
    mul, power, inv, product = kernel.mul, kernel.power, kernel.inv, kernel.product
    ident = t.identity
    key = A.key()
    inverses = [inv(t, x) for x in xs]

    def conj(a, g, ginv):
        return product(t, (ginv, a, g))

    def central(defect):
        return _sift(t, Z._table, defect) == ident

    if case == "class3-even":
        for a in elements:
            a4inv = power(t, a, -4)
            images = [conj(a, x, xinv) for x, xinv in zip(xs, inverses)]
            for x, ax, ks in zip(xs, images, partners):
                for k in ks:
                    defect = product(t, (inverses[k], ax, xs[k], images[k], ax, a, a4inv))
                    yield ({"A": key, "a": a, "x": x, "y": xs[k], "defect": defect},
                           central(defect))
        return
    ns = _norm_exponents(case, p)
    exact = case == "pcentral-odd" and p > 3
    for a in elements:
        inverse_powers = [power(t, a, -n) for n in ns]
        for g, ginv in zip(xs, inverses):
            norms = {1: a}
            ak = acc = a
            for k in range(1, ns[-1]):
                ak = conj(ak, g, ginv)
                acc = norms[k + 1] = mul(t, ak, acc)
            for n, an_inv in zip(ns, inverse_powers):
                defect = mul(t, norms[n], an_inv)
                passes = defect == ident if exact and n == p else central(defect)
                yield {"A": key, "a": a, "g": g, "n": n, "defect": defect}, passes


# -- fixed-point centralizers and nonvanishing ----------------------------------


def fixed_point_centralizer_mismatch(M: GModule, caps=DEFAULT_CAPS):
    """When H0 vanishes a nonzero module is cohomologically trivial, and
    then for every subgroup H of Q the centralizer of the H-fixed points is
    H itself.  Returns (the first H with another centralizer or None,
    subgroups checked); the zero module and one with H0 nonzero raise
    HypothesesUnmet.

    The subgroups H of Q are taken as the subgroups S of G above N, built
    from N up (`enumerate_subgroups(..., over=N)`), smallest first.  The
    S-fixed points are C_A(S), the stabilizer in A of S's IGS, and their
    centralizer is the stabilizer in G of C_A(S)'s IGS, which contains S
    and N: H is its own centralizer exactly when that stabilizer is S."""
    if M.A.is_trivial():
        raise HypothesesUnmet("trivial module")
    if h0(M) != ():
        raise HypothesesUnmet("not cohomologically trivial")
    G = M.G
    gens = tuple(g.vec for g in G.gens())
    a_igs = M.A.key()
    subs_over_n = enumerate_subgroups(G, caps, over=M.N)
    for checked, S in enumerate(subs_over_n):
        fixed = structure.stabilizer(G, a_igs, S.key())
        C = structure.stabilizer(G, gens, fixed.key())
        if C != S:
            return {"H": _q_reps(M, S), "centralizer": _q_reps(M, C)}, checked
    return None, len(subs_over_n)


def _q_reps(M: GModule, S: Subgroup):
    """The sorted canonical representatives of S's cosets of N."""
    return sorted({M.Q.canonical_vec(x) for x in S.vectors()})


def nonvanishing_hypothesis(G: PcPresentation, caps=DEFAULT_CAPS):
    """Raise HypothesesUnmet unless G has class at most 2, or p is odd and
    G/Z(G) has class at most 2 or is p-central: the hypotheses under which
    H0 and H1 of the Z(N) module are nonzero for every nontrivial normal N
    with noncyclic quotient."""
    if structure.nilpotency_class(G) <= 2:
        return
    if G.prime > 2:
        cq = structure.central_quotient(G, caps)
        if structure.nilpotency_class(cq) <= 2 or structure.is_p_central(cq, caps):
            return
    raise HypothesesUnmet("neither hypothesis branch applies")


def h0_h1(G: PcPresentation, N: Subgroup, caps=DEFAULT_CAPS):
    """The invariant factors of H0 and H1 of the Z(N) module, for
    nontrivial normal N with noncyclic quotient, under
    `nonvanishing_hypothesis`; otherwise HypothesesUnmet."""
    if N.is_trivial():
        raise HypothesesUnmet("N is trivial")
    Q = quotient(G, N)
    if Q.is_cyclic():
        raise HypothesesUnmet("quotient is cyclic")
    nonvanishing_hypothesis(G, caps)
    M = _module_over(G, N, Q, caps)
    return h0(M), h1(M)[2]
