"""Brute-force oracles shared by the test modules: H0's fixed points and
trace image by Element sweeps over A and Q, the invariant factors of a
section from the orders of its coset representatives, the cyclicity
of a quotient from the orders of its elements, the automorphism
search's descent built in full and sorted, the IGS closure over every
ordered pair of entries in both directions, the maximal subgroups
filtered from every functional on G/Phi(G), lemma 2.1's: the
transversal and coset-grid shifts by membership probes, the coset-shift
scan with one map and one commutator image per element outside M, and
the inclusion loop over every such element, and theorem 2.6's pairing
subgroup filtered from every element of Z_2(G)."""

import itertools
from collections import Counter

from pgforge import kernel, structure
from pgforge.autos import (_broken_relation, _gen_vecs, _image, _rank_mod_p,
                           is_inner, make_automorphism, maximal_coset_shift)
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element, p_valuation
from pgforge.errors import DomainError
from pgforge.structure import _invariant_factors
from pgforge.subgroups import (
    _IgsBuilder,
    _leading,
    frattini_closure,
    quotient,
    subgroup_closure,
)


def act(a, q):
    """a^q, conjugation by the canonical representative q."""
    return a.conjugate(q)


def fixed_points(M):
    """The a in A with a^q = a for every generator q of Q, by a sweep of
    A."""
    return subgroup_closure(M.G, [
        a for a in M.a_elements if all(act(a, q) == a for q in M.gen_reps)
    ])


def trace_image(M):
    """The image of a -> prod over Q of a^q, from a product over all of Q
    for each basis element of A."""
    imgs = []
    for b in M.basis:
        acc = M.G.identity()
        for q in M.q_elements:
            acc = acc * act(b, q)
        imgs.append(acc)
    return subgroup_closure(M.G, imgs)


def invariants_of_orders(p, orders):
    """Invariant factors of a finite abelian p-group given the order of
    each of its elements: the elements of order dividing p^k number
    p^(l_k)."""
    counts = Counter(orders)
    levels = [
        p_valuation(sum(c for o, c in counts.items() if o <= p ** k), p)
        for k in range(p_valuation(max(counts), p) + 1)
    ]
    return tuple(_invariant_factors(p, levels))


def section_invariants(G, big, small):
    """Invariant factors of big/small for an abelian section big >= small,
    from the orders of the canonical coset representatives of small."""
    Q = quotient(G, small)
    reps = {Q.canonical_vec(v) for v in big.vectors()}
    return invariants_of_orders(G.prime, [rep_order(Q, Element(G, vec)) for vec in reps])


def rep_order(Q, x):
    """Order of xN in Q = G/N, by repeated p-th powers."""
    p = Q.parent.prime
    order = 1
    y = Q.canonical(x)
    while not y.is_identity:
        y = Q.canonical(y ** p)
        order *= p
    return order


def is_cyclic_by_orders(Q):
    """Whether some element of Q has order |Q|, by the order of each."""
    n = Q.order
    return n == 1 or any(rep_order(Q, q) == n for q in Q.elements())


def h0(M):
    """H0 as the fixed points over the trace image, both swept."""
    return section_invariants(M.G, fixed_points(M), trace_image(M))


def eager_fixing_leaves(G, fixed, pools):
    """The leaves of `autos._fixing_leaves` by one full descent from the
    last generator's image to the first, every pooled image's entry
    computed up front, and the leaf list sorted at the end."""
    p = G.prime
    n = G.n_gens
    t = G._tables
    _, project = structure.frattini_quotient(G)
    cand = [
        [(h, kernel.inv(t, h), kernel.power(t, h, m), list(project(h))) for h in pool]
        for pool, m in zip(pools, G.rel_orders)
    ]
    coords = [list(project(g)) for g in _gen_vecs(n)]
    target = [_rank_mod_p([list(r) for r in coords[i:]], p) for i in range(n)]
    fixed_igs = [u.vec for u in fixed.igs]
    images = [None] * n
    rows = [None] * n
    leaves = []

    def descend(i):
        if i < 0:
            leaf = tuple(images)
            if all(_image(t, leaf, enumerate(u)) == u for u in fixed_igs):
                leaves.append(leaf)
            return
        for h, hinv, hpow, row in cand[i]:
            images[i] = h
            rows[i] = row
            if (_rank_mod_p([list(r) for r in rows[i:]], p) >= target[i]
                    and _broken_relation(G, t, images, i, hinv, hpow) is None):
                descend(i - 1)
        images[i] = None

    descend(n - 1)
    leaves.sort()
    return leaves


def all_pairs_close(b):
    """Close an `_IgsBuilder` by the power residue of every entry and both
    conjugates u^-1 v u and u v u^-1 of every ordered pair of entries,
    all formed again on every pass, until a pass changes nothing."""
    t = b.t
    orders = b.pres.rel_orders
    while True:
        entries = [v for v in b.table if v is not None]
        residues = []
        for v in entries:
            i = _leading(v)
            residues.append(kernel.power(t, v, orders[i] // v[i]))
        for u in entries:
            ui = kernel.inv(t, u)
            for v in entries:
                if u is v:
                    continue
                residues.append(kernel.mul(t, kernel.mul(t, ui, v), u))
                residues.append(kernel.mul(t, kernel.mul(t, u, v), ui))
        changed = False
        for r in residues:
            if b.add(r):
                changed = True
        if not changed:
            return


def all_pairs_closure(P, vecs):
    """The subgroup generated by the vectors, closed by `all_pairs_close`."""
    b = _IgsBuilder(P)
    for v in vecs:
        b.add(v)
    all_pairs_close(b)
    return b.subgroup()


def filtered_maximal_subgroups(G):
    """The index-p subgroups, sorted by key: for every functional on
    G/Phi(G) whose first nonzero coefficient is 1, the closure of Phi(G)
    and every coset representative in its kernel, duplicates dropped."""
    phi = frattini_closure(G)
    Qp, project = structure.frattini_quotient(G)
    p = G.prime
    d = Qp.n_gens
    coords = {x.vec: project(x.vec) for x in quotient(G, phi).elements()}
    found = {}
    for func in itertools.product(range(p), repeat=d):
        if not any(func) or func[next(i for i, c in enumerate(func) if c)] != 1:
            continue
        gens = [u.vec for u in phi.igs] + [
            vec for vec, exps in coords.items()
            if sum(c * e for c, e in zip(func, exps)) % p == 0]
        M = subgroup_closure(G, gens)
        found[M.key()] = M
    return sorted(found.values(), key=lambda M: M.key())


# -- lemma 2.1 ------------------------------------------------------------------


def coset_exponent(G, M, g, x):
    """i with x in M g^i, for a maximal M and g outside it."""
    p = G.prime
    probe = x
    ginv = g.inverse()
    for i in range(p):
        if M.membership(probe):
            return i
        probe = probe * ginv
    raise DomainError("element fell outside the coset decomposition")


def _transversal_map_automorphism(G, U, x, x_new):
    """Images for the map u x^i -> u x_new^i on the coset decomposition
    over a maximal subgroup U."""
    images = []
    for g in G.gens():
        i = coset_exponent(G, U, x, g)
        u = g * (x ** i).inverse()
        images.append(u * x_new ** i)
    return make_automorphism(G, images)


def _pair_map_automorphism(G, U, xi, xj, xi_new, xj_new):
    """Images for u xi^l xj^k -> u xi_new^l xj_new^k when G/U is a
    2x2 elementary abelian coset grid."""
    images = []
    for g in G.gens():
        for l, k in itertools.product(range(2), repeat=2):
            u = g * (xj ** k).inverse() * (xi ** l).inverse()
            if U.membership(u):
                images.append(u * xi_new ** l * xj_new ** k)
                break
        else:
            raise DomainError("coset grid decomposition failed")
    return make_automorphism(G, images)


def element_coset_shift_scan(G, caps=DEFAULT_CAPS):
    """The scan as triples (M, g, z, alpha), one Element commutator image
    and one shift per g outside M, which one image and one shift per
    (M, z) replaced."""
    from pgforge.structure import center, center_of_subgroup, maximal_subgroups, omega1

    p = G.prime
    om = omega1(center(G, caps), caps)
    witnesses = []
    for M in maximal_subgroups(G, caps):
        zm = center_of_subgroup(G, M, caps)
        for g in [g for g in G.elements() if not M.membership(g)]:
            image = {a.commutator(g) for a in zm.elements()}
            for z in sorted(om.elements(), key=lambda e: e.vec):
                if z.is_identity or z in image:
                    continue
                try:
                    alpha = maximal_coset_shift(G, M, g, z, caps)
                except DomainError:
                    continue
                if alpha.order() != p or not alpha.fixes_pointwise(M):
                    continue
                if is_inner(G, alpha, caps) is None:
                    witnesses.append((M, g, z, alpha))
    return witnesses


def element_inclusion_failure(G):
    """The first (M, g) whose commutator image [Z(M), g] misses part of
    omega1(Z(G)), with one Element image per g outside M."""
    from pgforge.structure import center, center_of_subgroup, maximal_subgroups, omega1

    om = omega1(center(G))
    for M in maximal_subgroups(G):
        zm = center_of_subgroup(G, M)
        for g in G.elements():
            if M.membership(g):
                continue
            image = {a.commutator(g).vec for a in zm.elements()}
            missing = [z.vec for z in om.elements() if z.vec not in image]
            if missing:
                return {"M": M.key(), "g": g.vec, "outside": missing}
    return None


# -- theorem 2.6 ----------------------------------------------------------------


def filtered_pairing_subgroup(G):
    """H = {x in Z_2(G) : x^p in Z(G)}, Z_2(G) read as G when G is
    abelian, as the closure of the members of Z_2(G) that pass."""
    Z = structure.center(G)
    ucs = structure.upper_central_series(G)
    Z2 = ucs[2] if len(ucs) > 2 else ucs[-1]
    return subgroup_closure(G, [x for x in Z2.elements() if Z.membership(x ** G.prime)])
