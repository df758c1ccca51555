"""Brute-force oracles shared by the test modules: H0's fixed points and
trace image by Element sweeps over A and Q, the invariant factors of a
section from the orders of its coset representatives, the cyclicity
of a quotient from the orders of its elements, the automorphism
search's descent built in full and sorted, the IGS closure over every
ordered pair of entries in both directions, and the maximal subgroups
filtered from every functional on G/Phi(G)."""

import itertools
from collections import Counter

from pgforge import kernel, structure
from pgforge.autos import _broken_relation, _gen_vecs, _image, _rank_mod_p
from pgforge.core import Element, p_valuation
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
