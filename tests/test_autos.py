import itertools
import random

import pytest

from pgforge.autos import (
    AutWitness,
    Automorphism,
    _fixed_name,
    _has_order,
    _transversal_map_automorphism,
    central_socle_automorphisms,
    cohomological_witness,
    compose,
    commutator_image,
    coset_shift_scan,
    first_noninner,
    fixed_set_by_name,
    generates,
    identity_automorphism,
    inner_automorphism,
    is_inner,
    liebeck_sigma,
    make_automorphism,
    maximal_coset_shift,
    powerful_quotient_witness,
    search_order_p_automorphisms,
    validation_error,
)
from pgforge.core import PcPresentation, p_valuation, parse_presentation
from pgforge.errors import (
    CapExceeded,
    DomainError,
    HypothesesUnmet,
    MixedPresentationError,
)
from pgforge.structure import (
    agemo,
    center,
    centralizer,
    derived_subgroup,
    frattini,
    is_abelian,
    maximal_subgroups,
    omega1,
)
from pgforge.subgroups import (first_outside, full_subgroup, quotient, subgroup_closure,
                               trivial_subgroup)
from pgforge.caps import DEFAULT_CAPS, DeskCaps
from pgforge import corpus

import oracles
from oracles import eager_fixing_leaves, element_coset_shift_scan


def naive_is_inner(G, alpha):
    for h in G.elements():
        if all(x.conjugate(h) == alpha.apply(x) for x in G.gens()):
            return h
    return None


def test_identity_and_inner(d8):
    ident = identity_automorphism(d8)
    assert ident.order() == 1
    assert is_inner(d8, ident) is not None
    g2 = d8.gen(1)
    conj = inner_automorphism(d8, g2)
    assert validation_error(d8, conj.images) is None
    h = is_inner(d8, conj)
    assert h is not None
    assert all(x.conjugate(h) == conj.apply(x) for x in d8.gens())


def test_d8_shift_example_is_inner(d8):
    """g1 -> g1 g3, g2 -> g2, g3 -> g3 is a valid order-2 automorphism and
    conjugation by g2 realizes it."""
    g1, g2, g3 = d8.gens()
    alpha = make_automorphism(d8, [g1 * g3, g2, g3])
    assert alpha.order() == 2
    conj = is_inner(d8, alpha)
    assert conj is not None
    assert conj == g2 or conj == g2 * g3  # either representative works
    assert inner_automorphism(d8, conj) == alpha


def test_make_automorphism_rejects_bad_images(d8):
    g1, g2, g3 = d8.gens()
    with pytest.raises(DomainError, match="relation"):
        make_automorphism(d8, [g1, g1, g3])
    with pytest.raises(DomainError, match="generate"):
        make_automorphism(d8, [d8.identity(), d8.identity(), d8.identity()])
    with pytest.raises(DomainError):
        make_automorphism(d8, [g1, g2])


def test_compose_order_inverse(q8):
    x, y = q8.gens()
    alpha = make_automorphism(q8, [y, x.inverse() * y.inverse() * x * y * x])
    # sanity: composition against the inverse gives the identity
    inv = alpha.inverse()
    assert compose(alpha, inv) == identity_automorphism(q8)
    k = alpha.order()
    acc = alpha
    for _ in range(k - 1):
        acc = compose(acc, alpha)
    assert acc == identity_automorphism(q8)


def test_is_inner_matches_naive_sweep(small_corpus):
    rng = random.Random(9)
    for entry in small_corpus:
        G = entry.presentation
        if G.order > 2 ** 6:
            continue
        els = list(G.elements())
        autos = [identity_automorphism(G),
                 inner_automorphism(G, rng.choice(els))]
        autos += [w.automorphism for w in
                  search_order_p_automorphisms(G, frattini(G))[:3]]
        for alpha in autos:
            assert is_inner(G, alpha) == naive_is_inner(G, alpha)


def test_fixes_pointwise(d8):
    g1, g2, g3 = d8.gens()
    alpha = make_automorphism(d8, [g1 * g3, g2, g3])
    M = subgroup_closure(d8, [g2])
    assert alpha.fixes_pointwise(M)
    assert not alpha.fixes_pointwise(full_subgroup(d8))


# -- coset shift -------------------------------------------------------------


def test_coset_shift_identity_when_z_trivial(d8):
    M = subgroup_closure(d8, [d8.gen(1)])
    alpha = maximal_coset_shift(d8, M, d8.gen(0), d8.identity())
    assert alpha == identity_automorphism(d8)


def test_coset_shift_d8_cyclic_maximal_inner(d8):
    """z = g3 lies inside [Z(M), g], so the shift is inner."""
    g1, g2, g3 = d8.gens()
    M = subgroup_closure(d8, [g2])
    zm = M  # M is abelian
    image = {a.commutator(g1) for a in zm.elements()}
    assert g3 in image
    alpha = maximal_coset_shift(d8, M, g1, g3)
    assert alpha.order() == 2
    assert alpha.fixes_pointwise(M)
    assert is_inner(d8, alpha) is not None


def test_coset_shift_rejects_bad_input(d8):
    g1, g2, g3 = d8.gens()
    M = subgroup_closure(d8, [g2])
    with pytest.raises(DomainError):
        maximal_coset_shift(d8, M, g2, g3)  # g inside M
    with pytest.raises(DomainError):
        maximal_coset_shift(d8, M, g1, g2)  # shift element not central


def test_coset_shift_has_order_p_and_fixes_m(small_corpus):
    for entry in small_corpus:
        G = entry.presentation
        if is_abelian(G) or G.order > 2 ** 5:
            continue
        p = G.prime
        om = omega1(center(G))
        for M in maximal_subgroups(G):
            g = next(x for x in G.elements() if not M.membership(x))
            for z in om.elements():
                if z.is_identity or not M.membership(z):
                    continue
                alpha = maximal_coset_shift(G, M, g, z)
                assert alpha.order() == p
                assert alpha.fixes_pointwise(M)


def test_scan_dichotomy(small_corpus):
    """Per (M, g): either some central order-p element escapes [Z(M), g]
    (and the shift by it is noninner), or the socle lies inside."""
    from pgforge.structure import center_of_subgroup

    for entry in small_corpus:
        G = entry.presentation
        if is_abelian(G) or G.order > 2 ** 5:
            continue
        witnesses = coset_shift_scan(G)
        for (M, g, z, alpha) in witnesses:
            assert alpha.order() == G.prime
            assert alpha.fixes_pointwise(M)
            assert is_inner(G, alpha) is None
        if not witnesses:
            om = omega1(center(G))
            for M in maximal_subgroups(G):
                zm = center_of_subgroup(G, M)
                for g in G.elements():
                    if M.membership(g):
                        continue
                    image = {a.commutator(g) for a in zm.elements()}
                    for z in om.elements():
                        if not M.membership(z):
                            continue
                        assert z in image


def scan_keys(witnesses):
    return [(M.key(), g.vec, z.vec, alpha.key()) for M, g, z, alpha in witnesses]


def test_scan_matches_the_element_scan_on_the_corpus():
    """One record per distinct map of the element scan's triples, in order
    of first appearance, each with the M, g and z of that map's first
    triple; the records' |G| - |M| sum to the triple count.  On every
    nonabelian corpus group within the sweep cap."""
    scanned = nonempty = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep or is_abelian(G):
            continue
        ws = coset_shift_scan(G)
        triples = element_coset_shift_scan(G)
        first = {}
        for w in triples:
            first.setdefault(w[3].key(), w)
        assert scan_keys(ws) == scan_keys(first.values()), entry.id
        assert sum(G.order - M.order for M, _, _, _ in ws) == len(triples), entry.id
        scanned += 1
        nonempty += bool(ws)
    assert scanned >= 20 and nonempty >= 3


def test_commutator_image_is_the_image_at_every_g_outside_m():
    """{[a, g] : a in Z(M)} is `commutator_image(G, M, x)`'s element set
    for every maximal M and every g outside it, on every nonabelian
    corpus group within the sweep cap."""
    from pgforge.structure import center_of_subgroup

    pairs = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep or is_abelian(G):
            continue
        for M in maximal_subgroups(G):
            image = set(commutator_image(G, M, first_outside(G.gens(), M)).vectors())
            zm = list(center_of_subgroup(G, M).elements())
            for g in G.elements():
                if not M.membership(g):
                    assert image == {a.commutator(g).vec for a in zm}, entry.id
                    pairs += 1
    assert pairs == 3832


def test_coset_shift_by_a_power_of_x_is_a_shift_by_x():
    """maximal_coset_shift(G, M, x^k, z) is maximal_coset_shift(G, M, x,
    z^k') for k k' = 1 mod p, or both raise DomainError, for x the last
    generator outside each maximal M, 1 < k < p and every nontrivial z in
    omega1(Z(G)): 112 cases on the nonabelian odd-p corpus groups within
    the sweep cap."""
    def outcome(*args):
        try:
            return maximal_coset_shift(*args).key()
        except DomainError:
            return "DomainError"

    cases = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        p = G.prime
        if p == 2 or G.order > DEFAULT_CAPS.element_sweep or is_abelian(G):
            continue
        socle = [z for z in omega1(center(G)).elements() if not z.is_identity]
        for M in maximal_subgroups(G):
            x = first_outside(G.gens(), M)
            for k, z in itertools.product(range(2, p), socle):
                assert (outcome(G, M, x ** k, z)
                        == outcome(G, M, x, z ** pow(k, -1, p))), entry.id
                cases += 1
    assert cases == 112


def test_scan_builds_each_coset_shift_once(monkeypatch):
    """One coset shift per maximal M and nontrivial z outside its
    commutator image: 38 over the corpus groups within the sweep cap."""
    from pgforge import autos

    built = []
    shift = autos.maximal_coset_shift
    monkeypatch.setattr(autos, "maximal_coset_shift",
                        lambda *args: built.append(args) or shift(*args))
    cells = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep or is_abelian(G):
            continue
        coset_shift_scan(G)
        socle = list(omega1(center(G)).elements())
        for M in maximal_subgroups(G):
            image = commutator_image(G, M, first_outside(G.gens(), M))
            cells += sum(not (z.is_identity or image.membership(z)) for z in socle)
    assert len(built) == cells == 38


def test_transversal_shift_matches_the_probe_oracles():
    """The one transversal routine against the membership-probe shifts it
    replaced, on every corpus group within the sweep cap: each maximal U
    with x, its last generator outside U, sent to xz for each z in
    omega1(Z(G)); for p = 2 also each coset grid U = M1 and M2's
    intersection, with x_i in M1 outside M2 and x_j in M2 outside M1
    shifted by socle involutions.  Both give the same map or both raise
    DomainError."""
    def outcome(build, *args):
        try:
            return build(*args).key()
        except DomainError:
            return "DomainError"

    counts = {"map": 0, "DomainError": 0}
    grids = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep:
            continue
        socle = omega1(center(G))
        maximals = maximal_subgroups(G)
        for U in maximals:
            x = first_outside(G.gens(), U)
            for z in socle.elements():
                got = outcome(_transversal_map_automorphism, G, U, [x], [x * z])
                assert got == outcome(oracles._transversal_map_automorphism,
                                      G, U, x, x * z), entry.id
        if G.prime != 2:
            continue
        shifts = [G.identity()] + list(socle.igs)
        for M1, M2 in itertools.combinations(maximals, 2):
            U = subgroup_closure(G, [x for x in M1.elements() if M2.membership(x)])
            xi = next(x for x in M1.elements() if not M2.membership(x))
            xj = next(x for x in M2.elements() if not M1.membership(x))
            grids += 1
            for si, sj in list(itertools.product(shifts, repeat=2))[1:]:
                got = outcome(_transversal_map_automorphism,
                              G, U, [xi, xj], [xi * si, xj * sj])
                assert got == outcome(oracles._pair_map_automorphism,
                                      G, U, xi, xj, xi * si, xj * sj), entry.id
                counts["DomainError" if got == "DomainError" else "map"] += 1
    assert grids > 100 and min(counts.values()) > 1000


def test_pair_shift_grid_matches_the_element_sweeps():
    """The even pair shift's U = C_G(h_i) and C_G(h_j)'s intersection, as
    the stabilizer of (h_i, h_j), against the closure of the filtered
    intersection; and its x_i, x_j from `first_outside` over each
    centralizer's IGS against the first element of one centralizer
    outside the other.  For the first element of Z_2(G) with each
    centralizer, over every pair of incomparable centralizers, on the
    corpus groups of order at most 256."""
    from pgforge.structure import stabilizer, upper_central_series

    pairs = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > 256:
            continue
        gens = tuple(g.vec for g in G.gens())
        ucs = upper_central_series(G)
        picks = {}
        for h in (ucs[2] if len(ucs) > 2 else ucs[-1]).elements():
            C = centralizer(G, h)
            picks.setdefault(C.key(), (h, C))
        for (hi, Ci), (hj, Cj) in itertools.combinations(picks.values(), 2):
            if Ci <= Cj or Cj <= Ci:
                continue
            U = subgroup_closure(G, [x for x in Ci.elements() if Cj.membership(x)])
            assert stabilizer(G, gens, (hi.vec, hj.vec)) == U, entry.id
            assert first_outside(Ci.igs, Cj) == next(
                x for x in Ci.elements() if not Cj.membership(x)), entry.id
            assert first_outside(Cj.igs, Ci) == next(
                x for x in Cj.elements() if not Ci.membership(x)), entry.id
            pairs += 1
    assert pairs == 201


def test_pairing_subgroup_matches_the_z2_filter(family_members):
    """Theorem 2.6's H, the stabilizer of the coset Z(G) under translation
    by p-th powers modulo Z(G), against the filter of Z_2(G), on every
    nonabelian corpus group and on the family members outside the
    corpus."""
    from pgforge.autos import _socle_pairing_subgroup

    entries = [e for e in corpus.builtin_corpus(validate=False)
               if not is_abelian(e.presentation)]
    for entry in entries + family_members:
        G = entry.presentation
        assert _socle_pairing_subgroup(G, DEFAULT_CAPS) == \
            oracles.filtered_pairing_subgroup(G), entry.id
    assert len(entries) == 23


def test_socle_decomposition_picks_only_involutions():
    """On C4 x C2 over the trivial subgroup, x1 (order 4) would extend the
    span before x1^2 does; the picks are x2 and x1^2, then the largest
    element of the trivial Z."""
    from pgforge.autos import _socle_decomposition

    G = corpus.abelian(2, [2, 1]).presentation
    assert G.rel_orders == (4, 2)
    picks = _socle_decomposition(full_subgroup(G), trivial_subgroup(G), 2, False)
    assert [x.vec for x in picks] == [(0, 1), (2, 0), (0, 0)]


def test_scan_rejects_abelian():
    with pytest.raises(HypothesesUnmet):
        coset_shift_scan(corpus.abelian(2, [1, 1]).presentation)


def test_scan_empty_on_extraspecial(es27):
    """Every maximal of the order-27 group is abelian, so [Z(M), g] is the
    whole center and no shift witness can exist."""
    assert coset_shift_scan(es27) == []


def test_scan_nonempty_with_noncyclic_center():
    G = corpus.dihedral16_x_c2().presentation
    ws = coset_shift_scan(G)
    assert ws
    for (M, g, z, alpha) in ws[:5]:
        assert alpha.order() == 2
        assert is_inner(G, alpha) is None
        assert alpha.fixes_pointwise(frattini(G))


# -- central socle automorphisms ----------------------------------------------


def test_socle_group_counts(es27, q8):
    members, homs, broken = central_socle_automorphisms(es27)
    assert broken is None
    assert len(members) == 9
    members, homs, _ = central_socle_automorphisms(q8)
    assert len(members) == 4
    v4 = corpus.abelian(2, [1, 1]).presentation
    assert len(central_socle_automorphisms(v4)[0]) == 1


def test_socle_members_fix_frattini_and_socle(es27):
    members, _, _ = central_socle_automorphisms(es27)
    phi = frattini(es27)
    om = omega1(center(es27))
    for alpha in members:
        assert alpha.fixes_pointwise(phi)
        assert alpha.fixes_pointwise(om)
        assert alpha.order() in (1, 3)


def test_socle_group_closed_under_composition(q8):
    members, _, _ = central_socle_automorphisms(q8)
    keys = {m.key() for m in members}
    for a in members:
        for b in members:
            assert compose(a, b).key() in keys


def filter_central_socle_automorphisms(G):
    """Oracle: every tuple of shifts in omega1(Z(G))^n, kept when the
    shifted generators define an automorphism fixing omega1(Z(G))."""
    om = omega1(center(G))
    socle = sorted(om.elements(), key=lambda e: e.vec)
    gens = G.gens()
    kept = []
    for shifts in itertools.product(socle, repeat=len(gens)):
        images = [g * s for g, s in zip(gens, shifts)]
        if validation_error(G, images):
            continue
        alpha = Automorphism._of_vecs(G, [x.vec for x in images])
        if alpha.fixes_pointwise(om):
            kept.append((alpha, tuple(s.vec for s in shifts)))
    kept.sort(key=lambda mh: mh[0].key())
    return [m for m, _ in kept], [h for _, h in kept]


# the oracle walks |omega1(Z)|^n tuples; 20 000 admits every corpus group
# but abelian-2-1_1_1_1 (16^4 = 65 536), left out for time
FILTER_ORACLE_TUPLES = 20_000


def test_socle_construction_matches_filter_oracle():
    left_out = []
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if omega1(center(G)).order ** G.n_gens > FILTER_ORACLE_TUPLES:
            left_out.append(entry.id)
            continue
        members, homs, broken = central_socle_automorphisms(G)
        assert broken is None, entry.id
        want_members, want_homs = filter_central_socle_automorphisms(G)
        assert [m.key() for m in members] == [m.key() for m in want_members], entry.id
        assert homs == want_homs, entry.id
    assert left_out == ["abelian-2-1_1_1_1"]


def test_socle_group_size_formula():
    """|omega1(Z)| ** log_p |G : omega1(Z) G' G^p|, with G^p from the
    sweep, on every corpus group."""
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        om = omega1(center(G))
        N = subgroup_closure(
            G, list(om.igs) + list(derived_subgroup(G).igs) + list(agemo(G).igs)
        )
        dprime = p_valuation(G.order // N.order, G.prime)
        members, homs, _ = central_socle_automorphisms(G)
        assert len(members) == len(homs) == om.order ** dprime, entry.id


# -- exhaustive search ----------------------------------------------------------


def test_search_d8_finds_noninner(d8):
    ws = search_order_p_automorphisms(d8, frattini(d8))
    assert any(w.is_noninner for w in ws)
    for w in ws:
        assert w.order == 2
        assert w.automorphism.fixes_pointwise(frattini(d8))
        assert validation_error(d8, w.automorphism.images) is None
        assert (w.inner is None) == (naive_is_inner(d8, w.automorphism) is None)


def test_search_deterministic(d8):
    a = search_order_p_automorphisms(d8, frattini(d8))
    b = search_order_p_automorphisms(d8, frattini(d8))
    assert [w.automorphism.key() for w in a] == [w.automorphism.key() for w in b]


def test_search_complete_against_defect_enumeration(q8):
    """Independent completeness oracle on Q8: enumerate all image tuples
    outright and compare."""
    import itertools

    phi = frattini(q8)
    els = list(q8.elements())
    expected = set()
    for imgs in itertools.product(els, repeat=2):
        if validation_error(q8, list(imgs)):
            continue
        alpha = Automorphism._of_vecs(q8, [x.vec for x in imgs])
        if alpha.order() == 2 and alpha.fixes_pointwise(phi):
            expected.add(alpha.key())
    found = {w.automorphism.key() for w in search_order_p_automorphisms(q8, phi)}
    assert found == expected


def test_search_fixing_omega1(g64_pres):
    om = omega1(center(g64_pres))
    ws = search_order_p_automorphisms(g64_pres, om)
    assert any(w.is_noninner for w in ws)
    for w in ws:
        assert w.automorphism.fixes_pointwise(om)


def test_search_rejects_order_below_one(d8):
    for order in (0, -2):
        with pytest.raises(DomainError, match="at least 1"):
            search_order_p_automorphisms(d8, frattini(d8), order=order)


def test_search_cap_refuses(monkeypatch):
    """The full search, the first-witness search and the prop-1.3 slice
    each refuse at the call, before the descent draws a leaf."""
    from pgforge import autos
    from pgforge.cohomology import c_aut_slice

    def no_descent(*args):
        raise AssertionError("the descent started before the refusal")

    monkeypatch.setattr(autos, "_fixing_leaves", no_descent)
    P = corpus.metacyclic(3, 3, 2).presentation  # order 256
    D = corpus.dihedral(16).presentation
    for search in (search_order_p_automorphisms, first_noninner, autos._search_pools):
        with pytest.raises(CapExceeded):
            search(P, frattini(P), DEFAULT_CAPS)
        with pytest.raises(CapExceeded):
            search(D, frattini(D), DeskCaps(auto_search=8))
    # elementary abelian of order 128 over its index-2 subgroup of even
    # exponent sums: 64^7 candidate tuples
    E = corpus.abelian(2, [1] * 7).presentation
    gens = E.gens()
    with pytest.raises(CapExceeded):
        c_aut_slice(E, subgroup_closure(E, [gens[0] * g for g in gens[1:]]))


@pytest.mark.parametrize("gid,fix,drawn,leaves", [
    ("d16xc2", "frattini", 2, 128),
    ("g64", "omega1-center", 7, 128),
])
def test_first_noninner_stops_at_its_witness(monkeypatch, gid, fix, drawn, leaves):
    """The descent yields its leaves lazily, so the first-witness search
    draws only those up to its witness, which is still the first noninner
    entry of the full search."""
    from pgforge import autos

    G = next(e for e in corpus.builtin_corpus(validate=False) if e.id == gid).presentation
    fixed = fixed_set_by_name(G, fix)
    want = next(w for w in search_order_p_automorphisms(G, fixed) if w.is_noninner)
    lazy = autos._fixing_leaves
    counts = []

    def counting(*args):
        counts.append(0)
        for leaf in lazy(*args):
            counts[-1] += 1
            yield leaf

    monkeypatch.setattr(autos, "_fixing_leaves", counting)
    assert first_noninner(G, fixed).to_dict() == want.to_dict()
    pools = autos._search_pools(G, fixed, DEFAULT_CAPS)
    assert len(list(autos._fixing_leaves(G, fixed, pools))) == leaves
    assert counts == [drawn, leaves]


# -- fixture claims --------------------------------------------------------------


def test_g64_frattini_fixers_all_inner(g64_pres):
    ws = search_order_p_automorphisms(g64_pres, frattini(g64_pres))
    assert ws, "inner Frattini-fixing involutions must exist"
    assert all(not w.is_noninner for w in ws)


def test_liebeck_sigma_set(l128_pres):
    phi = frattini(l128_pres)
    ws = search_order_p_automorphisms(l128_pres, phi)
    sigmas = {
        liebeck_sigma(l128_pres, r, s).key()
        for (r, s) in ((0, 1), (1, 0), (1, 1))
    }
    assert {w.automorphism.key() for w in ws} == sigmas
    assert all(not w.is_noninner for w in ws)
    assert liebeck_sigma(l128_pres, 0, 0) == identity_automorphism(l128_pres)
    for (r, s) in ((0, 1), (1, 0), (1, 1)):
        sig = liebeck_sigma(l128_pres, r, s)
        assert sig.order() == 2
        assert sig.fixes_pointwise(phi)
        assert is_inner(l128_pres, sig) is not None


def test_liebeck_sigma_rejects_other_groups(d8):
    with pytest.raises(DomainError):
        liebeck_sigma(d8, 1, 0)


# -- the construction machine ----------------------------------------------------


def test_witness_odd_extraspecial(es27):
    w = powerful_quotient_witness(es27)
    assert w.order == 3 and w.is_noninner
    assert w.fixed_set == "frattini"
    assert w.automorphism.fixes_pointwise(frattini(es27))
    assert naive_is_inner(es27, w.automorphism) is None


def test_witness_g64_fixes_omega1_not_frattini(g64_pres):
    w = powerful_quotient_witness(g64_pres)
    assert w.order == 2 and w.is_noninner
    assert w.fixed_set == "omega1-center"


def test_witness_rejects_abelian():
    with pytest.raises(HypothesesUnmet):
        powerful_quotient_witness(corpus.abelian(2, [2, 1]).presentation)


def test_witness_rejects_nonpowerful_quotient():
    with pytest.raises(HypothesesUnmet):
        powerful_quotient_witness(corpus.dihedral(16).presentation)


@pytest.mark.parametrize(
    "entry_fn,expected_path",
    [
        (lambda: corpus.extraspecial(3, "p"), "odd-coset-shift"),
        (lambda: corpus.extraspecial(5, "p"), "odd-coset-shift"),
        (lambda: corpus.metacyclic(3, 3, 2), "two-generator-shift-both"),
        (lambda: corpus.metacyclic(4, 3, 2), "two-generator-shift-a"),
        (lambda: corpus.g243(), "odd-coset-shift"),
        # noncyclic center: the socle member, reached by no corpus group
        (lambda: corpus.CorpusEntry("d8xc2-involutions",
                                    parse_presentation(D8XC2_INVOLUTIONS), "test"),
         "socle-search"),
    ],
)
def test_witness_construction_paths(entry_fn, expected_path):
    G = entry_fn().presentation
    w = powerful_quotient_witness(G)
    assert w.path == expected_path
    assert w.is_noninner and w.order == G.prime
    assert w.automorphism.fixes_pointwise(fixed_set_by_name(G, w.fixed_set))
    assert naive_is_inner(G, w.automorphism) is None


def misfire(G, caps):
    raise DomainError("construction misfired")


@pytest.mark.parametrize("entry_fn,construction,searched,case", [
    (corpus.g64, None, ["frattini", "omega1-center"], "exhaustive fallback"),
    (lambda: corpus.metacyclic(2, 2, 2), None, ["frattini", "omega1-center"],
     "exhaustive fallback"),
    (lambda: corpus.extraspecial(3, "p"), lambda G, caps: None, ["frattini"],
     "exhaustive fallback"),
    (lambda: corpus.extraspecial(3, "p"), misfire, ["frattini"], "construction misfired"),
])
def test_witness_falls_back_to_each_search_once(monkeypatch, entry_fn, construction,
                                                searched, case):
    """With the search stubbed to find nothing, a group whose construction
    has no map, or misfires, searches each fixed set once, Frattini first
    and Ω1(Z(G)) for p = 2 only, and then returns None: the exhaustive
    search found no witness.  No odd corpus group reaches the fallback, so
    the odd cases stub the construction."""
    from pgforge import autos

    G = entry_fn().presentation
    calls = []

    def nothing(G, fixed, caps):
        calls.append(autos._fixed_name(G, fixed, caps))
        return None

    monkeypatch.setattr(autos, "first_noninner", nothing)
    if construction is not None:
        monkeypatch.setattr(autos, "_odd_coset_witness", construction)
    assert powerful_quotient_witness(G) is None, case
    assert calls == searched


def test_thm_2_6_fails_naming_the_fixed_sets_searched(monkeypatch):
    """With every search stubbed to find nothing, and the odd construction
    and the socle members stubbed away, the check fails on each branch of
    the route, naming the fixed sets that it searched, and the run exits
    1 instead of aborting."""
    from pgforge import autos
    from pgforge.harness import exit_code, run_check

    monkeypatch.setattr(autos, "first_noninner", lambda G, fixed, caps: None)
    monkeypatch.setattr(autos, "_odd_coset_witness", lambda G, caps: None)
    monkeypatch.setattr(autos, "central_socle_automorphisms",
                        lambda G, caps: ([], [], None))
    d8xc2 = corpus.CorpusEntry("d8xc2-involutions",
                               parse_presentation(D8XC2_INVOLUTIONS), "test")
    rs = run_check("thm-2.6", [corpus.dihedral(8), corpus.extraspecial(3, "p"), d8xc2])
    assert [(r.group_id, r.status, r.counterexample) for r in rs] == [
        ("d8xc2-involutions", "fail",
         {"witness": "none found", "fixed_sets": ["frattini"]}),
        ("dihedral-8", "fail",
         {"witness": "none found", "fixed_sets": ["frattini", "omega1-center"]}),
        ("extraspecial-3-exp3", "fail",
         {"witness": "none found", "fixed_sets": ["frattini"]}),
    ]
    assert exit_code(rs) == 1


def test_noncyclic_center_falls_back_to_the_search_when_a_socle_member_breaks(monkeypatch):
    """D8 x C2 on involutions reaches the socle member; with the socle
    constructor stubbed to report a broken member, the witness comes from
    the Frattini search instead, and thm-2.6 still passes."""
    from pgforge import autos
    from pgforge.harness import run_check

    broken = {"images": [(1, 0, 0, 0)] * 4, "broken": "relation 1 broken"}
    monkeypatch.setattr(autos, "central_socle_automorphisms",
                        lambda G, caps: ([], [], broken))
    entry = corpus.CorpusEntry("d8xc2-involutions",
                               parse_presentation(D8XC2_INVOLUTIONS), "test")
    G = entry.presentation
    w = powerful_quotient_witness(G)
    assert (w.path, w.fixed_set) == ("search-fallback", "frattini")
    assert w.is_noninner and w.order == 2
    assert naive_is_inner(G, w.automorphism) is None
    (r,) = run_check("thm-2.6", [entry])
    assert r.status == "pass" and r.witness["path"] == "search-fallback"


def test_witness_search_fallback_validated(l128_pres):
    w = powerful_quotient_witness(l128_pres)
    assert w.path in ("search-fallback",)
    assert w.is_noninner
    assert w.fixed_set == "omega1-center"
    assert w.automorphism.fixes_pointwise(omega1(center(l128_pres)))


# -- the cohomological route -------------------------------------------------------


def test_cohomological_witness_bridge_path():
    entry = corpus.g243()
    w = cohomological_witness(entry.presentation)
    assert w.path == "cocycle-bridge"
    assert w.is_noninner and w.order == 3
    assert w.fixed_set == "frattini"


def test_cohomological_witness_fallback(es27):
    w = cohomological_witness(es27)
    assert w.path == "ds-fallback-search"
    assert w.is_noninner and w.order == 3


def test_cohomological_witness_hypotheses():
    with pytest.raises(HypothesesUnmet):
        cohomological_witness(corpus.dihedral(8).presentation)  # p = 2
    with pytest.raises(HypothesesUnmet):
        cohomological_witness(corpus.abelian(3, [1, 1]).presentation)


def test_witness_serialization(es27):
    w = powerful_quotient_witness(es27)
    doc = w.to_dict()
    assert doc["order"] == 3
    assert doc["inner"] is None
    assert doc["fixed_set"] == "frattini"
    assert len(doc["images"]) == es27.n_gens


def closure_generates(G, elements):
    """Oracle: the elements generate G when their closure is all of G."""
    return subgroup_closure(G, elements).order == G.order


def test_generation_test_matches_closure_oracle():
    """Burnside's basis theorem against a full closure, on random tuples
    mixing arbitrary elements with Frattini elements so that both answers
    occur."""
    rng = random.Random(41)
    tuples = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep:
            continue
        elements = list(G.elements())
        phi = list(frattini(G).elements())
        answers = set()
        for _ in range(200):
            size = rng.randint(0, G.n_gens + 1)
            imgs = [rng.choice(elements if rng.random() < 0.6 else phi)
                    for _ in range(size)]
            want = closure_generates(G, imgs)
            assert generates(G, imgs) == want, (entry.id, imgs)
            answers.add(want)
            tuples += 1
        if G.order > 1:
            assert answers == {True, False}, entry.id
    assert tuples >= 7000


def closure_validation_error(pres, images):
    """Oracle: the relation checks, then generation by a full closure."""
    n = pres.n_gens
    if len(images) != n:
        return "one image per generator required"

    def eval_word(word):
        out = pres.identity()
        for g, e in word:
            out = out * images[g] ** e
        return out

    for i in range(n):
        if images[i] ** pres.rel_orders[i] != eval_word(pres.pow_words[i]):
            return f"power relation of x{i + 1} violated"
    for i in range(n):
        for j in range(i + 1, n):
            w = pres.conj_words[i * n + j]
            rhs = images[j] if w is None else eval_word(w)
            if images[j].conjugate(images[i]) != rhs:
                return f"conjugation relation of x{j + 1} by x{i + 1} violated"
    if not closure_generates(pres, images):
        return "images do not generate the group"
    return None


def test_validation_error_matches_closure_oracle():
    """Central shifts g -> g z and generator-to-generator maps satisfy the
    relations often, so the generation step decides many of these."""
    rng = random.Random(43)
    verdicts = set()
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep or G.n_gens == 0:
            continue
        gens = G.gens()
        zs = list(center(G).elements())
        pool = gens + [g ** 2 for g in gens] + zs
        for _ in range(60):
            if rng.random() < 0.5:
                imgs = [g * rng.choice(zs) for g in gens]
            else:
                imgs = [rng.choice(pool) for _ in gens]
            want = closure_validation_error(G, imgs)
            assert validation_error(G, imgs) == want, (entry.id, imgs)
            verdicts.add(want)
    assert None in verdicts
    assert "images do not generate the group" in verdicts


def test_validation_error_refuses_images_of_another_presentation(d8):
    """Checked explicitly, since the relation check runs on vectors, and
    for every image: not only where evaluating a relation would combine
    elements of both presentations, as the first tuple does."""
    other = corpus.abelian(2, [1, 1, 1]).presentation
    for images in ([d8.gen(0), d8.gen(1), other.gen(2)],
                   [d8.gen(0), other.gen(1), d8.gen(2)], other.gens()):
        with pytest.raises(MixedPresentationError):
            validation_error(d8, images)
        with pytest.raises(MixedPresentationError):
            make_automorphism(d8, images)
    with pytest.raises(MixedPresentationError):
        inner_automorphism(d8, other.gen(0))


def sweep_inverse_images(alpha):
    """Oracle: the preimages of the generators, by applying the map to
    every element."""
    lookup = {alpha.apply(x).vec: x for x in alpha.pres.elements()}
    return tuple(lookup[g.vec] for g in alpha.pres.gens())


def test_inverse_by_powering_matches_the_element_sweep():
    """On every search witness of every corpus group within the search cap,
    for both fixed sets, and on the identity."""
    witnesses = 0
    for entry in searchable_corpus():
        G = entry.presentation
        ident = identity_automorphism(G)
        alphas = [ident]
        for name in ("frattini", "omega1-center"):
            alphas += [w.automorphism
                       for w in search_order_p_automorphisms(G, fixed_set_by_name(G, name))]
        witnesses += len(alphas) - 1
        for alpha in alphas:
            inv = alpha.inverse()
            assert inv.images == sweep_inverse_images(alpha), entry.id
            assert compose(alpha, inv) == compose(inv, alpha) == ident, entry.id
    assert witnesses > 1000


# -- the re-validating search, kept as the oracle ----------------------------------


def element_apply(images, x):
    out = x.pres.identity()
    for img, e in zip(images, x.vec):
        if e:
            out = out * img ** e
    return out


def oracle_order(alpha, cap=2 ** 20):
    """The order by composing the map with itself until the identity,
    with Element arithmetic."""
    gens = alpha.pres.gens()
    power = list(alpha.images)
    k = 1
    while power != gens:
        power = [element_apply(alpha.images, y) for y in power]
        k += 1
        if k > cap:
            raise DomainError("automorphism order exceeds cap")
    return k


def oracle_is_inner(G, alpha, caps=DEFAULT_CAPS):
    """The first representative of G/Z(G) whose conjugation is the map."""
    for rep in quotient(G, center(G, caps)).elements():
        if all(x.conjugate(rep) == element_apply(alpha.images, x) for x in G.gens()):
            return rep
    return None


def oracle_search(G, fixed, caps=DEFAULT_CAPS, order=None):
    """The search with Element arithmetic, relations checked level by
    level, and every completed map re-validated from scratch (relations
    and generation), checked to fix the subgroup pointwise, its order found
    by repeated composition and its innerness by the rep-by-rep sweep."""
    p = G.prime
    order = order if order is not None else p
    n = G.n_gens
    gens = G.gens()
    all_elements = list(G.elements())
    contains_phi = all(fixed.membership(u) for u in frattini(G, caps).igs)

    def candidates(i):
        g = gens[i]
        if fixed.membership(g):
            return [g]
        out = []
        for h in all_elements:
            if h.order() != g.order():
                continue
            if contains_phi and h ** p != g ** p:
                continue
            k = p
            while k < g.order():
                if fixed.membership(g ** k) and h ** k != g ** k:
                    break
                k *= p
            else:
                out.append(h)
        return out

    cand = [candidates(i) for i in range(n)]
    images = [None] * n
    found = []

    def value(word):
        out = G.identity()
        for g, e in word:
            out = out * images[g] ** e
        return out

    def level_ok(i):
        if images[i] ** G.rel_orders[i] != value(G.pow_words[i]):
            return False
        for j in range(i + 1, n):
            w = G.conj_words[i * n + j]
            if images[j].conjugate(images[i]) != (images[j] if w is None else value(w)):
                return False
            if contains_phi and (images[i].commutator(images[j])
                                 != gens[i].commutator(gens[j])):
                return False
        return True

    def descend(i):
        if i < 0:
            found.append(tuple(images))
            return
        for h in cand[i]:
            images[i] = h
            if level_ok(i):
                descend(i - 1)
        images[i] = None

    descend(n - 1)
    witnesses = []
    for imgs in found:
        if validation_error(G, imgs):
            continue
        if not all(element_apply(imgs, u) == u for u in fixed.igs):
            continue
        alpha = Automorphism._of_vecs(G, [x.vec for x in imgs])
        if oracle_order(alpha) != order:
            continue
        witnesses.append(AutWitness(alpha, order, _fixed_name(G, fixed, caps),
                                    oracle_is_inner(G, alpha, caps), "search"))
    witnesses.sort(key=lambda w: w.automorphism.key())
    return witnesses


def searchable_corpus():
    return [e for e in corpus.builtin_corpus(validate=False)
            if e.presentation.order <= DEFAULT_CAPS.auto_search]


# the oracle takes 22 s and 11 s on these two with the Frattini subgroup
# fixed (trivial there, so every GL(d, p) element is a leaf to re-validate)
ORACLE_LEFT_OUT = [("abelian-2-1_1_1_1", "frattini"), ("abelian-3-1_1_1", "frattini")]


# D8 x C2 generated by involutions s, t, c and zc, with z = [t, s] = (zc) c:
# its Frattini subgroup <z> is not spanned by the last generators, so the
# oracle's commutator check rejects nodes there that the relations accept
D8XC2_INVOLUTIONS = (
    "group d8xc2-involutions\nprime 2\ngens 4\n"
    "order 1 2\norder 2 2\norder 3 2\norder 4 2\n"
    "conj 2 1 = x2*x3*x4\n"
)


def test_search_matches_revalidating_oracle_on_corpus():
    """Identical witness lists, in order, first_noninner is the first
    noninner entry, and the lazy descent yields the eager one's sorted
    leaves, for both fixed sets on every group within the cap, on D8 x C2
    generated by involutions and on the trivial group."""
    from pgforge.autos import _fixing_leaves, _search_pools

    groups = [(entry.id, entry.presentation) for entry in searchable_corpus()]
    groups.append(("d8xc2-involutions", parse_presentation(D8XC2_INVOLUTIONS)))
    groups.append(("trivial", parse_presentation("prime 2\ngens 0\n")))
    left_out = []
    searched = noninner = 0
    for gid, G in groups:
        for name in ("frattini", "omega1-center"):
            fixed = fixed_set_by_name(G, name)
            got = [w.to_dict() for w in search_order_p_automorphisms(G, fixed)]
            first = next((w for w in got if w["noninner"]), None)
            w = first_noninner(G, fixed)
            assert (w and w.to_dict()) == first, (gid, name)
            pools = _search_pools(G, fixed, DEFAULT_CAPS)
            assert list(_fixing_leaves(G, fixed, pools)) == \
                eager_fixing_leaves(G, fixed, pools), (gid, name)
            noninner += first is not None
            if (gid, name) in ORACLE_LEFT_OUT:
                left_out.append((gid, name))
                continue
            want = [w.to_dict() for w in oracle_search(G, fixed)]
            assert got == want, (gid, name)
            searched += 1
    assert left_out == ORACLE_LEFT_OUT
    assert searched == 2 * len(groups) - len(ORACLE_LEFT_OUT)
    assert noninner >= 10


def test_search_matches_oracle_for_every_fixed_subgroup():
    """Any subgroup may be fixed, including one whose generators are moved
    while a product of them is not (<x1 x2> in C2 x C2 leaves one swap).
    Every leaf of the descent is an automorphism, not only the witnesses:
    the order test alone would also drop the maps that generation pruning
    cuts off."""
    from pgforge.autos import _fixing_leaves, _search_pools
    from pgforge.subgroups import enumerate_subgroups

    v4 = corpus.abelian(2, [1, 1]).presentation
    x1, x2 = v4.gens()
    swap = search_order_p_automorphisms(v4, subgroup_closure(v4, [x1 * x2]))
    assert [w.automorphism.key() for w in swap] == [((0, 1), (1, 0))]
    for entry in (corpus.dihedral(8), corpus.quaternion(8), corpus.abelian(2, [2, 1]),
                  corpus.abelian(2, [1, 1, 1]), corpus.dihedral(16)):
        G = entry.presentation
        for S in enumerate_subgroups(G):
            got = [w.to_dict() for w in search_order_p_automorphisms(G, S)]
            assert got == [w.to_dict() for w in oracle_search(G, S)], (entry.id, S.key())
            for leaf in _fixing_leaves(G, S, _search_pools(G, S, DEFAULT_CAPS)):
                images = Automorphism._of_vecs(G, leaf).images
                assert validation_error(G, images) is None, (entry.id, S.key(), leaf)


@pytest.mark.parametrize("gid,fix", [("dihedral-16", "frattini"), ("g64", "omega1-center"),
                                     ("extraspecial-3-exp3", "frattini")])
def test_search_matches_oracle_at_order_p_squared(gid, fix):
    G = next(e for e in corpus.builtin_corpus(validate=False) if e.id == gid).presentation
    fixed = fixed_set_by_name(G, fix)
    k = G.prime ** 2
    got = [w.to_dict() for w in search_order_p_automorphisms(G, fixed, order=k)]
    assert got == [w.to_dict() for w in oracle_search(G, fixed, order=k)]


def random_automorphisms(G, rng, count, tries=4000):
    """Random generator-image tuples that validate, so orders prime to p
    occur too (Aut(Q8) and GL(d, p) have them)."""
    elements = list(G.elements())
    out = []
    for _ in range(tries):
        images = [rng.choice(elements) for _ in range(G.n_gens)]
        if validation_error(G, images) is None:
            out.append(Automorphism._of_vecs(G, [x.vec for x in images]))
            if len(out) == count:
                break
    return out


def test_direct_order_test_matches_composition_loop():
    rng = random.Random(61)
    hits = {}
    for entry in (corpus.quaternion(8), corpus.dihedral(16), corpus.abelian(2, [1, 1, 1]),
                  corpus.abelian(2, [2, 1]), corpus.abelian(3, [1, 1]),
                  corpus.extraspecial(3, "p"), corpus.abelian(5, [1, 1])):
        G = entry.presentation
        p = G.prime
        t = G._tables
        ident = identity_automorphism(G).key()
        alphas = random_automorphisms(G, rng, 25)
        alphas += [identity_automorphism(G), inner_automorphism(G, G.gen(0))]
        assert len(alphas) >= 20, entry.id
        for alpha in alphas:
            true_order = oracle_order(alpha)
            assert alpha.order() == true_order
            other = 3 if p == 2 else 2
            for k in (1, p, p * p, other, 2 * p * other, 2 ** 20):
                verdict = _has_order(t, alpha.key(), ident, k)
                assert verdict == (true_order == k), (entry.id, alpha, k)
                if verdict:
                    hits[k == p, k % p == 0] = True
    # order p, order 1, and an order prime to p all occurred
    assert set(hits) == {(True, True), (False, False), (False, True)}


def test_warm_inner_table_refuses_like_a_cold_call():
    tight = DeskCaps(element_sweep=8)
    alpha_of = lambda G: inner_automorphism(G, G.gen(0))

    cold_G = corpus.dihedral(16).presentation
    with pytest.raises(CapExceeded) as cold:
        is_inner(cold_G, alpha_of(cold_G), tight)

    warm_G = corpus.dihedral(16).presentation
    assert is_inner(warm_G, alpha_of(warm_G)) is not None
    with pytest.raises(CapExceeded) as warm:
        is_inner(warm_G, alpha_of(warm_G), tight)
    assert (warm.value.what, warm.value.needed, warm.value.cap) == \
        (cold.value.what, cold.value.needed, cold.value.cap) == ("element sweep", 16, 8)
