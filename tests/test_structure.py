import itertools
from collections import Counter

import pytest

from pgforge.core import PcPresentation
from pgforge.caps import DEFAULT_CAPS
from pgforge.errors import CapExceeded, DomainError, MixedPresentationError
from pgforge.structure import (
    abelian_basis,
    abelian_invariants,
    agemo,
    center,
    center_of_subgroup,
    centralizer,
    central_quotient,
    coclass,
    d_abelian,
    derived_subgroup,
    ds_condition,
    element_orders,
    exponent,
    frattini,
    is_abelian,
    is_p_central,
    is_powerful,
    lower_central_series,
    maximal_subgroups,
    nilpotency_class,
    omega1,
    omega1_general,
    profile,
    rank_d,
    upper_central_series,
)
from pgforge.subgroups import (
    enumerate_normal_subgroups,
    enumerate_subgroups,
    full_subgroup,
    subgroup_closure,
    trivial_subgroup,
)
from pgforge import corpus

from oracles import filtered_maximal_subgroups, invariants_of_orders, section_invariants


def sweep_center(P):
    gens = P.gens()
    return {
        x.vec for x in P.elements()
        if all(x.commutator(g).is_identity for g in gens)
    }


def test_center_examples(d8, q8, c4xc2):
    assert center(d8).order == 2
    assert center(q8).order == 2
    assert center(c4xc2).order == 8  # abelian: the whole group
    for P in (d8, q8):
        assert {x.vec for x in center(P).elements()} == sweep_center(P)


def commutator_sweep(P, targets):
    """The element sweep by commutators that the vector comparison
    replaced."""
    return subgroup_closure(P, [
        x for x in P.elements()
        if all(x.commutator(t).is_identity for t in targets)
    ])


def test_center_and_centralizer_match_the_commutator_sweep():
    """On every corpus group within the sweep cap: the center, and the
    centralizers of each generator, of the Frattini and derived subgroups
    and, within the lattice cap, of every normal subgroup."""
    caps = DEFAULT_CAPS
    groups = targets = 0
    for entry in corpus.builtin_corpus():
        G = entry.presentation
        if G.order > caps.element_sweep:
            continue
        groups += 1
        assert center(G) == commutator_sweep(G, G.gens()), entry.id
        for g in G.gens():
            assert centralizer(G, g) == commutator_sweep(G, [g]), entry.id
        subs = [frattini(G), derived_subgroup(G)]
        if G.order <= caps.subgroup_enum:
            subs += enumerate_normal_subgroups(G)
        for S in subs:
            assert centralizer(G, S) == commutator_sweep(G, S.igs), entry.id
            targets += 1
    assert groups > 30 and targets > 400


def test_centralizer_refuses_a_target_of_another_presentation(d8, q8):
    with pytest.raises(MixedPresentationError):
        centralizer(d8, q8.gen(0))


def test_centralizer_examples(d8):
    g2 = d8.gen(1)
    C = centralizer(d8, g2)
    assert C.order == 4
    assert C == subgroup_closure(d8, [g2])


def test_derived_and_frattini(q8, d8):
    assert derived_subgroup(q8).order == 2
    elem_ab = corpus.abelian(2, [1, 1, 1]).presentation
    assert frattini(elem_ab).order == 1
    assert frattini(d8).order == 2


def test_frattini_equals_maximal_intersection(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        if P.order > 2 ** 7:
            continue
        phi = frattini(P)
        maxes = maximal_subgroups(P)
        common = [
            x for x in P.elements()
            if all(M.membership(x) for M in maxes)
        ]
        assert subgroup_closure(P, common) == phi


def test_omega1(c4xc2, q8):
    om = omega1(full_subgroup(c4xc2))
    assert om.order == 4
    assert {x.vec for x in om.elements()} == {
        x.vec for x in c4xc2.elements() if x.order() <= 2
    }
    assert omega1_general(q8).order == 2  # the unique involution
    elem = corpus.abelian(3, [1, 1]).presentation
    assert omega1(full_subgroup(elem)) == full_subgroup(elem)


def test_omega1_requires_abelian(d8):
    with pytest.raises(DomainError):
        omega1(full_subgroup(d8))


def test_series_and_class(d8, es27):
    assert nilpotency_class(d8) == 2
    assert coclass(d8) == 1
    assert nilpotency_class(corpus.abelian(2, [1, 1]).presentation) == 1
    ucs = upper_central_series(es27)
    assert nilpotency_class(es27) == 2
    assert ucs[2].order // ucs[1].order == 9


def test_series_lengths_agree(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        ucs = upper_central_series(P)
        lcs = lower_central_series(P)
        assert len(ucs) - 1 == len(lcs) - 1 == nilpotency_class(P)
        # upper strictly increases to G, lower strictly decreases to 1
        assert [s.order for s in ucs] == sorted({s.order for s in ucs})
        assert ucs[-1].order == P.order and ucs[0].order == 1
        assert lcs[0].order == P.order and lcs[-1].order == 1


def test_upper_series_matches_quotient_centers(small_corpus):
    """Z_{i+1}/Z_i is the center of G/Z_i, checked through independent
    quotient presentations."""
    from pgforge.subgroups import quotient

    for entry in small_corpus:
        P = entry.presentation
        ucs = upper_central_series(P)
        for i in range(len(ucs) - 1):
            qp, _ = quotient(P, ucs[i]).presentation()
            assert center(qp).order == ucs[i + 1].order // ucs[i].order


def test_coclass_needs_big_enough_group():
    with pytest.raises(DomainError):
        coclass(corpus.abelian(2, [1, 1]).presentation)


def test_rank_examples(d8):
    assert rank_d(d8) == 2
    assert rank_d(corpus.abelian(3, [2]).presentation) == 1
    assert rank_d(corpus.abelian(2, [1, 1, 1, 1]).presentation) == 4


def test_abelian_invariants(c4xc2):
    assert abelian_invariants(full_subgroup(c4xc2)) == [4, 2]
    assert abelian_invariants(full_subgroup(corpus.abelian(3, [2, 1, 1]).presentation)) == [9, 3, 3]
    # the section oracle counts the same jumps through quotient orders
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if not is_abelian(G):
            continue
        full = full_subgroup(G)
        assert section_invariants(G, full, trivial_subgroup(G)) == tuple(
            abelian_invariants(full)
        ), entry.id


def test_cor_2_3_rank_matches_the_section_oracle(monkeypatch):
    """cor-2.3 reads d(Z2/Z) as the index of the p-th powers of Z2's
    generators over Z; the oracle counts the invariant factors of Z2/Z
    from coset orders.  Every nonabelian corpus group is reached at cap
    1024, with the witness search stubbed out so that the check stops at
    the rank."""
    from pgforge import harness

    monkeypatch.setattr(harness, "first_noninner", lambda G, fixed, caps: None)
    caps = DEFAULT_CAPS.with_override(1024)
    checked = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if is_abelian(G):
            continue
        _, payload = harness.check_cor_2_3(entry, caps)
        Z, Z2 = upper_central_series(G, caps)[1:3]
        assert payload["d_z2_mod_z"] == len(section_invariants(G, Z2, Z)), entry.id
        checked += 1
    assert checked == 23


def test_d_equals_d_of_omega1_for_abelian_sections(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        for S in enumerate_subgroups(P):
            if not S.is_abelian() or S.is_trivial():
                continue
            assert d_abelian(S) == d_abelian(omega1(S))


def test_abelian_basis_is_direct(c4xc2):
    basis = abelian_basis(full_subgroup(c4xc2))
    assert sorted((b.order() for b in basis), reverse=True) == [4, 2]
    seen = set()
    for exps in itertools.product(*(range(b.order()) for b in basis)):
        x = c4xc2.identity()
        for b, e in zip(basis, exps):
            x = x * b ** e
        seen.add(x.vec)
    assert len(seen) == 8


def test_powerful_and_p_central(d8, q8, g64_pres):
    assert is_powerful(corpus.abelian(2, [2, 1]).presentation)
    assert is_powerful(g64_pres)
    assert not is_powerful(d8)
    assert is_p_central(q8)
    assert not is_p_central(d8)


def test_ds_condition(d8, c4xc2, l128_pres):
    assert not ds_condition(c4xc2)  # abelian: centralizer is everything
    assert not ds_condition(d8)
    assert ds_condition(l128_pres)


def test_commutator_image_closure_sweep(small_corpus):
    """The commutator image set is closed under product and inverse."""
    for entry in small_corpus:
        P = entry.presentation
        if P.order > 2 ** 6:
            continue
        normal_abelians = [
            S for S in enumerate_subgroups(P)
            if S.is_abelian() and not S.is_trivial()
            and all(S.membership(e.conjugate(g)) for e in S.igs for g in P.gens())
        ]
        for A in normal_abelians[:6]:
            for x in list(P.elements())[:12]:
                image = {a.commutator(x) for a in A.elements()}
                for u, v in itertools.product(image, repeat=2):
                    assert u * v in image
                for u in image:
                    assert u.inverse() in image


def test_maximal_subgroups(d8, es27):
    assert len(maximal_subgroups(corpus.abelian(2, [1]).presentation)) == 1
    assert len(maximal_subgroups(d8)) == 3
    assert len(maximal_subgroups(es27)) == 4
    for M in maximal_subgroups(d8):
        assert M.order == 4


def test_maximal_subgroups_match_the_filtered_oracle():
    """The hyperplanes built on Phi(G)'s table are the closures of the
    kernel of every functional, on every corpus group within the sweep
    cap."""
    checked = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep:
            continue
        got = maximal_subgroups(G)
        assert [M.key() for M in got] == [M.key() for M in filtered_maximal_subgroups(G)], entry.id
        assert all(M.order * G.prime == G.order for M in got), entry.id
        checked += 1
    assert checked >= 30


def test_metacyclic_structure_facts():
    for (r, s, t) in [(2, 2, 2), (3, 2, 2), (3, 3, 2)]:
        P = corpus.metacyclic(r, s, t).presentation
        a, b = P.gens()
        assert P.order == 2 ** (r + s + t)
        assert exponent(P) == 2 ** (r + t) == a.order()
        assert b.order() == 2 ** (s + t)
        zp = 2 ** s
        assert center(P) == subgroup_closure(P, [a ** zp, b ** zp])
        if t == s:
            der = derived_subgroup(P)
            assert all(center(P).membership(x) for x in der.igs)


def test_two_generator_class2_center_shape(q8, es27, m27):
    """For 2-generated class-2 groups the center is generated by a^k, b^k
    and [a, b], with k the commutator order, and has rank at most 3."""
    for P in (q8, es27, m27, corpus.g64().presentation):
        assert rank_d(P) == 2 and nilpotency_class(P) == 2
        a, b = P.gens()[0], P.gens()[1]
        assert subgroup_closure(P, [a, b]).order == P.order
        k = a.commutator(b).order()
        assert subgroup_closure(P, [a ** k, b ** k, a.commutator(b)]) == center(P)
        assert d_abelian(center(P)) <= 3


def test_profile_roundtrip(d8):
    prof = profile(d8)
    doc = prof.to_dict()
    assert doc["order"] == 8 and doc["class"] == 2 and doc["coclass"] == 1
    assert doc["d"] == 2 and doc["center_invariants"] == [2]


def test_profile_center_rank_is_the_rank_of_the_center():
    """d_center, read from the center's invariants, against d_abelian of
    the center on every corpus group within the sweep cap."""
    for entry in sweep_groups():
        G = entry.presentation
        prof = profile(G)
        Z = center(G)
        assert prof.center_invariants == tuple(abelian_invariants(Z)), entry.id
        assert prof.d_center == d_abelian(Z), entry.id


def test_central_quotient_presentation(g64_pres):
    cq = central_quotient(g64_pres)
    assert cq.order == 16
    assert is_abelian(cq)
    assert cq.consistency_check() == []


def test_trivial_group_profile():
    from pgforge.core import parse_presentation

    T = parse_presentation("group t\nprime 2\ngens 0\n")
    doc = profile(T).to_dict()
    assert doc["order"] == 1
    assert doc["class"] == 0
    assert doc["coclass"] is None
    assert doc["d"] == 0
    assert doc["exponent"] == 1


def test_sweep_caps():
    from pgforge.caps import DeskCaps

    P = corpus.dihedral(16).presentation
    with pytest.raises(CapExceeded):
        center(PcPresentation(2, [2] * 13, None, {}, name="big"),
               DeskCaps(element_sweep=16))


def test_memo_hit_enforces_caps():
    from pgforge.caps import DeskCaps

    G = corpus.g64().presentation
    assert center(G).order == 4
    with pytest.raises(CapExceeded):
        center(G, DeskCaps(element_sweep=8))
    assert center(G, DeskCaps(element_sweep=64)).order == 4


def test_ds_condition_matches_the_centralizer_sweep_on_the_corpus():
    """ds_condition gives the verdict of the commutator sweeps: of
    frattini(G)'s elements for its center, then of all of G for that
    center's centralizer, on every corpus group within the sweep cap."""
    verdicts = Counter()
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.element_sweep:
            continue
        phi = frattini(G)
        expected = commutator_sweep(G, sweep_center_of_subgroup(G, phi).igs) == phi
        assert ds_condition(G) == expected, entry.id
        verdicts[expected] += 1
    assert sum(verdicts.values()) == 39
    assert verdicts[True] and verdicts[False]


def test_memo_hit_raises_as_a_cold_call():
    """A warm result refuses with the same error as a cold call."""
    from pgforge.caps import DeskCaps

    small = DeskCaps(element_sweep=2)
    warm = corpus.g64().presentation
    profile(warm)
    central_quotient(warm)
    for fn in (center, lambda G, caps: agemo(G, 1, caps), frattini,
               omega1_general, upper_central_series, is_powerful, is_p_central,
               ds_condition, element_orders, exponent, profile, central_quotient):
        with pytest.raises(CapExceeded) as cold:
            fn(corpus.g64().presentation, small)
        with pytest.raises(CapExceeded) as hit:
            fn(warm, small)
        assert (hit.value.what, hit.value.needed, hit.value.cap) == (
            cold.value.what, cold.value.needed, cold.value.cap)


def sweep_frattini(G):
    """Oracle: G' together with every p-th power, by a full sweep."""
    p = G.prime
    return subgroup_closure(
        G, list(derived_subgroup(G).igs) + [x ** p for x in G.elements()]
    )


def test_frattini_matches_sweep_oracle():
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        assert frattini(G) == sweep_frattini(G), entry.id


def test_frattini_refuses_alike_after_the_generation_test():
    """The generation test fills the Frattini memo without a sweep; a later
    capped frattini call still refuses as a cold one does."""
    from pgforge.autos import generates
    from pgforge.caps import DeskCaps

    small = DeskCaps(element_sweep=2)
    warm = corpus.g64().presentation
    assert generates(warm, warm.gens())
    assert "frattini" in warm._cache
    with pytest.raises(CapExceeded) as cold:
        frattini(corpus.g64().presentation, small)
    with pytest.raises(CapExceeded) as hit:
        frattini(warm, small)
    assert (hit.value.what, hit.value.needed) == (cold.value.what, cold.value.needed)
    assert frattini(warm).order == 16


# -- the Element sweeps that the exponent-vector routines replaced -------------


def sweep_upper_central_series(G):
    """Each level by a sweep of all of G, with an Element commutator and a
    membership test per (x, generator) pair."""
    series = [trivial_subgroup(G)]
    gens = G.gens()
    while series[-1].order < G.order:
        prev = series[-1]
        series.append(subgroup_closure(G, [
            x for x in G.elements()
            if all(prev.membership(x.commutator(g)) for g in gens)
        ]))
    return series


def sweep_agemo(G, i):
    return subgroup_closure(G, [x ** (G.prime ** i) for x in G.elements()])


def sweep_omega1(P, elements):
    return subgroup_closure(P, [x for x in elements if (x ** P.prime).is_identity])


def sweep_center_of_subgroup(G, S):
    return subgroup_closure(G, [
        x for x in S.elements()
        if all(x.commutator(u).is_identity for u in S.igs)
    ])


def sweep_abelian_invariants(A):
    return list(invariants_of_orders(A.pres.prime, [x.order() for x in A.elements()]))


def sweep_groups():
    """Every corpus group within the element sweep cap, with fresh memos."""
    out = [e for e in corpus.builtin_corpus(validate=False)
           if e.presentation.order <= DEFAULT_CAPS.element_sweep]
    assert len(out) == 39
    return out


def test_group_sweeps_match_the_element_sweeps(family_members):
    """The order table, exponent, agemo, omega1_general and the upper
    central series against the Element sweeps, on every corpus group and
    on the family members outside the corpus."""
    for entry in sweep_groups() + family_members:
        G = entry.presentation
        assert element_orders(G) == tuple(x.order() for x in G.elements()), entry.id
        assert exponent(G) == max(x.order() for x in G.elements()), entry.id
        for i in (1, 2):
            assert agemo(G, i) == sweep_agemo(G, i), (entry.id, i)
        assert omega1_general(G) == sweep_omega1(G, G.elements()), entry.id
        assert [S.key() for S in upper_central_series(G)] == [
            S.key() for S in sweep_upper_central_series(G)
        ], entry.id


def test_subgroup_sweeps_match_the_element_sweeps(family_members):
    """center_of_subgroup on every subgroup, normal or not, and omega1 and
    abelian_invariants on every abelian one and on the center, against
    the Element sweeps, on every corpus group within the lattice cap and
    on the family members outside the corpus."""
    checked = 0
    for entry in sweep_groups() + family_members:
        G = entry.presentation
        if G.order > DEFAULT_CAPS.subgroup_enum:
            continue
        for S in enumerate_subgroups(G):
            Z = center_of_subgroup(G, S)
            assert Z == sweep_center_of_subgroup(G, S), entry.id
            for A in {S, Z} if S.is_abelian() else {Z}:
                assert omega1(A) == sweep_omega1(G, A.elements()), entry.id
                assert abelian_invariants(A) == sweep_abelian_invariants(A), entry.id
            checked += 1
    assert checked > 800


def test_subgroup_vectors_are_the_layer_products():
    """Subgroup.vectors grows the products u_1^q_1 ... u_k^q_k layer by
    layer; each must equal the product built from the identity, in the
    order of itertools.product over the layers."""
    from pgforge import kernel

    for entry in sweep_groups():
        G = entry.presentation
        if G.order > 64:
            continue
        t = G._tables
        for S in enumerate_subgroups(G):
            layers = [range(G.rel_orders[u.leading_index()] // u.vec[u.leading_index()])
                      for u in S.igs]
            expected = []
            for exps in itertools.product(*layers):
                vec = t.identity
                for u, q in zip(S.igs, exps):
                    vec = kernel.mul(t, vec, kernel.power(t, u.vec, q))
                expected.append(vec)
            assert S.vectors() == expected, entry.id
            assert len(set(expected)) == S.order


def test_center_of_subgroup_refuses_a_subgroup_of_another_presentation(d8, q8):
    with pytest.raises(MixedPresentationError):
        center_of_subgroup(d8, full_subgroup(q8))


def test_warm_center_of_subgroup_refuses_like_a_cold_call():
    """The memo hit checks the cap first: a smaller cap refuses with the
    cold call's error, and the default caps return the memoized subgroup."""
    from pgforge.caps import DeskCaps

    small = DeskCaps(element_sweep=8)
    warm = corpus.g64().presentation
    phi = frattini(warm)
    Z = center_of_subgroup(warm, phi)
    assert ("center_of_subgroup", phi.key()) in warm._cache
    cold_G = corpus.g64().presentation
    with pytest.raises(CapExceeded) as cold:
        center_of_subgroup(cold_G, frattini(cold_G), small)
    with pytest.raises(CapExceeded) as hit:
        center_of_subgroup(warm, phi, small)
    assert (hit.value.what, hit.value.needed, hit.value.cap) == \
        (cold.value.what, cold.value.needed, cold.value.cap) == ("subgroup center sweep", 16, 8)
    assert center_of_subgroup(warm, phi) is Z


def test_warm_centralizer_of_subgroup_refuses_like_a_cold_call(q8):
    """A subgroup's centralizer is memoized, and the memo hit checks the
    cap and the presentation first: a smaller cap refuses with the cold
    call's error, a subgroup of another presentation is refused, and the
    default caps return the memoized subgroup."""
    from pgforge.caps import DeskCaps

    small = DeskCaps(element_sweep=8)
    warm = corpus.g64().presentation
    phi = frattini(warm)
    C = centralizer(warm, phi)
    assert ("centralizer", phi.key()) in warm._cache
    cold_G = corpus.g64().presentation
    with pytest.raises(CapExceeded) as cold:
        centralizer(cold_G, frattini(cold_G), small)
    with pytest.raises(CapExceeded) as hit:
        centralizer(warm, phi, small)
    assert (hit.value.what, hit.value.needed, hit.value.cap) == \
        (cold.value.what, cold.value.needed, cold.value.cap) == ("element sweep", 64, 8)
    with pytest.raises(MixedPresentationError):
        centralizer(warm, full_subgroup(q8))
    assert centralizer(warm, phi) is C
