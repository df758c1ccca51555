import itertools
import random
import signal

import pytest

from pgforge.core import PcPresentation
from pgforge.errors import CapExceeded, DomainError
from pgforge.subgroups import (
    _IgsBuilder,
    _leading,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    first_outside,
    full_subgroup,
    is_normal,
    normal_closure,
    quotient,
    subgroup_closure,
    trivial_subgroup,
)
from pgforge import corpus, kernel, subgroups
from pgforge.caps import DeskCaps

from oracles import all_pairs_closure, is_cyclic_by_orders, rep_order


def brute_closure(P, gens):
    """Independent oracle: grow the multiplication-closed set to a fixpoint."""
    els = {P.identity()}
    changed = True
    for g in gens:
        els.add(g)
    while changed:
        changed = False
        for a in list(els):
            for b in list(els):
                c = a * b
                if c not in els:
                    els.add(c)
                    changed = True
            ai = a.inverse()
            if ai not in els:
                els.add(ai)
                changed = True
    return els


def brute_subgroups(P):
    """Independent oracle: closures of all generator subsets up to size 3."""
    els = list(P.elements())
    found = {}
    seen_sets = set()
    for r in range(4):
        for gens in itertools.combinations(els, r):
            S = frozenset(x.vec for x in brute_closure(P, list(gens)))
            seen_sets.add(S)
    return seen_sets


def test_closure_examples(d8):
    g1, g2, g3 = d8.gens()
    assert subgroup_closure(d8, [g3]).order == 2
    assert subgroup_closure(d8, []).order == 1
    assert subgroup_closure(d8, [g1, g2]).order == 8


def test_a_faulty_sift_is_refused_rather_than_looping(d8, monkeypatch):
    """With a sift that skips an index after each strip, a remainder lands
    on an occupied pivot without lowering its step, so the table's order
    stops rising; `add` refuses it with DomainError instead of displacing
    entries for ever.  An alarm turns a hang into a failure."""
    def skipping_sift(t, table, vec):
        i = _leading(vec)
        while i is not None:
            u = table[i]
            if u is None or vec[i] % u[i]:
                return vec
            vec = kernel.mul(t, kernel.power(t, u, -(vec[i] // u[i])), vec)
            i = _leading(vec, i + 2)
        return vec

    def hang(signum, frame):
        raise AssertionError("the closure did not stop within 10 s")

    monkeypatch.setattr(subgroups, "_sift", skipping_sift)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        g1, g2, _ = d8.gens()
        with pytest.raises(DomainError):
            subgroup_closure(d8, [g1, g2])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_closure_matches_oracle(d8):
    """Seeded random generating sets on d8 and on every corpus group within
    the lattice cap: the closure's key is that of the all-pairs closure,
    also when the set is added one element at a time with a close after
    each, and its elements are those of `brute_closure`."""
    rng = random.Random(11)
    for P in [d8] + [e.presentation for e in lattice_groups()]:
        els = list(P.elements())
        for trial in range(6):
            gens = [rng.choice(els) for _ in range(rng.randint(0, 3))]
            S = subgroup_closure(P, gens)
            assert S.key() == all_pairs_closure(P, [g.vec for g in gens]).key(), P.name
            b = _IgsBuilder(P)
            for g in gens:
                b.add(g.vec)
                b.close()
            assert b.subgroup().key() == S.key(), P.name
            oracle = brute_closure(P, gens)
            assert sorted(S.vectors()) == sorted(e.vec for e in oracle), P.name
            if P.order <= 32:
                for x in els:
                    assert S.membership(x) == (x in oracle)


def brute_normal_closure(P, gens):
    """Oracle: `brute_closure` of the set and its conjugates by every
    element of P, grown to a fixpoint."""
    els = list(P.elements())
    S = brute_closure(P, gens)
    while True:
        grown = brute_closure(P, list(S) + [x.conjugate(g) for x in S for g in els])
        if len(grown) == len(S):
            return S
        S = grown


def test_normal_closure_matches_the_conjugation_oracle(d8):
    """Seeded random generating sets on d8 and on every corpus group of
    order at most 64, closed under conjugation by the generators only."""
    rng = random.Random(13)
    groups = [d8] + [e.presentation for e in lattice_groups() if e.presentation.order <= 64]
    proper = 0
    for P in groups:
        els = list(P.elements())
        for trial in range(6):
            gens = [rng.choice(els) for _ in range(rng.randint(0, 2))]
            N = normal_closure(P, gens)
            oracle = brute_normal_closure(P, gens)
            assert sorted(N.vectors()) == sorted(e.vec for e in oracle), P.name
            assert is_normal(N)
            proper += len(oracle) < P.order and len(oracle) > len(brute_closure(P, gens))
    assert proper >= 10


def test_membership_examples(d8):
    g1, g2, g3 = d8.gens()
    S = subgroup_closure(d8, [g3])
    assert S.membership(d8.identity())
    assert not S.membership(g1)
    assert S.membership(g2 ** 2)


def test_echelon_pivots_strictly_increase(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        for S in enumerate_subgroups(P):
            pivots = [e.leading_index() for e in S.igs]
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)
            # every listed generator is a member and order divides |G|
            for e in S.igs:
                assert S.membership(e)
            assert P.order % S.order == 0


def test_normality(d8):
    g1, g2, g3 = d8.gens()
    assert is_normal(subgroup_closure(d8, [g3]))  # the center
    assert not is_normal(subgroup_closure(d8, [g1]))
    nc = normal_closure(d8, [g2])
    assert nc.order == 4
    assert max(x.order() for x in nc.elements()) == 4  # cyclic of order 4


def test_enumerate_subgroups_d8(d8):
    subs = enumerate_subgroups(d8)
    assert len(subs) == 10
    assert brute_subgroups(d8) == {
        frozenset(x.vec for x in S.elements()) for S in subs
    }
    assert len(enumerate_normal_subgroups(d8)) == 6


def test_enumerate_subgroups_q8(q8):
    subs = enumerate_subgroups(q8)
    assert len(subs) == 6
    assert all(is_normal(S) for S in subs)


def test_enumerate_subgroups_cp():
    for p in (2, 3, 5):
        P = corpus.abelian(p, [1]).presentation
        assert len(enumerate_subgroups(P)) == 2


def test_enumeration_cap_refuses():
    P = corpus.metacyclic(4, 3, 2).presentation  # order 512
    with pytest.raises(CapExceeded):
        enumerate_subgroups(P)
    with pytest.raises(CapExceeded):
        enumerate_subgroups(corpus.dihedral(8).presentation, DeskCaps(subgroup_enum=4))


def test_membership_agrees_with_enumeration(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        if P.order > 2 ** 6:
            continue
        els = list(P.elements())
        for S in enumerate_subgroups(P):
            inside = {x.vec for x in S.elements()}
            for x in els:
                assert S.membership(x) == (x.vec in inside)


def test_first_outside_is_the_first_element_outside(small_corpus):
    """The last entry of G's generators, or of a subgroup's IGS, outside
    U is the first element outside U in elements() order; None when every
    entry lies in U."""
    for entry in small_corpus:
        P = entry.presentation
        if P.order > 2 ** 6:
            continue
        lattice = enumerate_subgroups(P)
        for S, U in itertools.product(lattice, repeat=2):
            want = next((x for x in S.elements() if not U.membership(x)), None)
            assert first_outside(S.igs, U) == want, entry.id
        for U in lattice:
            want = next((x for x in P.elements() if not U.membership(x)), None)
            assert first_outside(P.gens(), U) == want, entry.id


# -- quotients ---------------------------------------------------------------


def test_quotient_d8_center_is_klein(d8):
    Z = subgroup_closure(d8, [d8.gen(2)])
    Q = quotient(d8, Z)
    assert Q.order == 4
    assert all(rep_order(Q, x) <= 2 for x in Q.elements())


def test_quotient_by_whole_group(d8):
    Q = quotient(d8, full_subgroup(d8))
    assert Q.order == 1
    assert Q.canonical(d8.gen(0)).is_identity


def test_quotient_q8(q8):
    minus1 = subgroup_closure(q8, [q8.gen(1) ** 2])
    Q = quotient(q8, minus1)
    assert Q.order == 4
    assert all(rep_order(Q, x) <= 2 for x in Q.elements())


def test_quotient_requires_normal(d8):
    S = subgroup_closure(d8, [d8.gen(0)])
    with pytest.raises(DomainError):
        quotient(d8, S)


def test_quotient_respects_multiplication(small_corpus):
    rng = random.Random(5)
    for entry in small_corpus:
        P = entry.presentation
        for N in enumerate_normal_subgroups(P):
            Q = quotient(P, N)
            assert Q.order == P.order // N.order
            els = list(P.elements())
            for _ in range(40):
                x, y = rng.choice(els), rng.choice(els)
                assert Q.canonical(Q.canonical(x) * Q.canonical(y)) == Q.canonical(x * y)
            # canonical is constant on cosets and identity on the kernel
            n = rng.choice(list(N.elements()))
            x = rng.choice(els)
            assert Q.canonical(x * n) == Q.canonical(x)
            assert Q.canonical(n).is_identity


def test_quotient_presentation_consistent(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        for N in enumerate_normal_subgroups(P):
            Q = quotient(P, N)
            pres, proj = Q.presentation()
            assert pres.consistency_check() == []
            assert pres.order == Q.order
            # the projection is a homomorphism onto the quotient presentation
            els = list(P.elements())
            rng = random.Random(1)
            for _ in range(20):
                x, y = rng.choice(els), rng.choice(els)
                lhs = proj((x * y).vec)
                rhs = (pres.element(proj(x.vec)) * pres.element(proj(y.vec))).vec
                assert lhs == rhs


def test_subgroup_equality_is_canonical(d8):
    g1, g2, g3 = d8.gens()
    S1 = subgroup_closure(d8, [g2])
    S2 = subgroup_closure(d8, [g2 * g3, g3])
    assert S1 == S2
    assert hash(S1) == hash(S2)
    assert S1 <= S2 and S2 <= S1


def test_enumeration_is_memoized_per_presentation():
    P = corpus.dihedral(16).presentation
    first = enumerate_subgroups(P)
    second = enumerate_subgroups(P)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert enumerate_subgroups(P) == second
    # the cap is checked before the memo is consulted
    with pytest.raises(CapExceeded):
        enumerate_subgroups(P, DeskCaps(subgroup_enum=8))


@pytest.mark.parametrize("family", ["normal", "over", "normal-over"])
def test_each_family_is_memoized_and_refused_before_its_memo(family):
    P = corpus.dihedral(16).presentation
    N = normal_closure(P, [P.gen(P.n_gens - 1)])
    kwargs = {
        "normal": {"normal": True},
        "over": {"over": N},
        "normal-over": {"normal": True, "over": N},
    }[family]
    first = enumerate_subgroups(P, **kwargs)
    second = enumerate_subgroups(P, **kwargs)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    with pytest.raises(CapExceeded):
        enumerate_subgroups(P, DeskCaps(subgroup_enum=8), **kwargs)


def test_normal_family_refuses_a_bottom_that_is_not_normal(d8):
    S = subgroup_closure(d8, [d8.gen(0)])
    assert [T.order for T in enumerate_subgroups(d8, over=S)] == [2, 4, 8]
    with pytest.raises(DomainError):
        enumerate_subgroups(d8, over=S, normal=True)


def all_elements_lattice(G):
    """Oracle: breadth-first closure of every subgroup with every element
    of the group, |L| * |G| closures in all."""
    seen = {}
    triv = trivial_subgroup(G)
    seen[triv.key()] = triv
    frontier = [triv]
    all_elements = list(G.elements())
    while frontier:
        nxt = []
        for S in frontier:
            for x in all_elements:
                if S.membership(x):
                    continue
                T = subgroup_closure(G, list(S.igs) + [x])
                if T.key() not in seen:
                    seen[T.key()] = T
                    nxt.append(T)
        frontier = nxt
    return sorted(seen.values(), key=lambda s: (s.order, s.key()))


@pytest.fixture(scope="module")
def oracle_lattices():
    """(id, presentation, all-elements lattice) for every corpus group
    within the lattice cap, each oracle lattice built once."""
    return [(e.id, e.presentation, all_elements_lattice(e.presentation))
            for e in lattice_groups()]


def keys(subgroups):
    return [S.key() for S in subgroups]


def test_cyclic_extension_lattice_matches_all_elements_oracle(oracle_lattices):
    for gid, G, want in oracle_lattices:
        assert keys(enumerate_subgroups(G)) == keys(want), gid
    assert len(oracle_lattices) >= 30


def test_normal_family_matches_the_filtered_oracle(oracle_lattices):
    """The normal subgroups, grown by central steps, are the oracle
    lattice's members that pass the Element normality test, in order."""
    for gid, G, want in oracle_lattices:
        normals = [S for S in want if element_is_normal(S)]
        assert keys(enumerate_subgroups(G, normal=True)) == keys(normals), gid


def test_subgroups_over_each_normal_subgroup_match_the_filtered_oracle(oracle_lattices):
    """For every normal N, the subgroups grown from N are the oracle
    lattice's members containing N, and the normal ones among them are
    those that pass the Element normality test, both in order."""
    pairs = 0
    for gid, G, want in oracle_lattices:
        for N in [S for S in want if element_is_normal(S)]:
            above = [S for S in want if N <= S]
            assert keys(enumerate_subgroups(G, over=N)) == keys(above), (gid, N.key())
            assert keys(enumerate_subgroups(G, over=N, normal=True)) == keys(
                [S for S in above if element_is_normal(S)]), (gid, N.key())
            pairs += 1
    assert pairs > 400


def test_subgroups_over_any_subgroup_match_the_filtered_oracle(oracle_lattices):
    """Cyclic extension needs no normal bottom: on the groups of order at
    most 32, every subgroup's family is the oracle's members above it."""
    bottoms = 0
    for gid, G, want in oracle_lattices:
        if G.order > 32:
            continue
        for S in want:
            above = [T for T in want if S <= T]
            assert keys(enumerate_subgroups(G, over=S)) == keys(above), (gid, S.key())
            bottoms += 1
    assert bottoms > 200


def test_is_cyclic_matches_the_element_orders_on_every_normal_subgroup():
    cyclic = pairs = 0
    for entry in lattice_groups():
        G = entry.presentation
        for N in enumerate_normal_subgroups(G):
            Q = quotient(G, N)
            assert Q.is_cyclic() == is_cyclic_by_orders(Q), (entry.id, N.key())
            cyclic += Q.is_cyclic()
            pairs += 1
    assert 0 < cyclic < pairs


def element_is_normal(S):
    """Normality by Element conjugates and membership tests."""
    return all(S.membership(e.conjugate(g)) for e in S.igs for g in S.pres.gens())


def element_is_abelian(S):
    return all(u.commutator(v).is_identity for u in S.igs for v in S.igs)


def lattice_groups():
    """Every corpus group within the lattice cap, with fresh memos."""
    return [e for e in corpus.builtin_corpus(validate=False)
            if e.presentation.order <= DeskCaps().subgroup_enum]


def test_is_normal_and_is_abelian_match_the_element_tests():
    normal = total = 0
    for entry in lattice_groups():
        for S in enumerate_subgroups(entry.presentation):
            assert is_normal(S) == element_is_normal(S), entry.id
            assert S.is_abelian() == element_is_abelian(S), entry.id
            normal += is_normal(S)
            total += 1
    assert 400 < normal < total
