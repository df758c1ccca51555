import itertools
import random
import sys
from collections import Counter

import pytest

from pgforge.autos import identity_automorphism, inner_automorphism, make_automorphism
from pgforge.cohomology import (
    NORM_CASES,
    CrossedHom,
    _cocycle_forms,
    _kernel_basis,
    _norm_report,
    b1,
    bridge_vecs,
    c_aut_slice,
    fixed_point_centralizer_mismatch,
    h0,
    h0_h1,
    h1,
    module_of,
    norm_counterexample,
    slice_is_bridge_image,
    z1,
)
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element
from pgforge.errors import CapExceeded, DomainError, HypothesesUnmet
from pgforge.harness import check_lemma_3_7
from pgforge.structure import (
    center,
    center_of_subgroup,
    centralizer,
    frattini,
)
from pgforge.subgroups import (
    enumerate_normal_subgroups,
    enumerate_subgroups,
    full_subgroup,
    is_normal,
    quotient,
    subgroup_closure,
    trivial_subgroup,
)
from pgforge import cohomology, corpus

import oracles
from oracles import (a_elements, act, eager_fixing_leaves, fixed_points,
                     invariants_of_orders, trace_image)


def oracle_z1(M):
    """Every assignment in A^k on the greedy generators of Q, each extended
    along the Cayley graph and rejected on a clash: the filter that the
    kernel computation in `z1` must agree with."""
    picks = M.Q.generator_reps()
    qs = M.q_elements
    idx = {q.vec: i for i, q in enumerate(qs)}
    n = len(qs)
    ident_idx = idx[M.Q.canonical(M.G.identity()).vec]
    out = []
    pick_idx = [idx[p.vec] for p in picks]
    for assignment in itertools.product(a_elements(M), repeat=len(picks)):
        table = [None] * n
        table[ident_idx] = M.G.identity()
        for i, a in zip(pick_idx, assignment):
            if table[i] is None:
                table[i] = a
            elif table[i] != a:
                table = None
                break
        if table is None:
            continue
        # BFS: extend along right multiplication by the picks
        ok = True
        frontier = [ident_idx]
        seen = {ident_idx}
        while frontier and ok:
            nxt = []
            for qi in frontier:
                q = qs[qi]
                fq = table[qi]
                for s, a in zip(picks, assignment):
                    qs_next = M.Q.canonical(q * s)
                    ni = idx[qs_next.vec]
                    val = act(fq, s) * a
                    if table[ni] is None:
                        table[ni] = val
                        if ni not in seen:
                            seen.add(ni)
                            nxt.append(ni)
                    elif table[ni] != val:
                        ok = False
                        break
                    elif ni not in seen:
                        seen.add(ni)
                        nxt.append(ni)
                if not ok:
                    break
            frontier = nxt
        if not ok or any(v is None for v in table):
            continue
        out.append(CrossedHom(M, table))
    out.sort(key=lambda f: f.key())
    return out


def oracle_b1(M):
    """The principal crossed homomorphism of every a in A, each table
    built by conjugating a by every q in Q."""
    seen = {}
    for a in a_elements(M):
        ai = a.inverse()
        f = CrossedHom(M, [ai * act(a, q) for q in M.q_elements])
        seen[f.key()] = f
    return sorted(seen.values(), key=lambda f: f.key())


def law_on_all_pairs(f):
    """The cocycle law f(qr) = f(q)^r f(r) checked on all |Q|^2 pairs."""
    M = f.module
    idx = {q.vec: i for i, q in enumerate(M.q_elements)}
    for q, fq in zip(M.q_elements, f.values):
        for r, fr in zip(M.q_elements, f.values):
            qr = M.Q.canonical(q * r)
            if f.values[idx[qr.vec]] != act(fq, r) * fr:
                return False
    return True


def law_on_generator_pairs(f):
    """The cocycle law checked on the pairs (q, s) with s one of the
    generators M.gen_reps only.

    These pairs suffice.  Every r is a word s_1 ... s_k in the generators;
    induct on k.  For k = 0 the law reads f(q) = f(q) f(1), that is
    f(1) = 1, which the pair (1, s) gives whenever there is a generator:
    f(s) = f(1)^s f(s).  If the law holds for r, then
    f(q r s) = f(qr)^s f(s) = f(q)^(rs) f(r)^s f(s) = f(q)^(rs) f(rs), by
    the pairs (qr, s) and (r, s) and because Q acts by automorphisms.  A
    trivial Q has no generator, and then f(1) = 1 is checked directly."""
    M = f.module
    values = f.values
    if not M.gen_reps:
        return all(v.is_identity for v in values)
    for q, fq in zip(M.q_elements, values):
        for s in M.gen_reps:
            qs = values[M.q_index[M.Q.canonical(q * s).vec]]
            if qs != act(fq, s) * values[M.q_index[s.vec]]:
                return False
    return True


def table_product(f, g):
    """The pointwise product of two tables on the same module."""
    return CrossedHom(f.module, [a * b for a, b in zip(f.values, g.values)])


def cocycle_to_automorphism(M, f):
    """The bridge g -> g f(gN) with Element arithmetic: the table is
    checked against the cocycle law and the map validated, so any table
    may be passed; the oracle of `bridge_vecs`."""
    if not law_on_generator_pairs(f):
        raise DomainError("table violates the cocycle law")
    return make_automorphism(
        M.G, [g * f.values[M.q_index[M.Q.canonical(g).vec]] for g in M.G.gens()]
    )


def verify_action(M, rng, pairs=200):
    """The action is a homomorphism and does not depend on coset
    representatives, on random pairs of Q and random elements of N."""
    qs = M.q_elements
    ns = list(M.N.elements())
    for _ in range(pairs):
        q, r = rng.choice(qs), rng.choice(qs)
        qr = M.Q.canonical(q * r)
        for b in M.basis:
            assert act(act(b, q), r) == act(b, qr)
    for _ in range(pairs):
        q = rng.choice(qs)
        alt = q * rng.choice(ns)
        for b in M.basis:
            assert act(b, q) == b.conjugate(alt)


def oracle_h1(M, zs):
    """Invariant factors of Z1/B1 from the orders of the cosets."""
    bs = {f.key() for f in oracle_b1(M)}
    p = M.G.prime
    counts = Counter()
    for f in zs:
        o, g = 1, f
        while g.key() not in bs:
            g, o = g.power(p), o * p
        counts[o] += 1
    # each coset of B1 holds |B1| cocycles of one order
    return invariants_of_orders(
        p, [o for o, c in counts.items() for _ in range(c // len(bs))])


@pytest.fixture(scope="module")
def corpus_modules():
    """Every (corpus group, normal subgroup) module within the default
    caps."""
    out = []
    for entry in corpus.builtin_corpus():
        G = entry.presentation
        if G.order > DEFAULT_CAPS.subgroup_enum:
            continue
        for N in enumerate_normal_subgroups(G):
            try:
                out.append((entry.id, module_of(G, N)))
            except CapExceeded:
                continue
    return out


def z1_table_filter_oracle(M):
    """The defining filter: all A-valued tables satisfying the law."""
    out = []
    for vals in itertools.product(a_elements(M), repeat=len(M.q_elements)):
        f = CrossedHom(M, vals)
        if law_on_all_pairs(f):
            out.append(f.key())
    return sorted(out)


def test_module_trivial_quotient(d8):
    M = module_of(d8, full_subgroup(d8))
    assert M.Q.order == 1
    assert h0(M) == ()
    assert len(z1(M)) == 1


def test_module_d8_frattini(d8):
    phi = frattini(d8)
    M = module_of(d8, phi)
    assert M.A.order == 2 and M.Q.order == 4
    verify_action(M, random.Random(0))
    # trivial action: every action matrix is the identity
    for q in M.q_elements:
        assert M.action_matrix(q) == ((1,),) if M.basis_orders == (2,) else True
    assert h0(M) == (2,)


def test_module_extraspecial_center(es27):
    Z = center(es27)
    M = module_of(es27, Z)
    assert M.A.order == 3 and M.Q.order == 9
    assert h0(M) == (3,)
    assert h1(M)[2] != ()


def test_module_action_well_defined(small_corpus):
    rng = random.Random(2)
    for entry in small_corpus:
        G = entry.presentation
        if G.order > 2 ** 5:
            continue
        for N in enumerate_normal_subgroups(G)[:6]:
            if N.is_trivial():
                continue
            M = module_of(G, N)
            verify_action(M, rng, pairs=60)


def test_module_action_thousand_pair_verification(d8, es27):
    """Representative independence at the documented sampling depth."""
    rng = random.Random(17)
    for G in (d8, es27):
        maximal_n = max(
            enumerate_normal_subgroups(G), key=lambda s: s.order if s.order < G.order else 0
        )
        M = module_of(G, maximal_n)
        verify_action(M, rng, pairs=1000)


def test_trace_lands_in_fixed_points(small_corpus):
    for entry in small_corpus:
        G = entry.presentation
        if G.order > 2 ** 5:
            continue
        for N in enumerate_normal_subgroups(G)[:8]:
            if N.is_trivial():
                continue
            M = module_of(G, N)
            tr, fp = trace_image(M), fixed_points(M)
            assert all(fp.membership(x) for x in tr.igs)


def test_inversion_module(d8):
    """The cyclic maximal subgroup with the flip action: fixed points of
    order 2, trivial trace, so H0 is C2."""
    N = subgroup_closure(d8, [d8.gen(1)])
    M = module_of(d8, N)
    assert M.basis_orders == (4,)
    assert fixed_points(M).order == 2
    assert trace_image(M).order == 1
    assert h0(M) == (2,)


def test_trivial_action_forced_by_exponent():
    """|Q| = 4 acting trivially on C2: the trace is a fourth power, hence
    trivial, and the fixed points are everything."""
    G = corpus.abelian(2, [1, 1, 1]).presentation
    N = subgroup_closure(G, [G.gen(0)])
    M = module_of(G, N)
    assert M.Q.order == 4
    assert fixed_points(M).order == 2
    assert trace_image(M).order == 1
    assert h0(M) == (2,)


# -- cocycles ------------------------------------------------------------------


def test_z1_matches_table_filter_oracle(d8, q8, es27):
    cases = [
        (d8, frattini(d8)),
        (d8, subgroup_closure(d8, [d8.gen(1)])),  # inversion action
        (q8, subgroup_closure(q8, [q8.gen(1) ** 2])),
        (es27, center(es27)),
    ]
    for G, N in cases:
        M = module_of(G, N)
        assert [f.key() for f in z1(M)] == z1_table_filter_oracle(M)


def test_z1_and_h1_match_the_assignment_oracle_on_every_corpus_module(
    corpus_modules,
):
    """The kernel solver against the assignment-by-assignment walk, and
    h1's |Z1|, |B1| and invariant factors against the walk's cocycles,
    the conjugation tables and the coset orders of the cocycles."""
    assert len(corpus_modules) > 400
    for gid, M in corpus_modules:
        expected = oracle_z1(M)
        assert [f.key() for f in z1(M)] == [f.key() for f in expected], gid
        assert h1(M) == (len(expected), len(oracle_b1(M)), oracle_h1(M, expected)), gid


def test_h0_matches_the_sweep_oracle_on_every_corpus_module(corpus_modules):
    """h0 against the swept fixed points over the trace image from a
    product over Q, read through the orders of coset representatives."""
    assert len(corpus_modules) == 491
    nonzero = 0
    for gid, M in corpus_modules:
        got = h0(M)
        assert got == oracles.h0(M), gid
        nonzero += got != ()
    assert nonzero > 100


def test_kernel_basis_is_triangular_and_counts_z1(corpus_modules):
    """Each h_i is zero before i with d_i at i, solves every condition of
    the walk, and the kernel has prod o_i / d_i elements, one per cocycle."""
    for gid, M in corpus_modules:
        forms, conditions, x_orders = _cocycle_forms(M)
        basis = _kernel_basis(conditions, x_orders)
        size = 1
        for i, (o, (d, h)) in enumerate(zip(x_orders, basis)):
            assert o % d == 0 and not any(h[:i]), gid
            assert h[i] == d % o, gid
            for oc, dc in conditions:
                assert sum(a * b for a, b in zip(h, dc)) % oc == 0, gid
            size *= o // d
        assert len({f.key() for f in z1(M)}) == size, gid


def test_z1_refuses_on_the_enumerated_size():
    """The refusal reads |Z1| |Q| from the kernel's diagonal.  Q = C2^6
    acts trivially on A = C2^6, so Z1 = Hom(Q, A) has 2^36 elements; `h0`
    and `h1`, which list nothing, still answer, with B1 trivial and
    H1 = Z1."""
    G = corpus.abelian(2, [1] * 12).presentation
    N = subgroup_closure(G, G.gens()[6:])
    M = module_of(G, N)
    with pytest.raises(CapExceeded) as exc:
        z1(M)
    assert exc.value.what == "cocycle solver"
    assert exc.value.needed == 2 ** 36 * 2 ** 6
    assert h1(M) == (2 ** 36, 1, (2,) * 36)
    assert h0(M) == (2,) * 6


def test_z1_answers_where_the_assignment_walk_refused():
    """Q = C2^4 acting trivially on A = C8 x C8: the walk over A^4 needed
    64^4 * 16 > 50 000 000 tables and refused; Z1 = Hom(Q, A) has only
    4^4 elements."""
    G = corpus.abelian(2, [3, 3, 1, 1, 1, 1]).presentation
    N = subgroup_closure(G, G.gens()[:2])
    M = module_of(G, N)
    assert M.A.order ** len(M.Q.generator_reps()) * M.Q.order > 50_000_000
    zs = z1(M)
    assert len(zs) == 4 ** 4
    assert all(law_on_generator_pairs(f) for f in zs[::37])
    assert h1(M)[2] == (2,) * 8


def test_h1_inversion_module(d8):
    """Q = C2 inverting C4: every table is a cocycle (the law collapses),
    the principal ones are the squares, so H1 is C2."""
    N = subgroup_closure(d8, [d8.gen(1)])
    M = module_of(d8, N)
    assert len(z1(M)) == 4
    assert len(b1(M)) == 2
    assert h1(M)[2] == (2,)


def test_z1_hom_shape_for_trivial_action():
    """Trivial action makes crossed homomorphisms plain homomorphisms:
    Q = C_p on A = C_p gives Z1 of size p with trivial B1."""
    for p in (2, 3):
        G = corpus.abelian(p, [1, 1]).presentation
        N = subgroup_closure(G, [G.gen(0)])
        M = module_of(G, N)
        zs = z1(M)
        assert len(zs) == p
        assert len(b1(M)) == 1
        assert h1(M)[2] == (p,)


def test_z1_group_closure_and_law(d8):
    M = module_of(d8, frattini(d8))
    zs = z1(M)
    keys = {f.key() for f in zs}
    for f in zs:
        assert law_on_generator_pairs(f)
        assert f.values[M.q_index[M.Q.canonical(d8.identity()).vec]].is_identity
        for g in zs:
            assert table_product(f, g).key() in keys


def test_b1_matches_the_conjugation_oracle_on_every_corpus_module(corpus_modules):
    """B1 spanned by the basis tables equals the table of every a in A,
    in key order."""
    for gid, M in corpus_modules:
        assert [f.key() for f in b1(M)] == [f.key() for f in oracle_b1(M)], gid


def oracle_coords(M):
    """The coordinates of A from the product b_1^e_1 ... b_m^e_m of each
    exponent tuple, built from the identity with Element powers."""
    coords = {}
    for exps in itertools.product(*(range(o) for o in M.basis_orders)):
        x = M.G.identity()
        for b, e in zip(M.basis, exps):
            if e:
                x = x * b ** e
        coords[x.vec] = exps
    return coords


def oracle_fixed_point_centralizer_report(M, caps=DEFAULT_CAPS):
    """The mismatch and count of `fixed_point_centralizer_mismatch`, with
    the fixed points and their centralizer found by Element conjugation,
    per subgroup over N."""
    if M.A.is_trivial():
        raise HypothesesUnmet("trivial module")
    if h0(M) != ():
        raise HypothesesUnmet("not cohomologically trivial")
    G = M.G
    verified = 0
    for S in enumerate_subgroups(G, caps):
        if not all(S.membership(u) for u in M.N.igs):
            continue
        h_reps = sorted({M.Q.canonical(x).vec for x in S.elements()})
        fixed = [a for a in a_elements(M)
                 if all(act(a, Element(G, h)) == a for h in h_reps)]
        centralizer_reps = {q.vec for q in M.q_elements
                            if all(act(a, q) == a for a in fixed)}
        if centralizer_reps != set(h_reps):
            return {"H": h_reps, "centralizer": sorted(centralizer_reps)}, verified
        verified += 1
    return None, verified


def skip_reason_or(fn, M):
    """fn(M), or the reason of the HypothesesUnmet it raises."""
    try:
        return fn(M)
    except HypothesesUnmet as exc:
        return exc.reason


def test_module_vectors_match_the_element_oracles(corpus_modules):
    """The coordinates (with their order), the action matrices and the
    fixed-point centralizer report, on every corpus module."""
    statuses = Counter()
    for gid, M in corpus_modules:
        assert list(M._coords.items()) == list(oracle_coords(M).items()), gid
        for q in M.q_elements:
            assert M.action_matrix(q) == tuple(
                M._coords[act(b, q).vec] for b in M.basis), gid
        got = skip_reason_or(fixed_point_centralizer_mismatch, M)
        assert got == skip_reason_or(oracle_fixed_point_centralizer_report, M), gid
        if isinstance(got, str):
            statuses["skip"] += 1
        else:
            statuses["pass" if got[0] is None else "fail"] += 1
    assert statuses["pass"] > 10 and statuses["skip"] > 10


def test_fixed_point_centralizer_fail_path_matches_the_oracle(corpus_modules,
                                                              monkeypatch):
    """With H0 taken as zero, so that no module is turned away for it, the
    mismatch payload and count agree with the Element oracle on every
    corpus module with nontrivial A; most of them then fail."""
    monkeypatch.setattr(cohomology, "h0", lambda M: ())
    monkeypatch.setattr(sys.modules[__name__], "h0", lambda M: ())
    statuses = Counter()
    for gid, M in corpus_modules:
        if M.A.is_trivial():
            continue
        got = fixed_point_centralizer_mismatch(M)
        assert got == oracle_fixed_point_centralizer_report(M), gid
        statuses["pass" if got[0] is None else "fail"] += 1
    assert statuses["fail"] >= 300, statuses


def closure_generator_reps(Q):
    """The greedy picks with the span closed again from scratch for each
    pick: the oracle of `QuotientGroup.generator_reps`."""
    picks = []
    span = Q.kernel_subgroup
    for g in Q.parent.gens():
        if not span.membership(g):
            picks.append(Q.canonical(g))
            span = subgroup_closure(Q.parent, list(span.igs) + [g])
    return picks


def closure_abelian_basis(A):
    """The greedy basis with Element powers: a candidate is tested against
    the span at every power, the scan restarts after each pick and the
    span is closed again from scratch; the oracle of
    `structure.abelian_basis`."""
    P = A.pres
    basis = []
    span = trivial_subgroup(P)
    remaining = sorted(A.elements(), key=lambda x: (-x.order(), x.vec))
    while span.order < A.order:
        for x in remaining:
            if span.membership(x):
                continue
            y = x
            for _ in range(1, x.order()):
                if span.membership(y) and not y.is_identity:
                    break
                y = y * x
            else:
                basis.append(x)
                span = subgroup_closure(P, list(span.igs) + [x])
                break
        else:
            raise AssertionError("no independent pick")
    return basis


def test_module_picks_and_basis_match_the_closure_oracles(corpus_modules):
    """Q's generator picks and A's basis, in order, on every corpus
    module."""
    assert len(corpus_modules) == 491
    for gid, M in corpus_modules:
        assert M.gen_reps == closure_generator_reps(M.Q), gid
        assert M.basis == closure_abelian_basis(M.A), gid


def test_law_on_generator_pairs_matches_all_pairs(corpus_modules):
    """The law on the pairs (q, s), s a generator of Q, against the
    check of all |Q|^2 pairs: for solved cocycles, which satisfy both, and
    for each of them with one value replaced at random, which mostly do
    not.  The modules with a trivial Q are included."""
    rng = random.Random(20091)
    tables = broken = trivial_q = 0
    for gid, M in corpus_modules:
        if len(M.q_elements) > 16:
            continue
        trivial_q += M.Q.order == 1
        zs = z1(M)
        for f in rng.sample(zs, min(3, len(zs))):
            vals = list(f.values)
            vals[rng.randrange(len(vals))] = rng.choice(a_elements(M))
            for g in (f, CrossedHom(M, vals)):
                law = law_on_all_pairs(g)
                assert law_on_generator_pairs(g) == law, gid
                tables += 1
                broken += not law
    assert trivial_q > 0 and broken > 500 and tables > 2000


def test_law_on_generator_pairs_matches_all_pairs_on_every_small_table(
    corpus_modules,
):
    """The same comparison on every A-valued table of one module per
    corpus group: the first with A nontrivial, at most 256 tables and two
    or more generators of Q.  These include tables that obey the law for
    some generators and not for others."""
    modules = {}
    for gid, M in corpus_modules:
        if (M.A.order > 1 and M.A.order ** len(M.q_elements) <= 256
                and len(M.gen_reps) > 1):
            modules.setdefault(gid, M)
    assert len(modules) > 10
    for gid, M in modules.items():
        for vals in itertools.product(a_elements(M), repeat=len(M.q_elements)):
            f = CrossedHom(M, vals)
            assert law_on_generator_pairs(f) == law_on_all_pairs(f), gid


def test_b1_size_is_a_over_fixed_points(small_corpus):
    for entry in small_corpus:
        G = entry.presentation
        if G.order > 2 ** 5:
            continue
        for N in enumerate_normal_subgroups(G)[:6]:
            if N.is_trivial():
                continue
            M = module_of(G, N)
            bs = b1(M)
            assert len(bs) == M.A.order // fixed_points(M).order


def test_z1_b1_h1_sizes_consistent(d8, q8):
    """|Z1| = |B1| |H1|, with the sizes of `h1` those of the lists."""
    for G, N in [(d8, frattini(d8)), (q8, subgroup_closure(q8, [q8.gen(1) ** 2]))]:
        M = module_of(G, N)
        z1_size, b1_size, inv = h1(M)
        assert (z1_size, b1_size) == (len(z1(M)), len(b1(M)))
        size = 1
        for f in inv:
            size *= f
        assert z1_size == b1_size * size


# -- the bridge -----------------------------------------------------------------


def test_trivial_cocycle_gives_identity(d8):
    M = module_of(d8, frattini(d8))
    f = CrossedHom(M, [d8.identity()] * len(M.q_elements))
    assert cocycle_to_automorphism(M, f) == identity_automorphism(d8)


def test_principal_cocycle_gives_conjugation(q8, es27):
    for G, N in [(q8, subgroup_closure(q8, [q8.gen(1) ** 2])), (es27, center(es27))]:
        M = module_of(G, N)
        for a in a_elements(M):
            f = CrossedHom(M, [a.inverse() * act(a, q) for q in M.q_elements])
            assert cocycle_to_automorphism(M, f) == inner_automorphism(G, a)


def test_bridge_bijection_with_slice(d8, q8):
    for G, N in [(d8, frattini(d8)), (q8, subgroup_closure(q8, [q8.gen(1) ** 2]))]:
        M = module_of(G, N)
        zs = z1(M)
        slice_ = c_aut_slice(G, N)
        assert len(zs) == len(slice_)
        bridge = {cocycle_to_automorphism(M, f).key() for f in zs}
        assert bridge == {a.key() for a in slice_}
        # multiplicative: the bridge of a product is the composition
        for f in zs[:3]:
            for g in zs[:3]:
                lhs = cocycle_to_automorphism(M, table_product(f, g))
                rhs = cocycle_to_automorphism(M, f).compose(
                    cocycle_to_automorphism(M, g)
                )
                assert lhs == rhs


def test_slice_of_whole_group(d8):
    assert [a.key() for a in c_aut_slice(d8, full_subgroup(d8))] == [
        identity_automorphism(d8).key()
    ]


def test_bridge_rejects_bad_table(d8):
    M = module_of(d8, frattini(d8))
    vals = [d8.identity()] * len(M.q_elements)
    vals[1] = frattini(d8).igs[0]
    f = CrossedHom(M, vals)
    if not law_on_generator_pairs(f):
        with pytest.raises(DomainError):
            cocycle_to_automorphism(M, f)


# -- the slice search and the vector bridge against their filters -----------


def filter_slice(G, N):
    """The slice by its definition: every image tuple g_i t, t in N, over
    the whole product N^free, validated and kept when it fixes N
    pointwise; the oracle of the backtracking search in `c_aut_slice`."""
    from pgforge.autos import Automorphism, validation_error

    gens = G.gens()
    free = [i for i, g in enumerate(gens) if not N.membership(g)]
    n_elements = sorted(N.elements(), key=lambda e: e.vec)
    out = []
    for defects in itertools.product(n_elements, repeat=len(free)):
        images = list(gens)
        for i, t in zip(free, defects):
            images[i] = gens[i] * t
        if validation_error(G, images):
            continue
        alpha = Automorphism._of_vecs(G, [x.vec for x in images])
        if alpha.fixes_pointwise(N):
            out.append(alpha)
    out.sort(key=lambda a: a.key())
    return out


@pytest.fixture(scope="module")
def bijection_pairs():
    """Every (corpus group, normal subgroup) pair within the bijection cap,
    the pairs that prop-1.3 checks, each with its module."""
    out = []
    for entry in corpus.builtin_corpus():
        G = entry.presentation
        if G.order > DEFAULT_CAPS.bijection:
            continue
        for N in enumerate_normal_subgroups(G):
            out.append((entry.id, G, N, module_of(G, N)))
    return out


def test_slice_search_matches_the_filter_on_every_pair(bijection_pairs):
    """And the lazy descent yields the eager one's sorted leaves on the
    slice pools of every pair."""
    from pgforge.autos import _fixing_leaves
    from pgforge.cohomology import _slice_pools

    assert len(bijection_pairs) == 336
    assert len({gid for gid, *_ in bijection_pairs}) == 30
    for gid, G, N, _ in bijection_pairs:
        assert [a.key() for a in c_aut_slice(G, N)] == [
            a.key() for a in filter_slice(G, N)
        ], (gid, N.key())
        pools = _slice_pools(G, N)
        assert list(_fixing_leaves(G, N, pools)) == eager_fixing_leaves(G, N, pools), \
            (gid, N.key())


def test_slice_pools_are_the_cosets_of_the_center_of_n(bijection_pairs):
    """A free generator's candidates are g·z for z in Z(N), found here by
    filtering N for the elements that commute with all of it.  On 22 of
    the 336 pairs Z(N) is smaller than N, and the products of the pool
    sizes fall from 26 992 (|N|^free) to 19 566 in all."""
    from pgforge.cohomology import _slice_pools

    shrunk = by_n = by_center = 0
    for gid, G, N, _ in bijection_pairs:
        elements = list(N.elements())
        center = [z for z in elements if all(z * m == m * z for m in elements)]
        free = 0
        for g, pool in zip(G.gens(), _slice_pools(G, N)):
            if N.membership(g):
                assert pool == [g.vec], (gid, N.key())
            else:
                free += 1
                assert sorted(pool) == sorted((g * z).vec for z in center), (gid, N.key())
        shrunk += free > 0 and len(center) < len(elements)
        by_n += len(elements) ** free
        by_center += len(center) ** free
    assert (shrunk, by_n, by_center) == (22, 26_992, 19_566)


def test_vector_bridge_matches_the_validated_bridge_on_every_pair(bijection_pairs):
    for gid, G, N, M in bijection_pairs:
        for fs in (z1(M), b1(M)):
            assert bridge_vecs(M, fs) == [
                cocycle_to_automorphism(M, f).key() for f in fs
            ], (gid, N.key())


def test_slice_refuses_the_product_before_the_search():
    """Elementary abelian of order 128 over its index-2 subgroup of even
    exponent sums: all 7 generators are free, so 64^7 tuples."""
    G = corpus.abelian(2, [1] * 7).presentation
    gens = G.gens()
    N = subgroup_closure(G, [gens[0] * g for g in gens[1:]])
    assert N.order == 64
    with pytest.raises(CapExceeded) as exc:
        c_aut_slice(G, N)
    assert (exc.value.what, exc.value.needed, exc.value.cap) == (
        "pointwise-fixing slice", 64 ** 7, 2_000_000)


def test_slice_needs_a_normal_subgroup(d8):
    """So do the module and the nonvanishing report, refused by `quotient`
    before any cap is checked."""
    S = subgroup_closure(d8, [d8.gen(0)])
    with pytest.raises(DomainError):
        c_aut_slice(d8, S)
    tight = DEFAULT_CAPS.with_override(1)
    for build in (module_of, h0_h1):
        with pytest.raises(DomainError):
            build(d8, S, tight)


# -- prop-1.3 from Z1's echelon basis against the listing ---------------------


CAP_1024 = DEFAULT_CAPS.with_override(1024)


def span_set(rows, orders):
    """Every element of the subgroup of X generated by rows, by closure
    under adding a row."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for r in rows:
                y = tuple((a + b) % o for a, b, o in zip(x, r, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def free_generators(G, N):
    return [i for i, g in enumerate(G.gens()) if not N.membership(g)]


def element_defects(M, coords, free, maps):
    """The defect tuples (g_i^-1 a(g_i))_i over the free generators of
    maps given by their image vectors, with Element arithmetic, in the
    coordinates `coords` of A."""
    G = M.G
    return {
        tuple(e for i in free for e in coords[(G.gen(i).inverse() * Element(G, images[i])).vec])
        for images in maps
    }


@pytest.fixture(scope="module")
def route_modules(family_members):
    """Every (group, normal subgroup) module of the corpus groups and of
    the family members at cap 1024, where the bijection cap admits every
    one of them."""
    out = []
    for entry in corpus.builtin_corpus() + family_members:
        G = entry.presentation
        for N in enumerate_normal_subgroups(G, CAP_1024):
            out.append((entry.id, module_of(G, N, CAP_1024)))
    return out


def test_bridge_route_decides_every_module_as_the_listing_does(route_modules):
    """`slice_is_bridge_image` confirms prop 1.3 on every module, and what
    it reasons with is what the listing finds: the span K of the basis
    rows' bridge defects is the defect set of the bridge of every listed
    cocycle and of every member of the searched slice, with |K| = |Z1|,
    and the span of the principal rows' bridge defects is that of the
    listed B1 and of the conjugation by every element of A."""
    assert len(route_modules) == 535 + 70
    for gid, M in route_modules:
        G, N = M.G, M.N
        assert slice_is_bridge_image(M, CAP_1024), (gid, N.key())
        free = free_generators(G, N)
        orders = M.basis_orders * len(free)
        coords = oracle_coords(M)
        forms, counts = cohomology._cocycle_basis(M)
        K = span_set(cohomology._bridge_defects(M, free, forms, [h for _, h in counts]), orders)
        zs = z1(M, CAP_1024)
        assert len(K) == len(zs), (gid, N.key())
        assert element_defects(M, coords, free, bridge_vecs(M, zs)) == K, (gid, N.key())
        slice_ = [a.key() for a in c_aut_slice(G, N, CAP_1024)]
        assert element_defects(M, coords, free, slice_) == K, (gid, N.key())
        principal = cohomology._principal_rows(M, M.gen_reps)
        P = span_set(cohomology._bridge_defects(M, free, forms, principal), orders)
        assert element_defects(M, coords, free, bridge_vecs(M, b1(M))) == P, (gid, N.key())
        inner = [inner_automorphism(G, a).key() for a in a_elements(M)]
        assert element_defects(M, coords, free, inner) == P, (gid, N.key())


@pytest.mark.parametrize("orders, subgroups", [((4, 2, 8), 81), ((3, 9), 10), ((2, 4, 2), 27)])
def test_coset_bounds_pick_one_representative_per_coset(orders, subgroups):
    """On every subgroup K of X, grown from 0 by one element at a time:
    the x with x_c below `_coset_bounds` of K's generators meet every coset
    of K exactly once, and `_span_size` is |K|."""
    X = list(itertools.product(*(range(o) for o in orders)))
    zero = (0,) * len(orders)
    found = {frozenset([zero]): []}
    queue = [frozenset([zero])]
    while queue:
        K = queue.pop()
        gens = found[K]
        for x in X:
            if x in K:
                continue
            grown = frozenset(span_set(gens + [x], orders))
            if grown not in found:
                found[grown] = gens + [x]
                queue.append(grown)
    for K, gens in found.items():
        assert cohomology._span_size(gens, orders) == len(K)
        bounds = cohomology._coset_bounds(gens, orders)
        reps = [x for x in X if all(e < d for e, d in zip(x, bounds))]
        covered = {tuple((a - b) % o for a, b, o in zip(r, k, orders)) for r in reps for k in K}
        assert len(reps) * len(K) == len(covered) == len(X), (orders, gens)
    assert len(found) == subgroups


def test_route_declines_when_k_misses_a_row(monkeypatch, bijection_pairs):
    """With any one row dropped from Z1's basis, the rest still span
    |Z1| / count elements, so only the slice search can tell: it finds a
    leaf outside the smaller K, and the route declines."""
    basis = cohomology._cocycle_basis
    drop = [0]

    def missing_row(M):
        forms, counts = basis(M)
        return forms, counts[:drop[0]] + counts[drop[0] + 1:]

    monkeypatch.setattr(cohomology, "_cocycle_basis", missing_row)
    touched = 0
    for gid, G, N, M in bijection_pairs:
        for drop[0] in range(len(basis(M)[1])):
            touched += 1
            assert not slice_is_bridge_image(M), (gid, N.key(), drop[0])
    assert touched == 589


def test_route_declines_when_a_bound_admits_the_pivot(monkeypatch, bijection_pairs):
    """A bound raised from d_c to d_c + 1, at any c where K is not zero,
    admits the member of K with x_c = d_c reduced at every other c, and the
    search finds it."""
    bounds = cohomology._coset_bounds
    at = [0]

    def loose(rows, orders):
        ds = list(bounds(rows, orders))
        ds[at[0]] += 1
        return tuple(ds)

    monkeypatch.setattr(cohomology, "_coset_bounds", loose)
    touched = 0
    for gid, G, N, M in bijection_pairs:
        free = free_generators(G, N)
        orders = M.basis_orders * len(free)
        forms, counts = cohomology._cocycle_basis(M)
        rows = cohomology._bridge_defects(M, free, forms, [h for _, h in counts])
        for at[0], (d, o) in enumerate(zip(bounds(rows, orders), orders)):
            if d < o:
                touched += 1
                assert not slice_is_bridge_image(M), (gid, N.key(), at[0])
    assert touched == 589


def test_route_declines_when_b1_misses_a_row(monkeypatch, bijection_pairs):
    """With one of B1's spanning rows dropped, wherever that shrinks the
    span of their bridge defects, the principal images no longer match the
    conjugations by A, and the route declines."""
    principal_rows = cohomology._principal_rows
    drop = [0]

    def missing_row(M, qs):
        rows = principal_rows(M, qs)
        return rows[:drop[0]] + rows[drop[0] + 1:]

    monkeypatch.setattr(cohomology, "_principal_rows", missing_row)
    touched = 0
    for gid, G, N, M in bijection_pairs:
        free = free_generators(G, N)
        orders = M.basis_orders * len(free)
        forms, _ = cohomology._cocycle_basis(M)
        rows = cohomology._bridge_defects(M, free, forms, principal_rows(M, M.gen_reps))
        for drop[0] in range(len(rows)):
            if len(span_set(rows[:drop[0]] + rows[drop[0] + 1:], orders)) < len(span_set(rows, orders)):
                touched += 1
                assert not slice_is_bridge_image(M), (gid, N.key(), drop[0])
    assert touched == 51


def test_route_refuses_where_the_listing_does():
    """The route lists nothing, yet refuses where `z1` and the slice do:
    the cocycle solver on the enumerated size |Z1| |Q|, then the slice on
    the whole product |Z(N)|^free, before the pools are cut."""
    G = corpus.abelian(2, [1] * 12).presentation
    M = module_of(G, subgroup_closure(G, G.gens()[6:]))
    with pytest.raises(CapExceeded) as exc:
        slice_is_bridge_image(M)
    assert (exc.value.what, exc.value.needed, exc.value.cap) == (
        "cocycle solver", 2 ** 36 * 2 ** 6, 50_000_000)
    G = corpus.abelian(2, [1] * 7).presentation
    gens = G.gens()
    M = module_of(G, subgroup_closure(G, [gens[0] * g for g in gens[1:]]))
    with pytest.raises(CapExceeded) as exc:
        slice_is_bridge_image(M)
    assert (exc.value.what, exc.value.needed, exc.value.cap) == (
        "pointwise-fixing slice", 64 ** 7, 2_000_000)


# -- norm elements -----------------------------------------------------------------


def norm_element(a, g, n):
    """a^{g^{n-1}} ... a^{g} a, evaluated left to right: the Element norm
    of the element sweep below."""
    acc = a.pres.identity()
    for i in range(n - 1, -1, -1):
        acc = acc * a.conjugate(g ** i)
    return acc


def test_norm_element_examples(es27):
    a, g = es27.gen(0), es27.gen(2)  # g central
    assert norm_element(a, g, 3) == a ** 3
    assert norm_element(a, es27.gen(1), 1) == a


def test_norm_element_class2_defect_central(es27):
    rng = random.Random(7)
    Z = center(es27)
    els = list(es27.elements())
    for _ in range(100):
        a, g = rng.choice(els), rng.choice(els)
        n = rng.randint(1, 9)
        defect = norm_element(a, g, n) * (a ** n).inverse()
        assert Z.membership(defect)


@pytest.mark.parametrize(
    "case,entry_fn",
    [
        ("pcentral-odd", lambda: corpus.extraspecial(3, "p")),
        ("pcentral-odd", lambda: corpus.extraspecial(5, "p")),
        ("class3-odd", lambda: corpus.heisenberg_like(3)),
        ("class3-even", lambda: corpus.dihedral(16)),
        ("class3-even", lambda: corpus.dihedral16_x_c2()),
        ("class2", lambda: corpus.quaternion(8)),
        ("class2", lambda: corpus.abelian(2, [2, 1])),
    ],
)
def test_norm_identity_sweeps_pass(case, entry_fn):
    counterexample, checked = norm_counterexample(entry_fn().presentation, case)
    assert counterexample is None
    assert checked > 0


def element_norm_sweep(G, case, caps=DEFAULT_CAPS):
    """The norm sweep with Element arithmetic and one norm_element per
    (A, a, g, n), over every a in A: the first counterexample or None, and
    the tuples checked."""
    p = G.prime
    Z = center(G, caps)
    abelian_normals = [
        S for S in enumerate_subgroups(G, caps)
        if not S.is_trivial() and S.is_abelian() and is_normal(S)
    ]
    checked = 0
    for A in abelian_normals:
        cent = centralizer(G, A, caps)
        reps = sorted(quotient(G, cent).elements(), key=lambda e: e.vec)
        if case == "class3-even":
            xs = [x for x in reps if cent.membership(x ** 2)]
            for a in A.elements():
                a4inv = (a ** 4).inverse()
                for x in xs:
                    ax = a.conjugate(x)
                    for y in xs:
                        if not cent.membership((x * y) ** 2):
                            continue
                        defect = ax.conjugate(y) * a.conjugate(y) * ax * a * a4inv
                        if not Z.membership(defect):
                            return {"A": A.key(), "a": a.vec, "x": x.vec, "y": y.vec,
                                    "defect": defect.vec}, checked
                        checked += 1
        else:
            gs = [g for g in reps if cent.membership(g ** p)]
            ns = [p] if case != "class2" else sorted({1, 2, p, p + 1, p * p})
            for a in A.elements():
                for g in gs:
                    for n in ns:
                        defect = norm_element(a, g, n) * (a ** n).inverse()
                        exact = case == "pcentral-odd" and p > 3 and n == p
                        if (not defect.is_identity) if exact else not Z.membership(defect):
                            return {"A": A.key(), "a": a.vec, "g": g.vec, "n": n,
                                    "defect": defect.vec}, checked
                        checked += 1
    return None, checked


@pytest.fixture(scope="module")
def shared_corpus():
    """The built-in corpus, its per-presentation memos shared by the
    tests of this module that take it."""
    return corpus.builtin_corpus(validate=False)


@pytest.fixture(scope="module")
def element_norm_reports(shared_corpus):
    """{(group id, case): `element_norm_sweep`} for every corpus group and
    case within the caps, hypotheses ignored."""
    reports = {}
    for entry in shared_corpus:
        for case in NORM_CASES:
            try:
                reports[entry.id, case] = element_norm_sweep(entry.presentation, case)
            except CapExceeded:
                pass
    return reports


@pytest.mark.parametrize("case", NORM_CASES)
def test_norm_sweeps_match_the_element_sweep_on_the_corpus(case, shared_corpus,
                                                           element_norm_reports):
    """Every corpus group within the caps: the report where the case's
    hypotheses hold, and otherwise the bare report, which must stop at the
    same first counterexample (class2 on dihedral-16, for one)."""
    outcomes = Counter()
    for entry in shared_corpus:
        G = entry.presentation
        try:
            try:
                rep = norm_counterexample(G, case)
                holds = True
            except HypothesesUnmet:
                rep = _norm_report(G, case)
                holds = False
        except CapExceeded:
            assert (entry.id, case) not in element_norm_reports
            continue
        assert rep == element_norm_reports[entry.id, case], (entry.id, case)
        outcomes[holds, "pass" if rep[0] is None else "fail"] += 1
    assert outcomes[True, "fail"] == 0
    assert outcomes[True, "pass"] >= 9
    if case != "class3-even":
        assert outcomes[False, "fail"] >= 5


def test_norm_verdict_matches_the_element_sweep_on_the_corpus(shared_corpus,
                                                               element_norm_reports):
    """The walk on A's IGS, and on all of A after a failing generator,
    against the sweep of every a in A, on every (corpus group, case) pair
    within the caps with the hypotheses ignored: the same first
    counterexample and the same tuple count, on a pass and on a fail."""
    groups = {entry.id: entry.presentation for entry in shared_corpus}
    fails = 0
    for (gid, case), report in element_norm_reports.items():
        assert _norm_report(groups[gid], case) == report, (gid, case)
        fails += report[0] is not None
    assert len(element_norm_reports) >= 152
    assert fails >= 25


@pytest.mark.parametrize("case", NORM_CASES)
def test_passing_norm_checks_never_run_the_sweep(case, shared_corpus, element_norm_reports,
                                                 monkeypatch):
    """A passing group never sweeps A: with the walk made to raise on any
    list of elements other than A's IGS, every corpus group whose
    hypotheses hold within the caps still passes, with the element
    sweep's tuple count."""

    walk = cohomology._norm_tuples

    def igs_only(G, case, Z, A, xs, partners, elements):
        if list(elements) != [u.vec for u in A.igs]:
            raise AssertionError("the walk went beyond A's IGS on a passing group")
        return walk(G, case, Z, A, xs, partners, elements)

    monkeypatch.setattr(cohomology, "_norm_tuples", igs_only)
    passed = 0
    for entry in shared_corpus:
        try:
            rep = norm_counterexample(entry.presentation, case)
        except (HypothesesUnmet, CapExceeded):
            continue
        assert rep == element_norm_reports[entry.id, case], (entry.id, case)
        passed += 1
    assert passed >= 9


# UT(4, 2): x1, x2, x3 the transvections e12, e23, e34 and x4, x5, x6
# the commutators e13, e24, e14.  The last column <x3, x5, x6> is abelian
# normal with G/C = UT(3, 2), a dihedral group, so some admissible pairs
# x, y have (xy)^2 outside the centralizer.
UT42 = """group ut-4-2
prime 2
gens 6
order 1 2
order 2 2
order 3 2
order 4 2
order 5 2
order 6 2
conj 2 1 = x2*x4
conj 5 1 = x5*x6
conj 3 2 = x3*x5
conj 4 3 = x4*x6
"""


@pytest.fixture(scope="module")
def ut42():
    from pgforge.core import parse_presentation

    return parse_presentation(UT42)


@pytest.mark.parametrize("case", NORM_CASES)
def test_norm_sweep_matches_the_element_sweep_on_a_dihedral_action(case, ut42):
    G = ut42
    try:
        rep = norm_counterexample(G, case)
    except HypothesesUnmet:
        rep = _norm_report(G, case)
    assert rep == element_norm_sweep(G, case)


# C2 x D16 with the central C2 first: x1 = c, x2 = s, x3 = r, x4 = r^2,
# x5 = r^4.  A = <c, r> is abelian normal and its first IGS entry c is
# central, so only a later entry shows class2's defect r^-2.
C2XD16 = """group c2xd16
prime 2
gens 5
order 1 2
order 2 2
order 3 2
order 4 2
order 5 2
pow 3 = x4
pow 4 = x5
conj 3 2 = x3*x4*x5
conj 4 2 = x4*x5
"""


def test_norm_verdict_reads_every_generator_of_a(monkeypatch):
    """With the family cut down to A = <c, r>, the walk on A's IGS fails
    on r, not on the central first entry, and the counterexample lies in
    the same A."""
    from pgforge.core import parse_presentation

    G = parse_presentation(C2XD16)
    c, r = G.gen(0), G.gen(2)
    A = subgroup_closure(G, [c, r])
    assert A.igs[0] == c and c in center(G) and is_normal(A) and A.is_abelian()
    every = cohomology._norm_conjugators
    monkeypatch.setattr(cohomology, "_norm_conjugators", lambda G, case, caps: (
        entry for entry in every(G, case, caps) if entry[0] == A))
    counterexample, checked = _norm_report(G, "class2")
    assert counterexample["A"] == A.key() and counterexample["a"] not in ((0,) * 5, c.vec)


def test_norm_identity_hypotheses():
    with pytest.raises(HypothesesUnmet):
        norm_counterexample(corpus.dihedral(8).presentation, "pcentral-odd")
    with pytest.raises(HypothesesUnmet):
        norm_counterexample(corpus.extraspecial(3, "p").presentation, "class3-even")
    with pytest.raises(HypothesesUnmet):
        norm_counterexample(corpus.dihedral(16).presentation, "class2")
    with pytest.raises(DomainError):
        norm_counterexample(corpus.dihedral(8).presentation, "bogus")


def test_norm_identity_abelian_defect_trivial():
    """For abelian groups the norm is exactly the power, so the class-2
    sweep passes with every defect trivial."""
    counterexample, _ = norm_counterexample(corpus.abelian(3, [1, 1]).presentation,
                                            "class2")
    assert counterexample is None


# -- fixed-point centralizers --------------------------------------------------------


def test_prop35_free_module_shape(d8):
    """The Klein maximal subgroup of the dihedral group with the swap
    action: H0 vanishes, and both subgroups of Q pass the centralizer
    test."""
    klein = [
        S for S in enumerate_subgroups(d8)
        if S.order == 4 and all(x.order() <= 2 for x in S.elements())
    ]
    assert klein
    M = module_of(d8, klein[0])
    assert h0(M) == () and h1(M)[2] == ()
    assert fixed_point_centralizer_mismatch(M) == (None, 2)


def test_prop35_skips_nontrivial_cohomology(d8):
    M = module_of(d8, frattini(d8))
    with pytest.raises(HypothesesUnmet) as exc:
        fixed_point_centralizer_mismatch(M)
    assert exc.value.reason == "not cohomologically trivial"


def test_prop35_skips_the_zero_module(corpus_modules):
    """A = 1 has H0 = 0, but its fixed points are centralized by all of Q:
    every N = 1 module is refused as trivial, not reported as a
    mismatch."""
    zero = [(gid, M) for gid, M in corpus_modules if M.N.is_trivial()]
    assert len(zero) == 38
    for gid, M in zero:
        with pytest.raises(HypothesesUnmet) as exc:
            fixed_point_centralizer_mismatch(M)
        assert exc.value.reason == "trivial module", gid


# -- nonvanishing ---------------------------------------------------------------------


def test_nonvanishing_extraspecial(es27):
    i0, i1 = h0_h1(es27, center(es27))
    assert i0 == (3,) and i1 != ()


def test_nonvanishing_d8(d8):
    i0, i1 = h0_h1(d8, frattini(d8))
    assert i0 == (2,) and i1 != ()


def test_nonvanishing_skips_cyclic_quotient(g64_pres):
    b = g64_pres.gen(1)
    N = subgroup_closure(g64_pres, [b])  # G/<b> is cyclic
    with pytest.raises(HypothesesUnmet, match="cyclic"):
        h0_h1(g64_pres, N)


def test_nonvanishing_skips_trivial_n(d8):
    from pgforge.subgroups import trivial_subgroup

    with pytest.raises(HypothesesUnmet):
        h0_h1(d8, trivial_subgroup(d8))


def test_degree_consistency_on_all_modules(small_corpus):
    """Vanishing in degree zero and in degree one agree, module by
    module, including modules outside the nonvanishing hypotheses."""
    for entry in small_corpus:
        G = entry.presentation
        if G.order > 2 ** 5:
            continue
        for N in enumerate_normal_subgroups(G):
            if N.is_trivial():
                continue
            M = module_of(G, N)
            assert (h0(M) == ()) == (h1(M)[2] == ())


# -- cocycle exponent -------------------------------------------------------------------


def test_cocycle_exponent_extraspecial():
    for entry in (corpus.extraspecial(3, "p"), corpus.extraspecial(3, "p2")):
        assert check_lemma_3_7(entry, DEFAULT_CAPS) == ("pass", {"z1_size": 9})


def test_cocycle_exponent_skips_p2():
    with pytest.raises(HypothesesUnmet, match="odd p required"):
        check_lemma_3_7(corpus.dihedral(8), DEFAULT_CAPS)
