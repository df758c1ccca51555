"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import pytest

from pgforge import corpus
from pgforge.autos import (
    is_inner,
    liebeck_sigma,
    search_order_p_automorphisms,
    validation_error,
)
from pgforge.caps import DEFAULT_CAPS
from pgforge.cohomology import (
    b1,
    bridge_vecs,
    c_aut_slice,
    h0,
    h1,
    module_of,
    norm_counterexample,
    z1,
)
from pgforge.core import Element, kernel
from pgforge.errors import HypothesesUnmet
from pgforge.harness import run_check
from pgforge.structure import (
    abelian_invariants,
    center,
    central_quotient,
    derived_subgroup,
    exponent,
    frattini,
    is_abelian,
    is_p_central,
    maximal_subgroups,
    nilpotency_class,
    omega1,
    rank_d,
    subgroup_closure,
)
from pgforge.subgroups import (
    enumerate_normal_subgroups,
    enumerate_subgroups,
    full_subgroup,
    quotient,
)


def announce(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def entries():
    return corpus.builtin_corpus()


def test_criterion_1_g64_frattini_fixers_inner():
    t0 = time.time()
    G = corpus.g64().presentation
    ws = search_order_p_automorphisms(G, frattini(G))
    elapsed = time.time() - t0
    ok = len(ws) > 0 and all(not w.is_noninner for w in ws) and elapsed < 60
    announce(1, ok, elapsed, f"{len(ws)} order-2 fixers, all inner")


def test_criterion_2_liebeck_sigma_set():
    t0 = time.time()
    G = corpus.liebeck128().presentation
    ws = search_order_p_automorphisms(G, frattini(G))
    sigmas = {
        liebeck_sigma(G, r, s).key() for (r, s) in ((0, 1), (1, 0), (1, 1))
    }
    found = {w.automorphism.key() for w in ws}
    elapsed = time.time() - t0
    ok = found == sigmas and all(not w.is_noninner for w in ws) and elapsed < 300
    announce(2, ok, elapsed, f"set of {len(found)} matches the sigma family")


def test_criterion_3_metacyclic_fixtures():
    t0 = time.time()
    ok = True
    details = []
    for (r, s, t) in [(2, 2, 2), (3, 2, 2), (3, 3, 2)]:
        t1 = time.time()
        G = corpus.metacyclic(r, s, t).presentation
        a, b = G.gens()
        zp = 2 ** s
        der = derived_subgroup(G)
        ab_inv = abelian_invariants(
            full_subgroup(quotient(G, der).presentation()[0])
        )
        checks = [
            G.order == 2 ** (r + s + t),
            exponent(G) == 2 ** (r + t),
            a.order() == 2 ** (r + t),
            b.order() == 2 ** (s + t),
            center(G) == subgroup_closure(G, [a ** zp, b ** zp]),
            ab_inv == sorted([2 ** r, 2 ** t], reverse=True),
        ]
        per = time.time() - t1
        ok = ok and all(checks) and per < 1.0
        details.append(f"({r},{s},{t}):{per:.2f}s")
    announce(3, ok, time.time() - t0, " ".join(details))


def test_criterion_4_coclass_one_witnesses():
    t0 = time.time()
    ok = True
    found = []
    for ctor, orders in [
        (corpus.dihedral, (8, 16, 32)),
        (corpus.quaternion, (8, 16, 32)),
        (corpus.semidihedral, (16, 32)),
    ]:
        for n in orders:
            G = ctor(n).presentation
            ws = [
                w for w in search_order_p_automorphisms(G, frattini(G))
                if w.is_noninner
            ]
            if not ws:
                ok = False
                found.append(f"{ctor.__name__}-{n}:none")
                continue
            w = ws[0]
            valid = (
                w.order == 2
                and validation_error(G, w.automorphism.images) is None
                and w.automorphism.fixes_pointwise(frattini(G))
                and is_inner(G, w.automorphism) is None
            )
            ok = ok and valid
            found.append(f"{ctor.__name__}-{n}:{len(ws)}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    announce(4, ok, elapsed, " ".join(found))


def test_criterion_5_nonvanishing_exhaustive(entries):
    t0 = time.time()
    modules = 0
    ok = True
    consistency_pairs = []
    for entry in entries:
        G = entry.presentation
        p = G.prime
        if p == 2:
            if G.order > 2 ** 6 or nilpotency_class(G) > 2:
                continue
        elif p == 3:
            if G.order > 3 ** 4:
                continue
            cq = central_quotient(G)
            hyp1 = nilpotency_class(cq) <= 2 or is_p_central(cq)
            hyp2 = nilpotency_class(G) <= 2
            if not (hyp1 or hyp2):
                continue
        else:
            continue
        for N in enumerate_normal_subgroups(G):
            if N.is_trivial() or quotient(G, N).is_cyclic():
                continue
            M = module_of(G, N)
            i0, i1 = h0(M), h1(M)[2]
            consistency_pairs.append((i0 == (), i1 == ()))
            if i0 == () or i1 == ():
                ok = False
            modules += 1
    ok = ok and all(a == b for a, b in consistency_pairs)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    announce(5, ok, elapsed, f"{modules} modules, zero exceptions")


def test_criterion_6_bijection(entries):
    t0 = time.time()
    from pgforge.autos import inner_automorphism
    from pgforge.structure import center_of_subgroup

    pairs = 0
    ok = True
    for entry in entries:
        G = entry.presentation
        if G.order > 32:
            continue
        for N in enumerate_normal_subgroups(G):
            M = module_of(G, N)
            zs = z1(M)
            slice_ = c_aut_slice(G, N)
            if len(zs) != len(slice_):
                ok = False
            principal = set(bridge_vecs(M, b1(M)))
            zn = center_of_subgroup(G, N)
            conj = {inner_automorphism(G, z).key() for z in zn.elements()}
            if principal != conj:
                ok = False
            pairs += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    announce(6, ok, elapsed, f"{pairs} (G, N) pairs, exact")


def test_criterion_7_norm_identity_sweeps(entries):
    t0 = time.time()
    ok = True
    ran = 0
    for entry in entries:
        G = entry.presentation
        if G.order > DEFAULT_CAPS.subgroup_enum:
            continue
        for case in ("pcentral-odd", "class3-odd", "class3-even", "class2"):
            try:
                counterexample, _ = norm_counterexample(G, case)
            except HypothesesUnmet:
                continue
            if counterexample is not None:
                ok = False
            ran += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    announce(7, ok, elapsed, f"{ran} sweeps, zero exceptions")


def test_criterion_8_cocycle_exponent(entries):
    t0 = time.time()
    ok = True
    ran = 0
    for entry in entries:
        G = entry.presentation
        if G.prime != 3:
            continue
        (r,) = run_check("lemma-3.7", [entry])
        if r.status == "skip":
            continue
        if r.status != "pass":
            ok = False
        ran += 1
    elapsed = time.time() - t0
    ok = ok and ran > 0
    announce(8, ok, elapsed, f"{ran} groups, exponent divides 3")


def test_criterion_9_contrapositive_suite(entries):
    t0 = time.time()
    in_scope = [e for e in entries if e.presentation.order <= 2 ** 7]
    ok = True
    unexplained = []
    for cid in ("cor-2.3", "thm-2.5", "thm-2.9"):
        for r in run_check(cid, in_scope):
            if r.status == "fail":
                ok = False
                unexplained.append((cid, r.group_id))
            elif r.status not in ("pass", "skip"):
                ok = False
                unexplained.append((cid, r.group_id, r.status))
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    announce(9, ok, elapsed, f"{len(in_scope)} groups x 3 checks, "
             f"unexplained={unexplained}")


def test_criterion_10_infrastructure(entries):
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    triples = 0
    for entry in entries:
        P = entry.presentation
        t = P._tables
        if P.n_gens == 0:
            continue
        # collection associativity on 10^4 random triples
        vecs = [
            tuple(rng.randrange(m) for m in P.rel_orders) for _ in range(60)
        ]
        for _ in range(10_000):
            x, y, z = rng.choice(vecs), rng.choice(vecs), rng.choice(vecs)
            if kernel.mul(t, kernel.mul(t, x, y), z) != kernel.mul(
                t, x, kernel.mul(t, y, z)
            ):
                ok = False
            triples += 1
        # consistency holds and the order is the product of relative orders
        if P.consistency_check() != []:
            ok = False
        prod = 1
        for m in P.rel_orders:
            prod *= m
        if prod != P.order:
            ok = False
        if P.order <= 2 ** 6:
            distinct = {v for v in itertools.product(*(range(m) for m in P.rel_orders))}
            if len(distinct) != P.order:
                ok = False
        # frattini equals the intersection of the maximal subgroups
        if P.order <= 2 ** 7:
            phi = frattini(P)
            maxes = maximal_subgroups(P)
            common = [
                x for x in P.elements() if all(M.membership(x) for M in maxes)
            ]
            if subgroup_closure(P, common) != phi:
                ok = False
        # stripping membership agrees with enumeration membership
        if P.order <= 2 ** 6:
            els = list(P.elements())
            for S in enumerate_subgroups(P):
                inside = {x.vec for x in S.elements()}
                for x in els:
                    if S.membership(x) != (x.vec in inside):
                        ok = False
    elapsed = time.time() - t0
    announce(10, ok, elapsed, f"{triples} associativity triples + invariants")
