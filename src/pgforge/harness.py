"""Theorem-check registry, runners, and JSON reporting.

Each check id maps one verifiable claim to an executable test over a
corpus entry.  A check returns ("pass", witness) or ("fail",
counterexample), skips by raising HypothesesUnmet with the unmet
hypothesis (its own cap pre-checks included), and lets the library's
CapExceeded propagate.  `run_check` alone turns those outcomes into the
statuses pass, fail, skip and refused.  Results are canonically ordered
so reports are stable across runs and schedules; timings are
informational and excluded from stability comparisons.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from pgforge import cohomology, structure
from pgforge.autos import (
    central_socle_automorphisms,
    cohomological_witness,
    commutator_image,
    coset_shift_scan,
    first_noninner,
    generates,
    inner_automorphism,
    liebeck_sigma,
    powerful_quotient_witness,
    search_order_p_automorphisms,
)
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import p_valuation
from pgforge.corpus import builtin_corpus
from pgforge.errors import CapExceeded, DomainError, HypothesesUnmet
from pgforge.subgroups import enumerate_normal_subgroups, first_outside, subgroup_closure


@dataclass
class CheckResult:
    check_id: str
    group_id: str
    status: str  # pass | fail | skip | refused
    reason: str = ""
    witness: object = None
    counterexample: object = None
    timing_ms: int = 0

    def to_dict(self):
        out = {
            "check_id": self.check_id,
            "group_id": self.group_id,
            "status": self.status,
            "timing_ms": self.timing_ms,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# -- individual checks ---------------------------------------------------------


def check_prop_1_3(entry, caps):
    """For every normal N: the cocycle group and the pointwise-fixing
    automorphism slice biject, and principal cocycles map exactly onto the
    conjugations by Z(N).  The slice is found by its own search, so the
    bridge images of the solved cocycles are compared with it as image
    vectors, without validating each again."""
    G = entry.presentation
    if G.order > caps.bijection:
        raise HypothesesUnmet(f"order {G.order} above the bijection cap {caps.bijection}")
    pairs = 0
    for N in enumerate_normal_subgroups(G, caps):
        M = cohomology.module_of(G, N, caps)
        zs = cohomology.z1(M, caps)
        slice_ = cohomology.c_aut_slice(G, N, caps)
        if len(zs) != len(slice_):
            return ("fail", {"N": N.key(), "z1": len(zs), "slice": len(slice_)})
        if set(cohomology.bridge_vecs(M, zs)) != {a.key() for a in slice_}:
            return ("fail", {"N": N.key(), "mismatch": "bridge image"})
        principal = set(cohomology.bridge_vecs(M, cohomology.b1(M)))
        conj = {inner_automorphism(G, a).key() for a in M.a_elements}
        if principal != conj:
            return ("fail", {"N": N.key(), "mismatch": "principal image"})
        pairs += 1
    return ("pass", {"pairs": pairs})


def check_lemma_2_1(entry, caps):
    """When no noninner automorphism of order p fixes the Frattini
    subgroup pointwise, omega1(Z(G)) lies inside [Z(M), g] for every
    maximal M and g outside it; scan witnesses are cross-validated."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    if G.order > caps.auto_search:
        raise HypothesesUnmet(f"order {G.order} above the search cap")
    phi = structure.frattini(G, caps)
    noninner = first_noninner(G, phi, caps)
    scan = coset_shift_scan(G, caps)
    for (M, g, z, alpha) in scan:
        if alpha.order() != G.prime or not alpha.fixes_pointwise(phi):
            return ("fail", {"scan witness failed validation": z.vec})
    # each record stands for its shift at every g outside M
    triples = sum(G.order - M.order for M, _, _, _ in scan)
    if noninner is not None:
        return ("pass", {"noninner_exists": True, "scan_witnesses": triples})
    # hypothesis holds: the inclusion must be exact everywhere
    if scan:
        return ("fail",
                {"scan found a shift witness but the search found no noninner map": triples})
    om = structure.omega1(structure.center(G, caps), caps)
    for M in structure.maximal_subgroups(G, caps):
        # the image, hence what it misses, is the same for every g outside M
        x = first_outside(G.gens(), M)
        image = commutator_image(G, M, x, caps)
        missing = [z.vec for z in om.elements() if not image.membership(z)]
        if missing:
            return ("fail", {"M": M.key(), "g": x.vec, "outside": missing})
    return ("pass", {"noninner_exists": False, "inclusion": "verified"})


def check_lemma_2_2(entry, caps):
    """The central automorphisms with socle defects fixing the socle form
    a group of size |socle|^rank(G / socle G') whose members all fix the
    Frattini subgroup pointwise.  The constructor builds one member per
    homomorphism G / socle frattini(G) -> socle, which gives that size,
    and verifies that each member is an automorphism fixing the socle and
    the Frattini subgroup pointwise; the first member that is not fails
    the check, with what it broke.  The size is checked against the
    closed formula and a product-and-filter oracle in the test suite."""
    G = entry.presentation
    if G.order > caps.element_sweep:
        raise HypothesesUnmet("above the sweep cap")
    members, _, broken = central_socle_automorphisms(G, caps)
    if broken is not None:
        return ("fail", broken)
    return ("pass", {"size": len(members)})


def check_cor_2_3(entry, caps):
    """Either d(Z_2/Z) = d(Z) * d(G), or the search exhibits a noninner
    order-p automorphism fixing the Frattini subgroup pointwise."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    if G.order > caps.auto_search:
        raise HypothesesUnmet(f"order {G.order} above the search cap")
    ucs = structure.upper_central_series(G, caps)
    Z = ucs[1]
    Z2 = ucs[2] if len(ucs) > 2 else ucs[-1]
    # Z2/Z is abelian: its p-th powers are those of Z2's generators' images
    powers = subgroup_closure(G, list(Z.igs) + [u ** G.prime for u in Z2.igs])
    lhs = p_valuation(Z2.order // powers.order, G.prime)
    rhs = structure.d_abelian(Z, caps) * structure.rank_d(G, caps)
    if lhs == rhs:
        return ("pass", {"d_z2_mod_z": lhs, "product": rhs})
    w = first_noninner(G, structure.frattini(G, caps), caps)
    if w is not None:
        return ("pass", {"d_z2_mod_z": lhs, "product": rhs,
                         "witness": w.to_dict()})
    return ("fail", {"d_z2_mod_z": lhs, "product": rhs,
                     "witness": "none found"})


def check_cor_2_4(entry, caps):
    """Coclass one forces a noninner order-p automorphism fixing the
    Frattini subgroup pointwise; exhibit and validate one."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    n = p_valuation(G.order, G.prime)
    if n <= 2:
        raise HypothesesUnmet("order at most p^2")
    if structure.coclass(G) != 1:
        raise HypothesesUnmet("coclass is not 1")
    if G.order > caps.auto_search:
        raise HypothesesUnmet(f"order {G.order} above the search cap")
    w = first_noninner(G, structure.frattini(G, caps), caps)
    if w is not None:
        return ("pass", w.to_dict())
    return ("fail", {"witness": "none found"})


def check_thm_2_5(entry, caps):
    """Either d(Z)(d(G)+1) <= coclass+1, or a noninner order-p
    automorphism fixing the Frattini subgroup pointwise exists."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    n = p_valuation(G.order, G.prime)
    if n <= 2:
        raise HypothesesUnmet("order at most p^2")
    if G.order > caps.auto_search:
        raise HypothesesUnmet(f"order {G.order} above the search cap")
    ell = structure.d_abelian(structure.center(G, caps), caps)
    d = structure.rank_d(G, caps)
    c = structure.coclass(G)
    if ell * (d + 1) <= c + 1:
        return ("pass", {"bound": f"{ell}*({d}+1) <= {c}+1"})
    w = first_noninner(G, structure.frattini(G, caps), caps)
    if w is not None:
        return ("pass", {"bound_failed": f"{ell}*({d}+1) > {c}+1",
                         "witness": w.to_dict()})
    return ("fail", {"bound_failed": f"{ell}*({d}+1) > {c}+1",
                     "witness": "none found"})


def check_thm_2_6(entry, caps):
    """Nonabelian G with powerful central quotient has a noninner
    automorphism of order p fixing the Frattini subgroup pointwise (odd p,
    or p = 2 with noncyclic center) or fixing omega1(Z(G)) pointwise
    (p = 2, cyclic center)."""
    G = entry.presentation
    w = powerful_quotient_witness(G, caps)
    ok_sets = {"frattini"}
    if G.prime == 2 and structure.d_abelian(structure.center(G, caps), caps) == 1:
        ok_sets.add("omega1-center")
    if w is None:  # the route searched exactly these sets
        return ("fail", {"witness": "none found", "fixed_sets": sorted(ok_sets)})
    if not w.is_noninner or w.order != G.prime or w.fixed_set not in ok_sets:
        return ("fail", w.to_dict())
    return ("pass", w.to_dict())


def check_lemma_2_8(entry, caps):
    """Two-generated class-2 groups: the center is generated by a^k, b^k
    and [a, b] with k the order of [a, b], and d(Z) <= 3."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    if structure.rank_d(G, caps) != 2:
        raise HypothesesUnmet("not 2-generated")
    if structure.nilpotency_class(G) > 2:
        raise HypothesesUnmet("class exceeds 2")
    if G.order > caps.element_sweep:
        raise HypothesesUnmet("above the sweep cap")
    # the pc generators span G/frattini(G), so with d(G) = 2 some two of
    # them form a basis and generate G (Burnside's basis theorem)
    Z = structure.center(G, caps)
    pairs = []
    gens = G.gens()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if generates(G, [gens[i], gens[j]]):
                pairs.append((gens[i], gens[j]))
    for a, b in pairs[:4]:
        k = a.commutator(b).order()
        gen = subgroup_closure(G, [a ** k, b ** k, a.commutator(b)])
        if gen != Z:
            return ("fail", {"a": a.vec, "b": b.vec, "k": k,
                             "generated": gen.key(), "center": Z.key()})
    if structure.d_abelian(Z, caps) > 3:
        return ("fail", {"d_center": structure.d_abelian(Z, caps)})
    return ("pass", {"pairs_checked": min(len(pairs), 4)})


def check_thm_2_9(entry, caps):
    """Class 3, 2-generated central quotient, noncyclic center: a noninner
    order-p automorphism fixing the Frattini subgroup pointwise exists."""
    G = entry.presentation
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    if structure.nilpotency_class(G) != 3:
        raise HypothesesUnmet("class is not 3")
    cq = structure.central_quotient(G, caps)
    if structure.rank_d(cq, caps) != 2:
        raise HypothesesUnmet("central quotient not 2-generated")
    if structure.d_abelian(structure.center(G, caps), caps) == 1:
        raise HypothesesUnmet("center is cyclic")
    if G.order > caps.auto_search:
        raise HypothesesUnmet(f"order {G.order} above the search cap")
    w = first_noninner(G, structure.frattini(G, caps), caps)
    if w is not None:
        return ("pass", w.to_dict())
    return ("fail", {"witness": "none found"})


def _norm_check(case):
    def run(entry, caps):
        G = entry.presentation
        if G.order > caps.element_sweep or G.order > caps.subgroup_enum:
            raise HypothesesUnmet("above the sweep cap")
        counterexample, checked = cohomology.norm_counterexample(G, case, caps)
        if counterexample is not None:
            return ("fail", counterexample)
        return ("pass", {"tuples_checked": checked})

    return run


def check_prop_3_5(entry, caps):
    """Every center module with vanishing degree-zero cohomology has
    fixed-point centralizers equal to the acting subgroup; a module above
    the cohomology cap or with H0 nonzero is counted and passed over."""
    G = entry.presentation
    if G.order > caps.subgroup_enum:
        raise HypothesesUnmet("above the enumeration cap")
    verified = 0
    skipped = 0
    for N in enumerate_normal_subgroups(G, caps):
        if N.is_trivial():
            continue
        try:
            M = cohomology.module_of(G, N, caps)
            mismatch, _ = cohomology.fixed_point_centralizer_mismatch(M, caps)
        except (HypothesesUnmet, CapExceeded):
            skipped += 1
            continue
        if mismatch is not None:
            return ("fail", {"N": N.key(), **mismatch})
        verified += 1
    return ("pass", {"modules_verified": verified,
                     "not_cohomologically_trivial": skipped})


def check_thm_3_6(entry, caps):
    """For every nontrivial normal N with noncyclic quotient, both H0 and
    H1 of the center module are nonzero."""
    G = entry.presentation
    cohomology.nonvanishing_hypothesis(G, caps)
    if G.order > caps.subgroup_enum:
        raise HypothesesUnmet("above the enumeration cap")
    modules = 0
    for N in enumerate_normal_subgroups(G, caps):
        try:
            i0, i1 = cohomology.h0_h1(G, N, caps)
        except (HypothesesUnmet, CapExceeded):
            continue
        if i0 == () or i1 == ():
            return ("fail", {"N": N.key(), "h0": list(i0), "h1": list(i1)})
        modules += 1
    if modules == 0:
        raise HypothesesUnmet("no admissible normal subgroup")
    return ("pass", {"modules": modules})


def check_lemma_3_7(entry, caps):
    """For odd p with G/Z(G) p-central, every crossed homomorphism of
    G/frattini into Z(frattini) has order dividing p."""
    G = entry.presentation
    p = G.prime
    if p == 2:
        raise HypothesesUnmet("odd p required")
    if not structure.is_p_central(structure.central_quotient(G, caps), caps):
        raise HypothesesUnmet("central quotient not p-central")
    M = cohomology.module_of(G, structure.frattini(G, caps), caps)
    zs = cohomology.z1(M, caps)
    for f in zs:
        if not f.power(p).is_trivial():
            return ("fail", {"values": [list(v.vec) for v in f.values]})
    return ("pass", {"z1_size": len(zs)})


def check_second_proof(entry, caps):
    """The cohomological route and the direct construction agree in
    existence; the route's witness is validated."""
    G = entry.presentation
    w = cohomological_witness(G, caps)
    if isinstance(w, dict):
        return ("fail", w)
    if not w.is_noninner or w.order != G.prime:
        return ("fail", w.to_dict())
    direct = powerful_quotient_witness(G, caps)
    if direct is None or not direct.is_noninner:
        return ("fail", {"direct construction disagreed":
                         direct.path if direct else "none found"})
    return ("pass", w.to_dict())


def check_liebeck(entry, caps):
    """The order-128 fixture: the order-2 automorphisms fixing the
    Frattini subgroup pointwise are exactly the three sigma shifts, all
    inner."""
    G = entry.presentation
    if G.order != 128 or entry.id != "liebeck128":
        raise HypothesesUnmet("only the order-128 fixture")
    phi = structure.frattini(G, caps)
    ws = search_order_p_automorphisms(G, phi, caps)
    sigmas = {liebeck_sigma(G, r, s).key()
              for (r, s) in ((0, 1), (1, 0), (1, 1))}
    found = {w.automorphism.key() for w in ws}
    if found != sigmas:
        return ("fail", {"found": sorted(found), "expected": sorted(sigmas)})
    if any(w.is_noninner for w in ws):
        return ("fail", {"noninner sigma": True})
    return ("pass", {"count": len(ws)})


CHECKS = {
    "prop-1.3": (check_prop_1_3,
                 "cocycle group bijects with the pointwise-fixing automorphism slice"),
    "lemma-2.1": (check_lemma_2_1,
                  "no noninner Frattini-fixing map forces the socle inside every [Z(M), g]"),
    "lemma-2.2": (check_lemma_2_2,
                  "central socle automorphism count and Frattini fixing"),
    "cor-2.3": (check_cor_2_3,
                "second-center rank product or an exhibited noninner witness"),
    "cor-2.4": (check_cor_2_4,
                "coclass one yields a noninner order-p witness fixing Frattini"),
    "thm-2.5": (check_thm_2_5,
                "coclass bound or an exhibited noninner witness"),
    "thm-2.6": (check_thm_2_6,
                "powerful central quotient yields a validated noninner witness"),
    "lemma-2.8": (check_lemma_2_8,
                  "two-generator class-2 center generation and rank bound"),
    "thm-2.9": (check_thm_2_9,
                "class-3 with 2-generated central quotient and noncyclic center"),
    "lemma-3.1": (_norm_check("pcentral-odd"),
                  "norm identity, odd p with p-central central quotient"),
    "lemma-3.2": (_norm_check("class3-odd"),
                  "norm identity, odd p, class at most 3"),
    "lemma-3.3": (_norm_check("class3-even"),
                  "norm identity, p = 2, class at most 3"),
    "lemma-3.4": (_norm_check("class2"),
                  "norm identity, class at most 2"),
    "prop-3.5": (check_prop_3_5,
                 "fixed-point centralizers for cohomologically trivial modules"),
    "thm-3.6": (check_thm_3_6,
                "H0 and H1 nonvanishing over all admissible normal subgroups"),
    "lemma-3.7": (check_lemma_3_7,
                  "cocycle group of the Frattini module is elementary abelian"),
    "second-proof": (check_second_proof,
                     "cohomological witness route agrees with the direct construction"),
    "liebeck-sigma": (check_liebeck,
                      "order-128 fixture: Frattini-fixing involutions are the sigma shifts"),
}


def run_check(check_id, entries=None, caps=DEFAULT_CAPS, group_id=None):
    if check_id not in CHECKS:
        raise DomainError(f"unknown check id {check_id!r}")
    entries = entries if entries is not None else builtin_corpus()
    if group_id is not None:
        entries = [e for e in entries if e.id == group_id]
        if not entries:
            raise DomainError(f"no corpus entry named {group_id!r}")
    fn, _ = CHECKS[check_id]
    results = []
    for entry in sorted(entries, key=lambda e: e.id):
        t0 = time.perf_counter()
        reason, witness, counterexample = "", None, None
        try:
            status, payload = fn(entry, caps)
        except CapExceeded as e:
            status, reason = "refused", str(e)
        except HypothesesUnmet as e:
            status, reason = "skip", e.reason
        else:
            if status == "pass":
                witness = payload
            else:
                counterexample = payload
        ms = int((time.perf_counter() - t0) * 1000)
        results.append(
            CheckResult(check_id, entry.id, status, reason, witness,
                        counterexample, ms)
        )
    return results


def run_all(entries=None, caps=DEFAULT_CAPS, check_ids=None):
    entries = entries if entries is not None else builtin_corpus()
    ids = sorted(check_ids if check_ids is not None else CHECKS)
    results = []
    for cid in ids:
        results.extend(run_check(cid, entries, caps))
    results.sort(key=lambda r: (r.check_id, r.group_id))
    return results


def report_dict(results, caps=DEFAULT_CAPS):
    from pgforge.kernel import BACKEND

    summary = {"pass": 0, "fail": 0, "skip": 0, "refused": 0}
    for r in results:
        summary[r.status] += 1
    return {
        "schema": "forge-report/1",
        "kernel_backend": BACKEND,
        "caps": asdict(caps),
        "results": [r.to_dict() for r in results],
        "summary": summary,
        "exit_code": exit_code(results),
    }


def exit_code(results) -> int:
    if any(r.status == "fail" for r in results):
        return 1
    if any(r.status == "refused" for r in results):
        return 2
    return 0


def report_json(results, caps=DEFAULT_CAPS, strip_timing=False) -> str:
    doc = report_dict(results, caps)
    if strip_timing:
        for r in doc["results"]:
            r["timing_ms"] = 0
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
