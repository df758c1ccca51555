import hashlib
import json

import pytest

from pgforge.caps import DEFAULT_CAPS, DeskCaps
from pgforge.errors import DomainError
from pgforge.harness import (
    CHECKS,
    exit_code,
    report_dict,
    report_json,
    run_all,
    run_check,
)
from pgforge import corpus

from oracles import element_inclusion_failure


@pytest.fixture(scope="module")
def mini_corpus():
    return [
        corpus.dihedral(8),
        corpus.quaternion(8),
        corpus.extraspecial(3, "p"),
        corpus.abelian(2, [2, 1]),
    ]


def test_registry_covers_the_claim_list():
    expected = {
        "prop-1.3", "lemma-2.1", "lemma-2.2", "cor-2.3", "cor-2.4",
        "thm-2.5", "thm-2.6", "lemma-2.8", "thm-2.9",
        "lemma-3.1", "lemma-3.2", "lemma-3.3", "lemma-3.4",
        "prop-3.5", "thm-3.6", "lemma-3.7", "second-proof",
    }
    assert expected <= set(CHECKS)
    for cid, (fn, desc) in CHECKS.items():
        assert desc  # every check carries a description


def test_unknown_check_id():
    with pytest.raises(DomainError, match="unknown check id"):
        run_check("lemma-9.9")


def test_unknown_group_id(mini_corpus):
    with pytest.raises(DomainError, match="no corpus entry"):
        run_check("cor-2.4", mini_corpus, group_id="nope")


def test_cor_2_4_dihedral_passes(mini_corpus):
    rs = run_check("cor-2.4", mini_corpus, group_id="dihedral-8")
    assert len(rs) == 1
    r = rs[0]
    assert r.status == "pass"
    assert r.witness["inner"] is None
    assert r.witness["order"] == 2
    assert r.witness["fixed_set"] == "frattini"


def test_thm_2_5_skips_abelian(mini_corpus):
    rs = run_check("thm-2.5", mini_corpus, group_id="abelian-2-2_1")
    assert rs[0].status == "skip"
    assert rs[0].reason == "abelian"


def test_thm_3_6_mini(mini_corpus):
    rs = run_check("thm-3.6", mini_corpus)
    by_id = {r.group_id: r for r in rs}
    assert by_id["dihedral-8"].status == "pass"
    assert by_id["extraspecial-3-exp3"].status == "pass"
    assert by_id["abelian-2-2_1"].status == "pass"


def test_skip_reasons_are_named(mini_corpus):
    rs = run_all(mini_corpus, check_ids=["lemma-3.1", "thm-2.9", "lemma-3.7"])
    for r in rs:
        if r.status == "skip":
            assert r.reason


def test_results_sorted_canonically(mini_corpus):
    rs = run_all(mini_corpus, check_ids=["cor-2.4", "cor-2.3"])
    keys = [(r.check_id, r.group_id) for r in rs]
    assert keys == sorted(keys)


def test_report_stable_modulo_timing(mini_corpus):
    ids = ["cor-2.4", "lemma-2.8", "thm-3.6"]
    a = report_json(run_all(mini_corpus, check_ids=ids), strip_timing=True)
    b = report_json(run_all(mini_corpus, check_ids=ids), strip_timing=True)
    assert a == b


def test_report_schema(mini_corpus):
    rs = run_check("cor-2.4", mini_corpus)
    doc = report_dict(rs)
    assert doc["schema"] == "forge-report/1"
    assert set(doc["summary"]) == {"pass", "fail", "skip", "refused"}
    for r in doc["results"]:
        assert {"check_id", "group_id", "status", "timing_ms"} <= set(r)
        assert r["status"] in ("pass", "fail", "skip", "refused")
    json.dumps(doc)  # serializable


def test_exit_codes(mini_corpus):
    rs = run_check("cor-2.4", mini_corpus)
    assert exit_code(rs) == 0
    from pgforge.harness import CheckResult

    assert exit_code([CheckResult("x", "y", "fail")]) == 1
    assert exit_code([CheckResult("x", "y", "refused")]) == 2
    assert exit_code([CheckResult("x", "y", "skip")]) == 0


def test_lowered_cap_refuses(mini_corpus):
    caps = DeskCaps(element_sweep=4, subgroup_enum=4, auto_search=4, cohomology=4)
    rs = run_check("prop-3.5", mini_corpus, caps, group_id="dihedral-8")
    assert rs[0].status in ("refused", "skip")
    rs = run_check("lemma-2.2", mini_corpus, caps, group_id="dihedral-8")
    assert rs[0].status in ("refused", "skip")


def test_empty_corpus():
    rs = run_all([], check_ids=["cor-2.4"])
    assert rs == []
    assert exit_code(rs) == 0


def test_second_proof_agreement():
    entries = [corpus.extraspecial(3, "p"), corpus.g243()]
    rs = run_check("second-proof", entries)
    assert all(r.status == "pass" for r in rs)
    by_id = {r.group_id: r for r in rs}
    assert by_id["g243"].witness["path"] == "cocycle-bridge"
    assert by_id["extraspecial-3-exp3"].witness["path"] == "ds-fallback-search"


def test_thm_2_9_fires_on_class3_noncyclic_center():
    rs = run_check("thm-2.9", [corpus.dihedral16_x_c2()])
    assert rs[0].status == "pass"
    assert rs[0].witness["inner"] is None


def test_liebeck_check():
    rs = run_check("liebeck-sigma", [corpus.liebeck128()])
    assert rs[0].status == "pass"
    assert rs[0].witness["count"] == 3


def test_lemma_2_1_inclusion_loop_matches_the_element_loop(monkeypatch):
    """With the search and the scan stubbed to find nothing, the check
    runs its inclusion loop on every nonabelian corpus group within the
    search cap; where the real scan has witnesses the loop must report
    the same first (M, g) and missing elements as the Element loop."""
    from pgforge import harness
    from pgforge.structure import is_abelian

    monkeypatch.setattr(harness, "first_noninner", lambda G, fixed, caps: None)
    monkeypatch.setattr(harness, "coset_shift_scan", lambda G, caps: [])
    failures = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.auto_search or is_abelian(G):
            continue
        outcome = harness.check_lemma_2_1(entry, DEFAULT_CAPS)
        want = element_inclusion_failure(G)
        if want is None:
            assert outcome == ("pass", {"noninner_exists": False,
                                        "inclusion": "verified"}), entry.id
        else:
            assert outcome == ("fail", want), entry.id
            failures += 1
    assert failures >= 3


def test_lemma_2_1_orders_each_distinct_map_once(monkeypatch):
    """The scan holds one record per distinct map, and the check computes
    the order of each once: 30 over the corpus.  The records stand for
    660 triples (M, g, z), which the check reports as its scan
    witnesses."""
    from pgforge import harness
    from pgforge.autos import Automorphism, coset_shift_scan
    from pgforge.structure import is_abelian

    ordered = []
    order = Automorphism.order
    records = distinct = triples = 0
    for entry in corpus.builtin_corpus(validate=False):
        G = entry.presentation
        if G.order > DEFAULT_CAPS.auto_search or is_abelian(G):
            continue
        scan = coset_shift_scan(G, DEFAULT_CAPS)
        records += len(scan)
        distinct += len({alpha.key() for _, _, _, alpha in scan})
        with monkeypatch.context() as m:
            m.setattr(harness, "coset_shift_scan", lambda G, caps: scan)
            m.setattr(Automorphism, "order",
                      lambda self, *args: ordered.append(self) or order(self, *args))
            status, witness = harness.check_lemma_2_1(entry, DEFAULT_CAPS)
        assert status == "pass", entry.id
        triples += witness.get("scan_witnesses", 0)
    assert len(ordered) == records == distinct == 30
    assert triples == 660


def test_thm_3_6_builds_one_quotient_test_per_normal_subgroup(monkeypatch):
    """The check asks `h0_h1` about every normal N, which
    refuses the trivial one before building G/N and tests each other
    quotient for cyclicity once: 361 tests over the built-in corpus."""
    from pgforge.subgroups import QuotientGroup

    calls = []
    is_cyclic = QuotientGroup.is_cyclic

    def counted(self):
        calls.append(self)
        return is_cyclic(self)

    monkeypatch.setattr(QuotientGroup, "is_cyclic", counted)
    run_check("thm-3.6", corpus.builtin_corpus())
    assert len(calls) == 361


def test_second_proof_builds_one_module(monkeypatch):
    """The cohomological route builds the Frattini module of its one
    group on that path (g243) once, and reads H0, Z1, B1 and H1 from it."""
    from pgforge.cohomology import GModule

    calls = []
    init = GModule.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GModule, "__init__", counted)
    rs = run_check("second-proof", corpus.builtin_corpus())
    bridged = [r.group_id for r in rs
               if r.witness and r.witness["path"] == "cocycle-bridge"]
    assert bridged == ["g243"]
    assert len(calls) == 1


# sha256 of the verify-all report with every group-order cap set to 8,
# 16, 64 and 1024, `timing_ms` set to 0 and `kernel_backend` set to "any",
# as in tests/test_cli.py: these pin the refusals (70, 57 and 27, all of
# the element sweep, and none at 1024) with their reasons, and the verdicts
# left within the caps.  At 1024 every corpus group runs the automorphism
# search, the prop-1.3 slice and the lattice.
@pytest.mark.parametrize("cap,refused,digest", [
    (8, 70, "6b1fb1c6d9111cd1807132be2c5926ef5fa2cd72319c949de9ab540071793fd7"),
    (16, 57, "d5e60c2c574972548551ae8870c44b2fb0d1ddec0fd9490b7ebc6b7ddcc4e5b9"),
    (64, 27, "329df9dc3febf8c3ee49406998581edda1fc577140725449ea2934995d474e50"),
    (1024, 0, "1216f926ac73a171df588506513d164c1e2ccc39214352505aee2303a49856e4"),
], ids=["cap-8", "cap-16", "cap-64", "cap-1024"])
def test_lowered_cap_reports_are_pinned(cap, refused, digest):
    caps = DEFAULT_CAPS.with_override(cap)
    doc = report_dict(run_all(caps=caps), caps)
    assert doc["summary"]["refused"] == refused
    for r in doc["results"]:
        r["timing_ms"] = 0
    doc["kernel_backend"] = "any"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the cohomology checks' fail paths ----------------------------------------
#
# No corpus group fails these checks, so each test stubs one library call
# and pins the status and payload that the check reports.


def test_norm_checks_report_the_first_counterexample(monkeypatch):
    """With the center stubbed trivial, only a trivial defect passes:
    class2 then fails on the extraspecial group and Q8, and class3-even
    on dihedral-16, at the sweep's first (A, a, g, n) or (A, a, x, y)."""
    from pgforge import structure
    from pgforge.subgroups import trivial_subgroup

    monkeypatch.setattr(structure, "center",
                        lambda G, caps=DEFAULT_CAPS: trivial_subgroup(G))
    es27, d16, q8 = corpus.extraspecial(3, "p"), corpus.dihedral(16), corpus.quaternion(8)
    by_id = {r.group_id: r for r in run_check("lemma-3.4", [es27, d16, q8])}
    assert by_id["dihedral-16"].reason == "class exceeds 2"
    assert by_id["extraspecial-3-exp3"].status == "fail"
    assert by_id["extraspecial-3-exp3"].counterexample == {
        "A": ((0, 1, 0), (0, 0, 1)), "a": (0, 1, 0), "g": (1, 0, 0), "n": 2,
        "defect": (0, 0, 1)}
    assert by_id["quaternion-8"].status == "fail"
    assert by_id["quaternion-8"].counterexample == {
        "A": ((0, 1),), "a": (0, 1), "g": (1, 0), "n": 2, "defect": (0, 2)}
    (r,) = run_check("lemma-3.3", [d16])
    assert r.status == "fail"
    assert r.counterexample == {
        "A": ((0, 1),), "a": (0, 1), "x": (0, 0), "y": (1, 0), "defect": (0, 4)}


def test_prop_3_5_reports_the_first_centralizer_mismatch(monkeypatch):
    """With H0 stubbed to vanish, the Frattini module of D8 and the
    center module of the extraspecial group count as cohomologically
    trivial, and the trivial H has all of Q as its centralizer."""
    from pgforge import cohomology

    monkeypatch.setattr(cohomology, "h0", lambda M: ())
    rs = run_check("prop-3.5", [corpus.dihedral(8), corpus.extraspecial(3, "p")])
    assert [(r.group_id, r.status) for r in rs] == [
        ("dihedral-8", "fail"), ("extraspecial-3-exp3", "fail")]
    assert rs[0].counterexample == {
        "N": ((0, 2),), "H": [(0, 0)],
        "centralizer": [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert rs[1].counterexample == {
        "N": ((0, 0, 1),), "H": [(0, 0, 0)],
        "centralizer": [(a, b, 0) for a in range(3) for b in range(3)]}


def test_prop_1_3_lists_both_sides_only_where_the_route_declines(monkeypatch, mini_corpus):
    """With the route stubbed to decline, the listing decides every N and
    gives the same report; with a slice member dropped as well, the check
    fails with the listing's payload at the first N whose slice has more
    than one member.  Unstubbed, the listing is never reached."""
    from pgforge import cohomology, harness

    unstubbed = [(r.status, r.witness) for r in run_check("prop-1.3", mini_corpus)]
    monkeypatch.setattr(cohomology, "slice_is_bridge_image", lambda M, caps=DEFAULT_CAPS: False)
    assert [(r.status, r.witness) for r in run_check("prop-1.3", mini_corpus)] == unstubbed
    searched = cohomology.c_aut_slice

    def one_member_short(G, N, caps=DEFAULT_CAPS):
        members = searched(G, N, caps)
        return members[:-1] if len(members) > 1 else members

    monkeypatch.setattr(cohomology, "c_aut_slice", one_member_short)
    rs = run_check("prop-1.3", [corpus.dihedral(8), corpus.extraspecial(3, "p")])
    assert [r.counterexample for r in rs] == [
        {"N": ((0, 2),), "z1": 4, "slice": 3},
        {"N": ((0, 0, 1),), "z1": 9, "slice": 8}]
    monkeypatch.undo()

    def unreachable(*args):
        raise AssertionError("the route declined")

    monkeypatch.setattr(harness, "_listed_prop_1_3", unreachable)
    assert [(r.status, r.witness) for r in run_check("prop-1.3", mini_corpus)] == unstubbed


@pytest.mark.parametrize("stub,h0,h1", [
    ("h0", ([], []), ([2, 2], [3, 3])),
    ("h1", ([2], [3]), ([], [])),
])
def test_thm_3_6_fails_when_either_degree_vanishes(monkeypatch, stub, h0, h1):
    """With H0 or H1 stubbed to vanish, the check fails at the first
    admissible N with both invariant-factor lists."""
    from pgforge import cohomology

    if stub == "h0":
        monkeypatch.setattr(cohomology, "h0", lambda M: ())
    else:
        monkeypatch.setattr(cohomology, "h1", lambda M: (1, 1, ()))
    rs = run_check("thm-3.6", [corpus.dihedral(8), corpus.extraspecial(3, "p")])
    assert [r.status for r in rs] == ["fail", "fail"]
    assert [r.counterexample for r in rs] == [
        {"N": ((0, 2),), "h0": h0[0], "h1": h1[0]},
        {"N": ((0, 0, 1),), "h0": h0[1], "h1": h1[1]},
    ]


def test_lemma_3_7_reports_a_cocycle_of_order_p_squared(monkeypatch):
    """A table with every value an element of order 9 appended to Z1 of
    the exponent-9 extraspecial group's Frattini module."""
    from pgforge import cohomology

    solve = cohomology.z1

    def with_order_9(M, caps=DEFAULT_CAPS):
        x = next(g for g in M.G.gens() if g.order() == 9)
        return solve(M, caps) + [cohomology.CrossedHom(M, [x] * len(M.q_elements))]

    monkeypatch.setattr(cohomology, "z1", with_order_9)
    (r,) = run_check("lemma-3.7", [corpus.extraspecial(3, "p2")])
    assert r.status == "fail"
    assert r.counterexample == {"values": [[0, 1]] * 9}


# the frattini module of g243, the one corpus group whose second-proof
# witness comes through the cocycle bridge
G243_PHI = ((3, 0), (0, 3))


@pytest.mark.parametrize("stub,counterexample", [
    ("search", {"witness": "none found", "fixed_sets": ["frattini"]}),
    ("h1", {"N": G243_PHI, "h0": [3], "h1": []}),
    ("z1", {"N": G243_PHI, "h0": [3], "h1": [3], "order_p_cocycles_outside_b1": 0}),
    ("direct", {"direct construction disagreed": "none found"}),
])
def test_second_proof_fails_with_what_the_route_found(monkeypatch, stub, counterexample):
    """Each way the cohomological route, or the direct construction it is
    compared with, can come up empty, stubbed: the reduction's fallback
    search on the extraspecial group, a vanishing H1, a cocycle group
    equal to B1, and a direct route with no witness, on g243.  The check
    fails with the route's facts, and the run exits 1."""
    from pgforge import autos, cohomology, harness

    entry = corpus.extraspecial(3, "p") if stub == "search" else corpus.g243()
    if stub == "search":
        monkeypatch.setattr(autos, "first_noninner", lambda G, fixed, caps: None)
    elif stub == "h1":
        monkeypatch.setattr(cohomology, "h1", lambda M: (1, 1, ()))
    elif stub == "z1":
        monkeypatch.setattr(cohomology, "z1", lambda M, caps=DEFAULT_CAPS: cohomology.b1(M))
    else:
        monkeypatch.setattr(harness, "powerful_quotient_witness",
                            lambda G, caps=DEFAULT_CAPS: None)
    rs = run_check("second-proof", [entry])
    assert [(r.status, r.counterexample) for r in rs] == [("fail", counterexample)]
    assert exit_code(rs) == 1


def unit_images(G):
    return [tuple(int(i == j) for j in range(G.n_gens)) for i in range(G.n_gens)]


def test_lemma_2_2_reports_a_socle_member_that_breaks_a_relation(monkeypatch):
    """With the relation test stubbed to fail, the first member, the
    identity shift, is the counterexample, named by its images."""
    from pgforge import autos

    monkeypatch.setattr(autos, "_vecs_validation_error",
                        lambda G, images: "relation 1 broken")
    es27 = corpus.extraspecial(3, "p")
    (r,) = run_check("lemma-2.2", [es27])
    assert r.status == "fail"
    assert r.counterexample == {"images": unit_images(es27.presentation),
                                "broken": "relation 1 broken"}
    assert exit_code([r]) == 1


@pytest.mark.parametrize("fixes,moved", [
    (lambda om: lambda alpha, S: False, "omega1(Z(G))"),
    (lambda om: lambda alpha, S: S == om, "the Frattini subgroup"),
])
def test_lemma_2_2_reports_a_socle_member_that_moves_a_subgroup(monkeypatch, fixes, moved):
    """On C4 x C2, where omega1(Z(G)) and the Frattini subgroup differ,
    a stubbed pointwise test makes the first member move either one."""
    from pgforge import autos, structure

    entry = corpus.abelian(2, [2, 1])
    G = entry.presentation
    om = structure.omega1(structure.center(G))
    monkeypatch.setattr(autos.Automorphism, "fixes_pointwise", fixes(om))
    (r,) = run_check("lemma-2.2", [entry])
    assert r.status == "fail"
    assert r.counterexample == {"images": unit_images(G), "broken": f"moved {moved}"}
