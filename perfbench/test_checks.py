"""Tests for the benchmark's own checks: each reference agrees with the
program on real outputs and rejects a corrupted one.

    python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import json
import random

import pytest

from pgforge import cli, corpus, harness
from pgforge.core import serialize_presentation

import arith
import oracle
import queries
import run
import sweep
from tracer import Tracer


def _entry(gid):
    return {e.id: e for e in corpus.builtin_corpus(validate=False)}[gid]


# -- closed-form arithmetic --------------------------------------------------------


@pytest.mark.parametrize("ctor", [
    lambda: corpus.g243(), lambda: corpus.metacyclic(4, 3, 2),
    lambda: corpus.dihedral(1024), lambda: corpus.dihedral16_x_c2(),
    lambda: corpus.heisenberg_like(3), lambda: corpus.extraspecial(5, "p"),
    lambda: corpus.g64(), lambda: corpus.liebeck128(), lambda: corpus.quaternion(32),
    lambda: corpus.semidihedral(32), lambda: corpus.modular(3, 3),
    lambda: corpus.abelian(2, [1, 1, 1]),
])
def test_closed_form_matches_the_kernel(ctor):
    G = ctor().presentation
    form = oracle.recognise(G)
    assert form is not None
    rng = random.Random(5)
    for _ in range(300):
        x = G.element([rng.randrange(m) for m in G.rel_orders])
        y = G.element([rng.randrange(m) for m in G.rel_orders])
        assert (x * y).vec == form.mul(x.vec, y.vec)
        assert x.inverse().vec == form.inv(x.vec)
        assert x.order() == form.elt_order(x.vec)


def test_recognise_refuses_other_shapes():
    # the refined order-8 dihedral presentation has the power relation
    # x2^2 = x3, which neither closed form allows
    from pgforge.core import PcPresentation

    d8 = PcPresentation(2, [2, 2, 2], [(), ((2, 1),), ()], {(1, 0): ((1, 1), (2, 1))})
    assert oracle.recognise(d8) is None


def _arith_batch():
    wl = arith.ArithWorkload(3)
    state = wl.setup()
    gi, batch = state["requests"][0]
    form = oracle.recognise(state["groups"][gi][1])
    out = arith._request(batch)()
    plain = [(op, x.vec, y.vec, k) for op, x, y, k in batch]
    answers = [a if isinstance(a, int) else a.vec for a in out]
    return form, plain, answers


def test_arith_check_accepts_kernel_output():
    form, plain, answers = _arith_batch()
    assert arith.check_batch(form, plain, answers) is None


def test_arith_check_rejects_a_perturbed_vector():
    form, plain, answers = _arith_batch()
    i = next(i for i, a in enumerate(answers) if not isinstance(a, int))
    v = list(answers[i])
    v[-1] = (v[-1] + 1) % form.orders[-1]
    answers[i] = tuple(v)
    assert arith.check_batch(form, plain, answers) is not None


def test_arith_check_rejects_a_wrong_order():
    form, plain, answers = _arith_batch()
    plain.append(("order", plain[0][1], plain[0][2], 0))
    answers.append(form.elt_order(plain[0][1]) * form.prime)
    assert arith.check_batch(form, plain, answers) is not None


# -- harness payload formulas ---------------------------------------------------------


@pytest.mark.parametrize("order", [8, 16, 32])
def test_dihedral_normal_subgroup_formula(order):
    ref = sweep.Reference(corpus.dihedral(order).presentation)
    assert oracle.dihedral_normal_subgroups(order) == len(ref.normal_subgroups())


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 2)])
def test_gaussian_binomial_counts_subgroups(p, k):
    ref = sweep.Reference(corpus.abelian(p, [1] * k).presentation)
    assert oracle.elementary_abelian_subgroups(k, p) == len(ref.normal_subgroups())


def _payload(check_id, gid):
    (r,) = harness.run_check(check_id, [_entry(gid)])
    assert r.status == "pass"
    return sweep.Reference(_entry(gid).presentation), r.witness


@pytest.mark.parametrize("check_id,gid,key", [
    ("prop-1.3", "dihedral-16", "pairs"),
    ("prop-1.3", "modular-2-16", "pairs"),
    ("prop-3.5", "dihedral-16", "modules_verified"),
    ("thm-3.6", "modular-2-32", "modules"),
    ("lemma-2.2", "g64", "size"),
    ("liebeck-sigma", "liebeck128", "count"),
])
def test_payload_formula_accepts_then_rejects_off_by_one(check_id, gid, key):
    ref, payload = _payload(check_id, gid)
    assert sweep.check_payload(ref, check_id, payload) is None
    bad = dict(payload)
    bad[key] += 1
    assert sweep.check_payload(ref, check_id, bad) is not None


@pytest.mark.parametrize("check_id,gid", [
    ("thm-2.6", "g64"), ("thm-2.6", "extraspecial-5-exp5"),
    ("thm-2.9", "d16xc2"), ("cor-2.4", "dihedral-32"),
    ("second-proof", "modular-3-27"),
])
def test_witness_check_rejects_corruption(check_id, gid):
    ref, payload = _payload(check_id, gid)
    assert sweep.check_payload(ref, check_id, payload) is None
    f = ref.form

    perturbed = copy.deepcopy(payload)
    perturbed["images"][0] = list(perturbed["images"][1])
    assert sweep.check_payload(ref, check_id, perturbed) is not None

    wrong_order = copy.deepcopy(payload)
    wrong_order["order"] += 1
    assert sweep.check_payload(ref, check_id, wrong_order) is not None

    flipped = copy.deepcopy(payload)
    flipped["noninner"] = not flipped["noninner"]
    assert sweep.check_payload(ref, check_id, flipped) is not None

    inner = copy.deepcopy(payload)
    inner["images"] = [list(g) for g in f.generators()]
    assert sweep.check_payload(ref, check_id, inner) is not None


def test_witness_check_rejects_an_inner_automorphism():
    ref = sweep.Reference(corpus.dihedral(16).presentation)
    f = ref.form
    h = (0, 2)  # conjugation by r^2: order 2, fixes the Frattini subgroup
    images = [list(f.conj(g, h)) for g in f.generators()]
    w = {"images": images, "order": 2, "fixed_set": "frattini", "noninner": True}
    assert "inner" in sweep.check_witness(f, w)


# -- command outputs --------------------------------------------------------------------


def _cli(tmp_path, gid, *args):
    path = tmp_path / f"{gid}.pc"
    path.write_text(serialize_presentation(_entry(gid).presentation))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([args[0], str(path), *args[1:]]) == 0
    return oracle.recognise(_entry(gid).presentation), json.loads(out.getvalue())


@pytest.mark.parametrize("gid,fix", [("dihedral-16", "frattini"), ("g64", "omega1"),
                                     ("extraspecial-3-exp9", "frattini")])
def test_search_check_rejects_corruption(tmp_path, gid, fix):
    form, doc = _cli(tmp_path, gid, "search-autos", "--fix", fix)
    table = oracle.AutTable(form)
    assert queries.check_search(table, fix, doc) is None
    assert doc["witnesses"]

    dropped = copy.deepcopy(doc)
    dropped["witnesses"].pop()
    dropped["count"] -= 1
    assert queries.check_search(table, fix, dropped) is not None

    perturbed = copy.deepcopy(doc)
    img = perturbed["witnesses"][0]["images"][1]
    img[1] = (img[1] + 1) % form.orders[1]
    assert queries.check_search(table, fix, perturbed) is not None

    flipped = copy.deepcopy(doc)
    flipped["witnesses"][0]["noninner"] = not flipped["witnesses"][0]["noninner"]
    assert queries.check_search(table, fix, flipped) is not None

    counted = copy.deepcopy(doc)
    counted["count"] += 1
    assert queries.check_search(table, fix, counted) is not None


@pytest.mark.parametrize("gid,normal", [("dihedral-16", "x2"), ("g64", "x2^2"),
                                        ("wreath-81", "x3,x4"),
                                        ("extraspecial-3-exp3", "x3")])
def test_cohomology_check_rejects_corruption(tmp_path, gid, normal):
    form, doc = _cli(tmp_path, gid, "cohomology", "--normal", normal)
    assert queries.check_cohomology(form, normal, doc) is None
    for key in ("z1_size", "normal_order", "b1_size"):
        bad = copy.deepcopy(doc)
        bad[key] += 1
        assert queries.check_cohomology(form, normal, bad) is not None
    vanished = copy.deepcopy(doc)
    vanished["h0"] = []
    assert queries.check_cohomology(form, normal, vanished) is not None


@pytest.mark.parametrize("gid", ["g64", "wreath-81", "quaternion-16"])
def test_inspect_check_rejects_corruption(tmp_path, gid):
    form, doc = _cli(tmp_path, gid, "inspect")
    want = oracle.profile(form)
    assert queries.check_inspect(want, doc) is None
    for key, bad_value in (("class", doc["class"] + 1),
                           ("center_invariants", doc["center_invariants"] + [2]),
                           ("powerful", not doc["powerful"])):
        bad = dict(doc)
        bad[key] = bad_value
        assert queries.check_inspect(want, bad) is not None


# -- workload make-up and the tracer -------------------------------------------------------


def test_block_counts():
    counts = queries.block_counts(len(queries.POOL), queries.BLOCK)
    assert sum(counts) == queries.BLOCK and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)


def test_pool_ranks_by_group_order_in_turn_over_the_commands():
    entries = {e.id: e for e in corpus.builtin_corpus(validate=False)}
    for gid, order in queries.GROUP_ORDER.items():
        assert entries[gid].presentation.order == order
    assert [c for _, c, _ in queries.POOL[:6]] == ["inspect", "cohomology", "search-autos"] * 2
    for command in queries.COMMANDS:
        sizes = [queries.GROUP_ORDER[g] for g, c, _ in queries.POOL if c == command]
        assert sizes == sorted(sizes)
    assert len(set(queries.POOL)) == len(queries.POOL) == sum(map(len, queries.COMMANDS.values()))


def test_inputs_depend_on_the_seed_only():
    assert queries.QueryWorkload(4).order == queries.QueryWorkload(4).order
    assert queries.QueryWorkload(4).order != queries.QueryWorkload(5).order
    assert sweep.SweepWorkload(4).pairs == sweep.SweepWorkload(4).pairs
    a, b = arith.ArithWorkload(4).setup(), arith.ArithWorkload(4).setup()
    assert [[(op, x.vec, y.vec, k) for op, x, y, k in batch] for _, batch in a["requests"]] == \
        [[(op, x.vec, y.vec, k) for op, x, y, k in batch] for _, batch in b["requests"]]


def test_every_check_is_in_the_sweep():
    assert {c for c, _ in sweep.PAIRS} == set(harness.CHECKS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 99) == 99
    assert run.percentile([5.0], 90) == 5.0


def _traced_counts():
    tracer = Tracer().install()
    try:
        entry = _entry("dihedral-8")
        harness.run_check("prop-1.3", [entry])
        harness.run_check("thm-2.6", [entry])
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_exactly():
    a, b = _traced_counts(), _traced_counts()
    counts = {k: v for k, v in a.metrics().items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in b.metrics().items() if not k.endswith("_s")}
    assert counts["harness.checks"] == 2
    assert counts["subgroups.enumerations"] >= 1
    assert counts["kernel.calls"] > 0 and counts["autos.witnesses"] >= 1


def test_tracer_replaces_imported_names_and_restores_them():
    from pgforge import autos

    original = autos.search_order_p_automorphisms
    tracer = Tracer().install()
    try:
        assert harness.search_order_p_automorphisms is not original
        assert autos.search_order_p_automorphisms is harness.search_order_p_automorphisms
    finally:
        tracer.uninstall()
    assert harness.search_order_p_automorphisms is original
    assert autos.search_order_p_automorphisms is original


def test_host_factors_smooth_each_sample_with_its_neighbours():
    ref = run.CALIBRATION_REFERENCE_S
    samples = [ref, 2 * ref, ref, 4 * ref]
    assert run.host_factors(samples) == [
        pytest.approx(ref / (1.5 * ref)),  # median of the first two
        pytest.approx(1.0),                # median of ref, 2ref, ref
        pytest.approx(0.5),                # median of 2ref, ref, 4ref
        pytest.approx(ref / (2.5 * ref)),  # median of the last two
    ]
    assert run.calibrate() > 0
