"""verify-sweep: a fixed list of (check, corpus group) pairs through
`harness.run_check`, one after another, the batch path of `forge verify-all`.

Set-up validates the built-in corpus.  Each round then runs the pair list
on freshly built entries of the same groups, so that every round starts
from cold per-presentation memos and does the same work; within a round
the `structure` memo is shared by all checks of one group.  The seed sets
the order of the pairs.

Every pair must return `pass`.  Payloads with a closed formula or a
brute-force reference in `oracle` are checked against it, and witness
automorphisms are re-validated there.
"""

from __future__ import annotations

import random

import oracle

# (check id, group id); every registered check passes on at least one pair
PAIRS = (
    ("prop-1.3", "dihedral-8"), ("prop-1.3", "dihedral-16"),
    ("prop-1.3", "quaternion-16"), ("prop-1.3", "abelian-2-1_1_1"),
    ("prop-1.3", "abelian-3-1_1"), ("prop-1.3", "modular-2-16"),
    ("prop-1.3", "extraspecial-3-exp9"), ("prop-1.3", "abelian-2-2_1"),
    ("lemma-2.1", "dihedral-16"), ("lemma-2.1", "extraspecial-3-exp9"),
    ("lemma-2.1", "g64"),
    ("lemma-2.2", "g64"), ("lemma-2.2", "extraspecial-3-exp3"),
    ("lemma-2.2", "abelian-2-2_1_1"), ("lemma-2.2", "d16xc2"),
    ("cor-2.3", "dihedral-32"), ("cor-2.3", "liebeck128"),
    ("cor-2.4", "dihedral-32"), ("cor-2.4", "semidihedral-16"),
    ("cor-2.4", "quaternion-32"),
    ("thm-2.5", "modular-3-27"), ("thm-2.5", "wreath-81"),
    ("thm-2.6", "g64"), ("thm-2.6", "modular-2-32"),
    ("thm-2.6", "extraspecial-5-exp5"), ("thm-2.6", "extraspecial-3-exp9"),
    ("lemma-2.8", "modular-2-32"), ("lemma-2.8", "metacyclic-2-2-2"),
    ("thm-2.9", "d16xc2"),
    ("lemma-3.1", "extraspecial-3-exp9"), ("lemma-3.1", "abelian-3-2_1"),
    ("lemma-3.2", "modular-3-27"),
    ("lemma-3.3", "dihedral-16"), ("lemma-3.3", "quaternion-16"),
    ("lemma-3.4", "modular-2-16"), ("lemma-3.4", "extraspecial-3-exp3"),
    ("prop-3.5", "dihedral-16"), ("prop-3.5", "semidihedral-16"),
    ("prop-3.5", "extraspecial-3-exp9"), ("prop-3.5", "abelian-2-2_1"),
    ("thm-3.6", "modular-2-32"), ("thm-3.6", "extraspecial-3-exp3"),
    ("thm-3.6", "abelian-2-1_1_1"),
    ("lemma-3.7", "extraspecial-3-exp9"), ("lemma-3.7", "g243"),
    ("second-proof", "extraspecial-3-exp9"), ("second-proof", "modular-3-27"),
    ("liebeck-sigma", "liebeck128"),
    ("cor-2.3", "metacyclic-3-2-2"), ("thm-2.6", "metacyclic-2-2-2"),
)

# checks whose payload is a witness automorphism
WITNESS_CHECKS = ("cor-2.4", "thm-2.6", "thm-2.9", "second-proof")


class SweepWorkload:
    name = "verify-sweep"
    calibrate_every = 1   # operations per calibration sample
    setup_repeats = 3
    tail_percentile = 90
    min_ops = 2 * len(PAIRS)   # p90 then has at least ten pairs beyond it

    def __init__(self, seed):
        self.seed = seed
        self.pairs = list(PAIRS)
        random.Random(seed).shuffle(self.pairs)

    def setup(self):
        """Build and validate the built-in corpus."""
        from pgforge.corpus import builtin_corpus

        return {"validated": builtin_corpus(validate=True)}

    def prepare_checks(self, state):
        by_id = {e.id: e.presentation for e in state["validated"]}
        state["refs"] = {
            gid: Reference(by_id[gid])
            for gid in sorted({g for _, g in self.pairs})
        }

    def close(self, state):
        pass

    def round(self, state):
        from pgforge import harness
        from pgforge.corpus import builtin_corpus

        # same groups, cold memos: no fact validation is repeated
        entries = {e.id: e for e in builtin_corpus(validate=False)}
        for check_id, group_id in self.pairs:
            entry = entries[group_id]

            def run(check_id=check_id, entry=entry):
                return harness.run_check(check_id, [entry])

            yield (f"{check_id}@{group_id}", 1, run,
                   _checker(state, check_id, group_id))


def _checker(state, check_id, group_id):
    def check(results):
        if len(results) != 1:
            return f"{len(results)} results for one group"
        r = results[0]
        if (r.check_id, r.group_id) != (check_id, group_id):
            return f"result is for {r.check_id}@{r.group_id}"
        if r.status != "pass":
            return f"status {r.status}: {r.reason or r.counterexample}"
        return check_payload(state["refs"][group_id], check_id, r.witness)

    return check


class Reference:
    """What the oracle knows about one corpus group, computed lazily."""

    def __init__(self, pres):
        self.prime = pres.prime
        self.n_gens = pres.n_gens
        self.name = pres.name
        self.form = oracle.recognise(pres)
        self._normals = None

    def normal_subgroups(self):
        if self._normals is None:
            f = self.form
            lattice = f.subgroup_lattice(max_gens=self.n_gens)
            self._normals = [S for S in lattice if f.is_normal(S)]
        return self._normals

    def normal_count(self):
        name = self.name
        if name.startswith("dihedral-"):
            return oracle.dihedral_normal_subgroups(int(name.split("-")[1]))
        if self.form is not None and _elementary_abelian(self.form):
            return oracle.elementary_abelian_subgroups(len(self.form.orders), self.prime)
        return len(self.normal_subgroups())


def _elementary_abelian(form):
    return all(o == form.prime for o in form.orders) and all(
        form.mul(a, b) == form.mul(b, a)
        for a in form.generators() for b in form.generators()
    )


def check_payload(ref, check_id, payload):
    """None if the payload agrees with the reference, else a description."""
    f = ref.form
    if check_id == "prop-1.3":
        want = ref.normal_count()
        if payload.get("pairs") != want:
            return f"pairs {payload.get('pairs')}, normal subgroups {want}"
    elif check_id == "prop-3.5":
        got = payload["modules_verified"] + payload["not_cohomologically_trivial"]
        want = ref.normal_count() - 1
        if got != want:
            return f"{got} modules, nontrivial normal subgroups {want}"
    elif check_id == "thm-3.6":
        phi = f.frattini()
        want = sum(
            1 for N in ref.normal_subgroups()
            if len(N) > 1 and f.order // len(f.closure(list(N) + list(phi))) > f.prime
        )
        if payload.get("modules") != want:
            return f"modules {payload.get('modules')}, noncyclic quotients {want}"
    elif check_id == "lemma-2.2":
        om = f.omega1(f.center())
        comms = [f.comm(a, b) for a in f.generators() for b in f.generators()]
        powers = [f.power(x, f.prime) for x in f.elements()]
        below = f.normal_closure(list(om) + comms + powers)
        want = len(om) ** oracle.log_p(f.order // len(below), f.prime)
        if payload.get("size") != want:
            return f"size {payload.get('size')}, closed formula {want}"
    elif check_id == "liebeck-sigma":
        if payload.get("count") != 3:
            return f"count {payload.get('count')}, expected the three sigma shifts"
    elif check_id in ("lemma-3.1", "lemma-3.2", "lemma-3.3", "lemma-3.4"):
        if not payload.get("tuples_checked"):
            return "no tuples checked"
    elif check_id == "lemma-3.7":
        z = payload.get("z1_size")
        if not z or not oracle.is_power_of(z, ref.prime):
            return f"z1_size {z} is not a power of p"
    elif check_id in WITNESS_CHECKS:
        return check_witness(f, payload)
    elif isinstance(payload.get("witness"), dict):
        # cor-2.3 and thm-2.5 exhibit a witness when their bound fails
        return check_witness(f, payload["witness"])
    return None


def check_witness(form, w):
    """A reported noninner automorphism of order p, re-validated by brute
    force: a bijective homomorphism of the stated order fixing the stated
    subgroup pointwise and outside the inner automorphisms."""
    images = [tuple(v) for v in w["images"]]
    err = oracle.automorphism_error(form, images)
    if err:
        return err
    order = oracle.map_order(form, images)
    if order != w["order"] or order != form.prime:
        return f"order {order}, reported {w['order']}"
    if w["fixed_set"] == "frattini":
        fixed = form.frattini()
    elif w["fixed_set"] == "omega1-center":
        fixed = form.omega1(form.center())
    else:
        return f"unexpected fixed set {w['fixed_set']}"
    if any(oracle.apply_map(form, images, x) != x for x in fixed):
        return f"does not fix {w['fixed_set']} pointwise"
    inner = oracle.is_inner_map(form, images)
    if inner or not w["noninner"]:
        return f"inner {inner}, reported noninner {w['noninner']}"
    return None
