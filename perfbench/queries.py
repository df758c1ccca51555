"""query-mix: a seeded stream of `forge inspect`, `forge search-autos` and
`forge cohomology` commands, run in-process through `pgforge.cli.main`.

Set-up writes one presentation file per pool group.  Each command re-parses
its file, so nothing carries over from one query to the next.  A round is a
block of BLOCK queries whose make-up is fixed by Zipf popularity over the
ranked pool (rank r has weight 1/r), so that some requests repeat; the seed
sets the order of the block.  The pool leaves out every command a cap refuses
and the commands that take a second or more on their own.

Outputs are checked against brute-force references from `oracle`: the
whole structural profile for `inspect`, the complete set of order-p
automorphisms fixing the named subgroup (and which of them are inner) for
`search-autos`, and for `cohomology` the module sizes, |H0|, the law
z1_size = b1_size * prod(h1), and the nonvanishing of Theorem 3.6 where it
applies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from math import prod
from pathlib import Path

import oracle

# The pool per command: (group id, extra arguments).  Nothing records how
# `forge` is used, so the popularity below is a modelling choice, not a
# measurement: queries on smaller groups are taken to be more common.
COMMANDS = {
    "inspect": (
        ("dihedral-8", ()), ("quaternion-16", ()), ("extraspecial-3-exp3", ()),
        ("modular-3-27", ()), ("g64", ()), ("metacyclic-2-2-2", ()),
        ("wreath-81", ()), ("liebeck128", ()), ("metacyclic-3-2-2", ()),
    ),
    "cohomology": (
        ("dihedral-16", ("--normal", "x2")), ("extraspecial-3-exp3", ("--normal", "x3")),
        ("modular-3-27", ("--normal", "x2")), ("d16xc2", ("--normal", "x2^2")),
        ("modular-2-32", ("--normal", "x2")), ("semidihedral-32", ("--normal", "x2^2")),
        ("g64", ("--normal", "x2^2")), ("wreath-81", ("--normal", "x3,x4")),
        ("liebeck128", ("--normal", "x2^2")), ("metacyclic-3-2-2", ("--normal", "x2^2")),
        ("g243", ("--normal", "x2")),
    ),
    "search-autos": (
        ("quaternion-8", ("--fix", "frattini")), ("dihedral-16", ("--fix", "frattini")),
        ("modular-2-16", ("--fix", "omega1")), ("extraspecial-3-exp9", ("--fix", "frattini")),
        ("dihedral-32", ("--fix", "omega1")), ("semidihedral-32", ("--fix", "omega1")),
        ("g64", ("--fix", "omega1")), ("metacyclic-2-2-2", ("--fix", "omega1")),
        ("liebeck128", ("--fix", "omega1")), ("metacyclic-3-2-2", ("--fix", "frattini")),
    ),
}
# the order of each pool group (checked against the corpus by the tests)
GROUP_ORDER = {
    "dihedral-8": 8, "quaternion-8": 8, "dihedral-16": 16, "modular-2-16": 16,
    "quaternion-16": 16, "extraspecial-3-exp3": 27, "extraspecial-3-exp9": 27,
    "modular-3-27": 27, "d16xc2": 32, "dihedral-32": 32, "modular-2-32": 32,
    "semidihedral-32": 32, "g64": 64, "metacyclic-2-2-2": 64, "wreath-81": 81,
    "liebeck128": 128, "metacyclic-3-2-2": 128, "g243": 243,
}


def ranked_pool(commands, group_order):
    """The pool, most popular first: each command's items by (group order,
    group id), then taken in turn from the commands in the order given
    (inspect, cohomology, search-autos, as the top-level README lists
    them) until all are used.  Returns (group id, command, extra
    arguments) per item."""
    queues = [
        [(gid, command, extra) for gid, extra in
         sorted(items, key=lambda item: (group_order[item[0]], item[0]))]
        for command, items in commands.items()
    ]
    ranked = []
    for rank in range(max(len(q) for q in queues)):
        ranked.extend(q[rank] for q in queues if rank < len(q))
    return tuple(ranked)


POOL = ranked_pool(COMMANDS, GROUP_ORDER)
BLOCK = 100


def block_counts(n_items, block):
    """Queries per pool item: Zipf weights 1/r apportioned to `block` by
    largest remainder, every item at least once."""
    weights = [1 / r for r in range(1, n_items + 1)]
    total = sum(weights)
    shares = [block * w / total for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(n_items), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: block - sum(counts)]:
        counts[i] += 1
    if min(counts) < 1:
        raise ValueError("block too small for the pool")
    return counts


class QueryWorkload:
    name = "query-mix"
    calibrate_every = 1   # operations per calibration sample
    setup_repeats = 5
    tail_percentile = 90
    min_ops = BLOCK     # p90 then has ten queries beyond it

    def __init__(self, seed):
        order = []
        for item, count in enumerate(block_counts(len(POOL), BLOCK)):
            order.extend([item] * count)
        random.Random(seed).shuffle(order)
        self.order = order

    def setup(self):
        """Write one presentation file per pool group."""
        from pgforge.core import serialize_presentation
        from pgforge.corpus import builtin_corpus

        entries = {e.id: e for e in builtin_corpus(validate=False)}
        folder = Path(__file__).resolve().parent / "out" / f"pc-{os.getpid()}"
        folder.mkdir(parents=True, exist_ok=True)
        files = {}
        for gid in sorted({g for g, _, _ in POOL}):
            path = folder / f"{gid}.pc"
            path.write_text(serialize_presentation(entries[gid].presentation))
            files[gid] = str(path)
        return {"folder": folder, "files": files, "entries": entries}

    def prepare_checks(self, state):
        refs = {}
        tables = {}
        for gid, command, _ in POOL:
            form = oracle.recognise(state["entries"][gid].presentation)
            if form is None:
                raise RuntimeError(f"{gid}: no closed form")
            refs[gid] = form
            if command == "search-autos" and gid not in tables:
                tables[gid] = oracle.AutTable(form)
        state["forms"] = refs
        state["tables"] = tables
        state["profiles"] = {}

    def close(self, state):
        shutil.rmtree(state["folder"], ignore_errors=True)

    def round(self, state):
        from pgforge import cli

        for item in self.order:
            gid, command, extra = POOL[item]
            argv = [command, state["files"][gid], *extra]

            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                return code, out.getvalue(), err.getvalue()

            yield (f"{command} {' '.join(extra)} @{gid}", 1, run,
                   _checker(state, gid, command, extra))


def _checker(state, gid, command, extra):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = json.loads(out)
        form = state["forms"][gid]
        if command == "inspect":
            if gid not in state["profiles"]:
                state["profiles"][gid] = oracle.profile(form)
            return check_inspect(state["profiles"][gid], doc)
        if command == "search-autos":
            return check_search(state["tables"][gid], extra[1], doc)
        return check_cohomology(form, extra[1], doc)

    return check


def check_inspect(want, doc):
    if doc.get("consistent") is not True:
        return "reported inconsistent"
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key}: got {doc.get(key)}, reference {value}"
    return None


def check_search(table, fix, doc):
    """The reported witnesses are exactly the order-p automorphisms fixing
    the named subgroup pointwise, each classified inner or not correctly."""
    f = table.form
    p = f.prime
    if doc["order"] != p or doc["fixed_set"] != fix:
        return f"asked for order {p} fixing {fix}, got {doc['order']}, {doc['fixed_set']}"
    fixed = f.frattini() if fix == "frattini" else f.omega1(f.center())
    want = table.fixing(fixed, p)
    got = [tuple(tuple(v) for v in w["images"]) for w in doc["witnesses"]]
    if len(set(got)) != len(got) or set(got) != want:
        missing = sorted(want - set(got))[:2]
        extra = sorted(set(got) - want)[:2]
        return f"witness set differs: missing {missing}, unexpected {extra}"
    if doc["count"] != len(got):
        return f"count {doc['count']} for {len(got)} witnesses"
    noninner = 0
    for w, imgs in zip(doc["witnesses"], got):
        if w["order"] != p:
            return f"witness {imgs} reported with order {w['order']}"
        is_inner = imgs in table.inner
        if w["noninner"] == is_inner:
            return f"witness {imgs}: noninner {w['noninner']}, reference inner {is_inner}"
        if w["inner"] is not None:
            h = tuple(w["inner"])
            if tuple(f.conj(g, h) for g in f.generators()) != imgs:
                return f"witness {imgs}: conjugator {h} does not induce it"
        noninner += not is_inner
    if doc["noninner_count"] != noninner:
        return f"noninner_count {doc['noninner_count']}, reference {noninner}"
    return None


def check_cohomology(form, normal, doc):
    gens = [oracle.parse_word(form, w) for w in normal.split(",")]
    ref = oracle.cohomology_reference(form, gens)
    module = doc["module"]
    pairs = (
        ("normal_order", doc["normal_order"], ref["normal_order"]),
        ("q_order", module["q_order"], ref["q_order"]),
        ("a_invariants", tuple(module["a_invariants"]), ref["a_invariants"]),
        ("b1_size", doc["b1_size"], ref["b1_size"]),
        ("|H0|", prod(doc["h0"]), ref["h0_order"]),
    )
    for name, got, want in pairs:
        if got != want:
            return f"{name}: got {got}, reference {want}"
    if doc["z1_size"] != doc["b1_size"] * prod(doc["h1"]):
        return f"z1_size {doc['z1_size']} != b1_size {doc['b1_size']} * prod{doc['h1']}"
    if ref["theorem_3_6_applies"] and not (doc["h0"] and doc["h1"]):
        return f"Theorem 3.6 applies but h0={doc['h0']}, h1={doc['h1']}"
    return None
