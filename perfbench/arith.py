"""kernel-arith: seeded bulk element arithmetic through the Element API.

Two kinds of presentation.  Two-generator groups with large relative
orders (g243, metacyclic(4,3,2), dihedral(1024)) keep the collector on its
exponent-merge path; groups with three or more generators and class >= 3
(wreath-81, d16xc2) drive it through conjugation.  One request is a batch
of products, inverses, powers, commutators, conjugates and element orders
on one presentation; every answer is checked against the closed-form
multiplication in `oracle`, and on the groups with three or more
generators the associativity and inverse laws are checked as well.
"""

from __future__ import annotations

import random

import oracle

# (label, constructor, operations of each kind per request): an operation on
# the first kind costs about ten times as much, so its requests hold fewer
GROUPS = (
    ("g243", lambda corpus: corpus.g243(), 1),
    ("metacyclic-4-3-2", lambda corpus: corpus.metacyclic(4, 3, 2), 1),
    ("dihedral-1024", lambda corpus: corpus.dihedral(1024), 1),
    ("wreath-81", lambda corpus: corpus.heisenberg_like(3), 10),
    ("d16xc2", lambda corpus: corpus.dihedral16_x_c2(), 10),
)
OPS = ("mul", "inv", "pow", "comm", "conj", "order")
# enough distinct requests per round that the slowest 1% are many requests,
# not the one unluckiest draw of a seed
REQUESTS_PER_GROUP = 200


class ArithWorkload:
    name = "kernel-arith"
    calibrate_every = 10   # operations per calibration sample
    setup_repeats = 3
    tail_percentile = 99
    min_ops = 1000      # requests, so that p99 has ten beyond it

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        """Build the presentations, check their consistency and draw the
        seeded operands."""
        from pgforge import corpus

        rng = random.Random(self.seed)
        groups = []
        for label, ctor, _ in GROUPS:
            G = ctor(corpus).presentation
            if G.consistency_check():
                raise RuntimeError(f"{label}: presentation inconsistent")
            groups.append((label, G))
        requests = []
        for gi, (label, G) in enumerate(groups):
            for _ in range(REQUESTS_PER_GROUP):
                ops = list(OPS) * GROUPS[gi][2]
                rng.shuffle(ops)
                batch = []
                for op in ops:
                    x = G.element(tuple(rng.randrange(m) for m in G.rel_orders))
                    y = G.element(tuple(rng.randrange(m) for m in G.rel_orders))
                    k = rng.randrange(-40, 41)
                    batch.append((op, x, y, k))
                requests.append((gi, batch))
        # interleave the groups so that no kind runs in one long stretch
        rng.shuffle(requests)
        return {"groups": groups, "requests": requests}

    def prepare_checks(self, state):
        forms = []
        for label, G in state["groups"]:
            form = oracle.recognise(G)
            if form is None:
                raise RuntimeError(f"{label}: no closed form")
            forms.append(form)
        state["forms"] = forms

    def close(self, state):
        pass

    def round(self, state):
        for gi, batch in state["requests"]:
            yield (f"{state['groups'][gi][0]}", len(batch),
                   _request(batch), _checker(state, gi, batch))


def _request(batch):
    def run():
        out = []
        for op, x, y, k in batch:
            if op == "mul":
                out.append(x * y)
            elif op == "inv":
                out.append(x.inverse())
            elif op == "pow":
                out.append(x ** k)
            elif op == "comm":
                out.append(x.commutator(y))
            elif op == "conj":
                out.append(x.conjugate(y))
            else:
                out.append(x.order())
        return out

    return run


def expected(form, op, x, y, k):
    """The closed-form answer to one operation on exponent vectors."""
    if op == "mul":
        return form.mul(x, y)
    if op == "inv":
        return form.inv(x)
    if op == "pow":
        return form.power(x, k)
    if op == "comm":
        return form.comm(x, y)
    if op == "conj":
        return form.conj(x, y)
    return form.elt_order(x)


def check_batch(form, batch, answers):
    """None if every answer matches the closed form, else a description.
    `batch` holds (op, x, y, k) with x, y exponent vectors; `answers`
    holds exponent vectors, or integers for element orders."""
    if len(answers) != len(batch):
        return f"{len(answers)} answers to {len(batch)} operations"
    for (op, x, y, k), got in zip(batch, answers):
        want = expected(form, op, x, y, k)
        if got != want:
            return f"{op}{(x, y, k)}: got {got}, closed form gives {want}"
    return None


def _checker(state, gi, batch):
    def check(out):
        form = state["forms"][gi]
        plain = [(op, x.vec, y.vec, k) for op, x, y, k in batch]
        answers = [a if isinstance(a, int) else a.vec for a in out]
        err = check_batch(form, plain, answers)
        if err or len(form.orders) < 3:
            return err
        # the laws, on the program's own arithmetic
        G = state["groups"][gi][1]
        one = G.identity()
        for op, x, y, _ in batch[:8]:
            if (x * y) * x != x * (y * x):
                return f"associativity fails at {x.vec}, {y.vec}"
            if x * x.inverse() != one or x.inverse() * x != one:
                return f"inverse law fails at {x.vec}"
        return None

    return check
