"""The kernel must agree output-for-output with the plain stack collector.

`_reference_collect`, `_reference_mul`, `_reference_inv` and
`_reference_power` below are the plain collector, kept here verbatim as an
oracle: no precomputed tables, one pushed syllable per rewrite.  The
kernel is checked against it on seeded random tables and on every corpus
group, on each of its three paths: the closed form, the tail tables, and
the collector, which the tests reach by withholding the tail tables.
`kernel.product` is checked against nested `_reference_mul` calls, and
the `Element` operations built on it against the same oracle.
"""

import itertools
import math
import random

import pytest

from pgforge import kernel


def _reference_collect(tables, vec, word):
    n = tables.n
    orders = tables.orders
    pows = tables.pows
    conjs = tables.conjs
    a = list(vec)
    stack = [(g, e) for g, e in word if e]
    stack.reverse()
    while stack:
        j, e = stack.pop()
        m = orders[j]
        base = j * n
        tail = [(k, a[k]) for k in range(j + 1, n) if a[k]]
        if all(conjs[base + k] is None for k, _ in tail):
            tot = a[j] + e
            if tot < m:
                a[j] = tot
                continue
            q, rem = divmod(tot, m)
            a[j] = rem
            pw = pows[j]
            if not pw:
                continue
            for k, _ in tail:
                a[k] = 0
            for k, ek in reversed(tail):
                stack.append((k, ek))
            for _ in range(q):
                for syl in reversed(pw):
                    stack.append(syl)
            continue
        if e > 1:
            stack.append((j, e - 1))
        for k, ek in tail:
            a[k] = 0
        for k, ek in reversed(tail):
            w = conjs[base + k]
            if w is None:
                stack.append((k, ek))
            else:
                for _ in range(ek):
                    for syl in reversed(w):
                        stack.append(syl)
        aj = a[j] + 1
        if aj == m:
            a[j] = 0
            for syl in reversed(pows[j]):
                stack.append(syl)
        else:
            a[j] = aj
    return tuple(a)


def _reference_mul(tables, u, v):
    word = [(i, e) for i, e in enumerate(v) if e]
    return _reference_collect(tables, u, word)


def _reference_inv(tables, u):
    n = tables.n
    orders = tables.orders
    z = tuple(u)
    word = []
    for i in range(n):
        e = z[i]
        if e:
            k = orders[i] - e
            word.append((i, k))
            z = _reference_collect(tables, z, ((i, k),))
    return _reference_collect(tables, tables.identity, word)


def _reference_product(tables, vecs):
    acc = tuple(vecs[0])
    for v in vecs[1:]:
        acc = _reference_mul(tables, acc, v)
    return acc


def _reference_power(tables, u, k):
    if k < 0:
        u = _reference_inv(tables, u)
        k = -k
    acc = tables.identity
    sq = tuple(u)
    while k:
        if k & 1:
            acc = _reference_mul(tables, acc, sq)
        k >>= 1
        if k:
            sq = _reference_mul(tables, sq, sq)
    return acc


def random_tables(rng, orders=None):
    """Random relation tables: of random small relative orders, or of the
    given ones (then never a cyclic extension's)."""
    # small sizes: random relation tables need not present a group, and
    # collection cost on junk tables grows quickly
    p = rng.choice([2, 3])
    if orders is None:
        if rng.random() < 0.2:
            return random_cyclic_extension(rng, p)
        orders = [p ** rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
    n = len(orders)
    pows = []
    for i in range(n):
        w = []
        for g in range(i + 1, n):
            if rng.random() < 0.4:
                w.append((g, rng.randrange(1, orders[g])))
        pows.append(tuple(w))
    conjs = [None] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                continue
            shape = rng.random()
            if shape < 0.3:
                # a single syllable on g_j: the kernel fuses its pushed
                # copies when g_j has no blockers and no power word
                c = rng.randrange(1, orders[j]) if rng.random() < 0.9 else 0
                conjs[i * n + j] = ((j, c),)
            elif shape < 0.45 and j + 1 < n:
                # the leading syllable is above g_j: never fused
                lead = rng.randrange(j + 1, n)
                w = [(lead, rng.randrange(1, orders[lead]))]
                for g in range(lead + 1, n):
                    if rng.random() < 0.3:
                        w.append((g, rng.randrange(1, orders[g])))
                conjs[i * n + j] = tuple(w)
            else:
                w = [(j, rng.randrange(1, orders[j]))]
                for g in range(j + 1, n):
                    if rng.random() < 0.3:
                        w.append((g, rng.randrange(1, orders[g])))
                conjs[i * n + j] = tuple(w)
    return n, orders, pows, conjs


def random_cyclic_extension(rng, p):
    """A two-generator table with x2^x1 = x2^r and x1^o1 = x2^s: r a unit
    or not and s*r = s (mod o2) or not, so some draws take the
    kernel's closed form and some the collector."""
    orders = [p ** rng.randint(1, 2), p ** rng.randint(1, 3)]
    s = rng.randrange(orders[1])
    r = rng.randrange(orders[1])
    conjs = [None, ((1, r),) if rng.random() < 0.9 else None, None, None]
    return 2, orders, [((1, s),) if s else (), ()], conjs


def cyclic_extension_tables(o1, o2):
    """Every table of the closed form's shape with these relative orders:
    x2^x1 absent or x2^r, x1^o1 absent or x2^s, each r and s in range."""
    for r in [None, *range(o2)]:
        for s in [None, *range(1, o2)]:
            pows = [((1, s),) if s else (), ()]
            conjs = [None, None if r is None else ((1, r),), None, None]
            yield r, s, kernel.make_tables(2, [o1, o2], pows, conjs)


def closed_form_precondition(o2, r, s):
    """s*r = s (mod o2), with absent r = 1, s = 0; the conjugate x2^0 is
    no syllable the kernel fuses, so r = 0 keeps the collector."""
    r = 1 if r is None else r
    s = s or 0
    return r > 0 and s * r % o2 == s


def random_cases(rng, n, orders, count):
    for _ in range(count):
        vec = tuple(rng.randrange(orders[i]) for i in range(n))
        word = [
            (rng.randrange(n), rng.randrange(0, 2 * max(orders)))
            for _ in range(rng.randint(0, 5))
        ]
        u = tuple(rng.randrange(orders[i]) for i in range(n))
        yield vec, word, u, rng.randint(-12, 40)


def random_operands(rng, orders):
    """Zero to three random normal forms, for the tail of a product.  The
    tests draw them from a generator of their own, so that the tables and
    cases drawn beside them stay those drawn without them."""
    return [tuple(rng.randrange(m) for m in orders)
            for _ in range(rng.randint(0, 3))]


def test_random_tables_cover_the_fusion_guard():
    """The generator yields fused and unfused single-syllable conjugates,
    conjugates led by a generator above the conjugated one, and
    two-generator cyclic extensions on and off the closed form."""
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        n, orders, pows, conjs = random_tables(rng)
        t = kernel.make_tables(n, orders, pows, conjs)
        for i in range(n):
            for j in range(i + 1, n):
                w = conjs[i * n + j]
                if w is None:
                    continue
                if w[0][0] > j:
                    seen.add("leading above")
                elif len(w) == 1:
                    fused = t.moves[i][j].__class__ is int
                    seen.add(("single", fused, bool(t.blockers[j]), bool(pows[j])))
        if n == 2:
            # every two-generator draw has the closed form's shape
            seen.add(("cyclic extension", t.cyclic is not None))
    assert "leading above" in seen
    assert ("single", True, False, False) in seen
    for blocked, powered in [(True, False), (False, True), (True, True)]:
        assert ("single", False, blocked, powered) in seen
    assert ("cyclic extension", True) in seen
    assert ("cyclic extension", False) in seen


# o1 = o2 = 9 is left out: its 27 closed-form tables of 81**2 products each
# would take several times as long as all the other order pairs together
CLOSED_FORM_ORDERS = [(o1, o2) for o1 in (2, 3, 4, 9) for o2 in (2, 3, 4, 9)
                      if (o1, o2) != (9, 9)]


def test_closed_form_is_exact_on_every_small_cyclic_extension():
    """The kernel takes the closed form exactly on the tables that meet
    its precondition, and there its mul, inv and power equal the plain
    collector's on every operand."""
    fast = slow = 0
    for o1, o2 in CLOSED_FORM_ORDERS:
        elements = list(itertools.product(range(o1), range(o2)))
        for r, s, t in cyclic_extension_tables(o1, o2):
            if t.cyclic is None:
                slow += 1
            else:
                fast += 1
                for u in elements:
                    assert kernel.inv(t, u) == _reference_inv(t, u), (o1, o2, r, s, u)
                    for k in (-3, 5):
                        assert kernel.power(t, u, k) == _reference_power(t, u, k)
                    for v in elements:
                        assert kernel.mul(t, u, v) == _reference_mul(t, u, v), \
                            (o1, o2, r, s, u, v)
            assert (t.cyclic is not None) == closed_form_precondition(o2, r, s), (o1, o2, r, s)
    assert (fast, slow) == (175, 247)


def test_closed_form_parts_from_the_collector_only_where_s_r_is_not_s():
    """The formula, applied off the precondition, is not the collector's
    product on some table with s*r != s; the only tables off it with
    s*r = s are the four with r = 0 and s absent, where it still is.  The
    kernel takes the collector on both kinds."""
    def formula(o1, o2, r, s, u, v):
        r = 1 if r is None else r
        (a, b), (c, d) = u, v
        if a + c < o1:
            return a + c, (b * r ** c + d) % o2
        w = o1 - a
        return a + c - o1, ((b * r ** w + (s or 0)) * r ** (c - w) + d) % o2

    parted = {True: 0, False: 0}
    agreed = {True: 0, False: 0}
    for o1, o2 in [(2, 4), (3, 9), (4, 4), (4, 9)]:
        elements = list(itertools.product(range(o1), range(o2)))
        for r, s, t in cyclic_extension_tables(o1, o2):
            if closed_form_precondition(o2, r, s):
                continue
            assert t.cyclic is None
            s_r_is_s = (s or 0) * (1 if r is None else r) % o2 == (s or 0)
            if any(formula(o1, o2, r, s, u, v) != _reference_mul(t, u, v)
                   for u in elements for v in elements):
                parted[s_r_is_s] += 1
            else:
                agreed[s_r_is_s] += 1
    assert (parted, agreed) == ({True: 0, False: 128}, {True: 4, False: 8})


# the corpus groups presented as a cyclic extension of a cyclic group
CLOSED_FORM_CORPUS = [
    "g64", "liebeck128", "metacyclic-2-2-2", "metacyclic-3-2-2",
    "metacyclic-3-3-2", "metacyclic-4-3-2", "dihedral-8", "dihedral-16",
    "dihedral-32", "quaternion-8", "quaternion-16", "quaternion-32",
    "semidihedral-16", "semidihedral-32", "modular-2-16", "modular-2-32",
    "modular-3-27", "extraspecial-3-exp9", "g243", "abelian-2-1_1",
    "abelian-2-2_1", "abelian-2-2_2", "abelian-2-3_1", "abelian-3-1_1",
    "abelian-3-2_1", "abelian-5-1_1",
]


def test_closed_form_takes_the_two_generator_corpus_groups():
    from pgforge import corpus

    taken = []
    for entry in corpus.builtin_corpus(validate=False):
        P = entry.presentation
        t = kernel.make_tables(P.n_gens, P.rel_orders, P.pow_words, P.conj_words)
        if t.cyclic is not None:
            taken.append(entry.id)
    assert taken == CLOSED_FORM_CORPUS
    assert len(taken) == 26


def _paths(t):
    """The path `mul` and `inv` take on the tables t."""
    if t.cyclic is not None:
        return "closed form"
    return "collector" if t._tails is None else "tail tables"


def _matches_reference_on_random_tables(seed, withhold):
    """Returns how many draws took each path."""
    rng = random.Random(seed)
    ops = random.Random(seed + 1000)
    taken = {"closed form": 0, "tail tables": 0, "collector": 0}
    for _ in range(100):
        n, orders, pows, conjs = random_tables(rng)
        t = kernel.make_tables(n, orders, pows, conjs)
        if withhold:
            t._tails = None
        taken[_paths(t)] += 1
        for vec, word, u, k in random_cases(rng, n, orders, 15):
            assert kernel.collect(t, vec, word) == _reference_collect(t, vec, word)
            assert kernel.mul(t, vec, u) == _reference_mul(t, vec, u)
            assert kernel.inv(t, vec) == _reference_inv(t, vec)
            assert kernel.power(t, vec, k) == _reference_power(t, vec, k)
            vecs = [vec, u, *random_operands(ops, orders)]
            assert kernel.product(t, vecs) == _reference_product(t, vecs)
    return taken


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pure_kernel_matches_reference_on_random_tables(seed):
    taken = _matches_reference_on_random_tables(seed, withhold=False)
    assert taken["tail tables"] > 50 and taken["closed form"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_collector_matches_reference_on_random_tables(seed):
    """The same draws with the tail tables withheld, so that `mul` and
    `inv` take the collector wherever the closed form does not apply."""
    taken = _matches_reference_on_random_tables(seed, withhold=True)
    assert taken["tail tables"] == 0 and taken["collector"] > 50


def _matches_reference_on_corpus_groups(withhold):
    from pgforge import corpus

    rng = random.Random(98)
    ops = random.Random(1098)
    for entry in corpus.builtin_corpus(validate=False):
        P = entry.presentation
        n = P.n_gens
        if n == 0:
            continue
        t = kernel.make_tables(n, P.rel_orders, P.pow_words, P.conj_words)
        if withhold:
            t._tails = None
        for _ in range(20):
            u = tuple(rng.randrange(m) for m in P.rel_orders)
            v = tuple(rng.randrange(m) for m in P.rel_orders)
            word = [(g, e) for g, e in zip(range(n), v)]
            rng.shuffle(word)
            k = rng.randint(-9, 9)
            assert kernel.collect(t, u, word) == _reference_collect(t, u, word)
            assert kernel.mul(t, u, v) == _reference_mul(t, u, v)
            assert kernel.inv(t, u) == _reference_inv(t, u)
            assert kernel.power(t, u, k) == _reference_power(t, u, k)
            vecs = [u, v, *random_operands(ops, P.rel_orders)]
            assert kernel.product(t, vecs) == _reference_product(t, vecs)


def test_pure_kernel_matches_reference_on_corpus_groups():
    _matches_reference_on_corpus_groups(withhold=False)


def test_collector_matches_reference_on_corpus_groups():
    _matches_reference_on_corpus_groups(withhold=True)


# the corpus groups whose `mul` and `inv` read tail tables: every one
# outside the closed form, none of them above the limit
TAIL_TABLE_CORPUS = [
    "extraspecial-3-exp3", "extraspecial-5-exp5", "wreath-81", "d16xc2",
    "abelian-2-1", "abelian-2-2", "abelian-2-3", "abelian-2-1_1_1",
    "abelian-2-2_1_1", "abelian-2-1_1_1_1", "abelian-3-1", "abelian-3-2",
    "abelian-3-1_1_1",
]


def _corpus_tables():
    from pgforge import corpus

    for entry in corpus.builtin_corpus(validate=False):
        P = entry.presentation
        yield entry.id, kernel.make_tables(
            P.n_gens, P.rel_orders, P.pow_words, P.conj_words)


def test_each_corpus_group_takes_its_kernel_path():
    """Closed form, tail tables or collector, pinned per corpus group; the
    tail tables are built by the first product, not by `make_tables`."""
    taken = {"closed form": [], "tail tables": [], "collector": []}
    for gid, t in _corpus_tables():
        taken[_paths(t)].append(gid)
        if t._tails is not None:
            assert t._tails == ()
            kernel.mul(t, t.identity, t.identity)
            assert len(t._tails) == 5
    assert taken == {"closed form": CLOSED_FORM_CORPUS,
                     "tail tables": TAIL_TABLE_CORPUS, "collector": []}


def _check_tail_tables(t):
    """Every entry of F_{i,e} against the plain collector on the single
    syllable (i, e), and every entry of S against its product of the
    vector by itself.  Returns whether some F_{i,e} differs from F_{i,1}
    iterated e times, as on tables that present no group."""
    index, elements, sizes, steps, squares = t._tail_tables()
    assert [index[v] for v in elements] == list(range(len(elements)))
    assert len(squares) == len(elements)
    for r, u in enumerate(elements):
        assert squares[r] == index[_reference_mul(t, u, u)], u
    assert sizes == tuple(math.prod(t.orders[i:]) for i in range(t.n + 1))
    iterated_differs = False
    for i, F in enumerate(steps):
        assert len(F) == t.orders[i] and F[0] is None
        for e in range(1, t.orders[i]):
            assert len(F[e]) == sizes[i]
            for r in range(sizes[i]):
                y = elements[r]
                assert not any(y[:i])
                assert elements[F[e][r]] == _reference_collect(t, y, [(i, e)]), (i, e, y)
                walk = r
                for _ in range(e):
                    walk = F[1][walk]
                iterated_differs |= walk != F[e][r]
    return iterated_differs


def test_tail_tables_are_the_collectors_single_syllables():
    """On seeded random tables within the limit, tables that present no
    group among them, and on every corpus group that takes the tables."""
    rng = random.Random(7)
    checked = iterated_differs = 0
    while checked < 60:
        n, orders, pows, conjs = random_tables(rng)
        t = kernel.make_tables(n, orders, pows, conjs)
        if _paths(t) != "tail tables":
            continue
        checked += 1
        iterated_differs += _check_tail_tables(t)
    assert iterated_differs > 0
    for gid, t in _corpus_tables():
        if gid in TAIL_TABLE_CORPUS:
            # these present groups: F_{i,e} is F_{i,1} iterated e times
            assert not _check_tail_tables(t), gid


@pytest.mark.parametrize("gid", ["abelian-2-1_1_1", "d16xc2", "wreath-81"])
def test_tail_tables_match_reference_on_every_pair(gid):
    t = dict(_corpus_tables())[gid]
    assert _paths(t) == "tail tables"
    elements = list(itertools.product(*[range(m) for m in t.orders]))
    for u in elements:
        assert kernel.inv(t, u) == _reference_inv(t, u), u
        for v in elements:
            assert kernel.mul(t, u, v) == _reference_mul(t, u, v), (u, v)


@pytest.mark.parametrize("gid", TAIL_TABLE_CORPUS)
def test_power_matches_reference_on_every_element(gid):
    """Every element to every exponent -50..50: the squarings read S, the
    accumulator products step the tail tables."""
    t = dict(_corpus_tables())[gid]
    assert _paths(t) == "tail tables"
    for u in itertools.product(*[range(m) for m in t.orders]):
        for k in range(-50, 51):
            assert kernel.power(t, u, k) == _reference_power(t, u, k), (u, k)


@pytest.mark.parametrize("gid", ["d16xc2", "wreath-81"])
def test_element_operations_match_reference(gid):
    """`Element.order` on every element, `conjugate` and `commutator` on
    every pair, against the plain collector."""
    from pgforge import corpus

    G = {e.id: e for e in corpus.builtin_corpus(validate=False)}[gid].presentation
    t = kernel.make_tables(G.n_gens, G.rel_orders, G.pow_words, G.conj_words)
    elements = list(G.elements())
    for x in elements:
        v, order = x.vec, 1
        while any(v):
            v = _reference_power(t, v, G.prime)
            order *= G.prime
        assert x.order() == order, x
        xinv = _reference_inv(t, x.vec)
        for y in elements:
            yinv = _reference_inv(t, y.vec)
            assert x.conjugate(y).vec == _reference_product(t, [yinv, x.vec, y.vec])
            assert x.commutator(y).vec == _reference_product(
                t, [xinv, yinv, x.vec, y.vec]), (x, y)


def test_an_interrupted_build_stores_no_tables(monkeypatch):
    """A build stopped while it fills S leaves `_tails` at (), so the
    next call builds the tables in full instead of reading a short S."""
    t = dict(_corpus_tables())["wreath-81"]
    assert t._tails == ()
    step = kernel._step

    def interrupted(sizes, steps, r, v):
        if r == 40:
            raise KeyboardInterrupt
        return step(sizes, steps, r, v)

    monkeypatch.setattr(kernel, "_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        kernel.power(t, t.identity, 2)
    assert t._tails == ()
    monkeypatch.setattr(kernel, "_step", step)
    for u in itertools.product(*[range(m) for m in t.orders]):
        assert kernel.power(t, u, 2) == _reference_power(t, u, 2), u


def test_shared_hands_out_the_tail_tables_tuples():
    """`_shared` returns its argument until the tail tables are built and
    on the other paths, and the tables' equal tuple after;
    `PcPresentation.element` holds that tuple."""
    from pgforge import corpus

    tables = dict(_corpus_tables())
    t = tables["wreath-81"]
    v = (1, 2, 0, 1)
    assert kernel._shared(t, v) is v
    w = kernel.mul(t, v, t.identity)
    assert w == v and w is not v
    assert kernel._shared(t, (1, 2, 0, 1)) is w
    for gid in ("dihedral-16", "extraspecial-3-exp3"):
        t = tables[gid]
        t._tails = None  # withheld; the closed form has none
        u = tuple(1 for _ in t.orders)
        kernel.mul(t, u, u)
        assert kernel._shared(t, u) is u
    G = corpus.heisenberg_like(3).presentation
    x = G.element((2, 0, 1, 1))
    y = x * G.identity()
    assert G.element([2, 0, 1, 1]).vec is y.vec


@pytest.mark.parametrize("gid, path", [("dihedral-16", "closed form"),
                                       ("wreath-81", "tail tables"),
                                       ("wreath-81", "collector")])
def test_list_operands_give_the_tuple_results(gid, path):
    """`mul`, `inv`, `power` and `product` take lists as well as tuples
    and answer with the same tuples, on every path."""
    t = dict(_corpus_tables())[gid]
    if path == "collector":
        t._tails = None
    assert _paths(t) == path
    if gid == "wreath-81":
        assert kernel.mul(t, [1, 0, 0, 0], (0, 1, 0, 0)) == (1, 1, 0, 0)
    rng = random.Random(13)
    for _ in range(40):
        u = tuple(rng.randrange(m) for m in t.orders)
        v = tuple(rng.randrange(m) for m in t.orders)
        k = rng.randint(-9, 9)
        for got, want in [(kernel.mul(t, list(u), list(v)), _reference_mul(t, u, v)),
                          (kernel.mul(t, list(u), v), _reference_mul(t, u, v)),
                          (kernel.inv(t, list(u)), _reference_inv(t, u)),
                          (kernel.power(t, list(u), k), _reference_power(t, u, k)),
                          (kernel.product(t, [list(u), list(v), u]),
                           _reference_product(t, [u, v, u])),
                          (kernel.product(t, (list(u),)), u)]:
            assert type(got) is tuple and got == want, (u, v, k)


def test_the_limit_separates_tail_tables_from_the_collector():
    """The limit counts entries, sum_i (orders[i] - 1) * |G_i|: 8 190 for
    2^12 builds the tail tables, 16 382 for 2^13 keeps the collector, as
    does one generator of order 4 096 (4 095 * 4 096), while one of order
    64 (63 * 64) builds them.  Either way the output is the collector's."""
    assert kernel.TAIL_TABLE_LIMIT == 2 ** 13
    rng = random.Random(11)
    for orders, path in [([2] * 12, "tail tables"), ([2] * 13, "collector"),
                         ([4096], "collector"), ([64], "tail tables")]:
        n, orders, pows, conjs = random_tables(rng, orders)
        t = kernel.make_tables(n, orders, pows, conjs)
        assert _paths(t) == path
        for vec, word, u, k in random_cases(rng, n, orders, 150):
            assert kernel.mul(t, vec, u) == _reference_mul(t, vec, u)
            assert kernel.inv(t, vec) == _reference_inv(t, vec)
            assert kernel.power(t, vec, k) == _reference_power(t, vec, k)
        assert (t._tails is None) == (path == "collector")
