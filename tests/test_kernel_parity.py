"""Both kernels must agree output-for-output with the plain stack collector.

`_reference_collect`, `_reference_mul`, `_reference_inv` and
`_reference_power` below are the plain collector, kept here verbatim as an
oracle: no precomputed tables, one pushed syllable per rewrite.  The pure
kernel is checked against it on every run; the compiled kernel is checked
against the pure one, built from the shipped _ckernel.c when no extension
is installed (skipped only without a C compiler or Python headers).
"""

import importlib.machinery
import importlib.util
import itertools
import math
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from pgforge import _pykernel


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The compiled kernel: the built extension when there is one, else
    the shipped _ckernel.c compiled into a temporary directory.  The
    compiled copy is loaded under its own spec and never registered as
    pgforge._ckernel, so the backend that pgforge.kernel picks stays as
    it was."""
    try:
        from pgforge import _ckernel
        return _ckernel
    except ImportError:
        pass
    cc = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").exists():
        pytest.skip("compiled kernel not built, and no C compiler or Python headers to build it")
    source = Path(_pykernel.__file__).with_name("_ckernel.c")
    target = tmp_path_factory.mktemp("ckernel") / (
        "_ckernel" + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    build = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_ckernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def random_tables(rng):
    # small sizes: random relation tables need not present a group, and
    # collection cost on junk tables grows quickly
    p = rng.choice([2, 3])
    if rng.random() < 0.2:
        return random_cyclic_extension(rng, p)
    n = rng.randint(1, 4)
    orders = [p ** rng.randint(1, 2) for _ in range(n)]
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
                # a single syllable on g_j: the pure kernel fuses its pushed
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
    or not and s*r = s (mod o2) or not, so some draws take the pure
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
            yield r, s, _pykernel.make_tables(2, [o1, o2], pows, conjs)


def closed_form_precondition(o2, r, s):
    """gcd(r, o2) = 1 and s*r = s (mod o2), with absent r = 1, s = 0."""
    r = 1 if r is None else r
    s = s or 0
    return math.gcd(r, o2) == 1 and s * r % o2 == s


def random_cases(rng, n, orders, count):
    for _ in range(count):
        vec = tuple(rng.randrange(orders[i]) for i in range(n))
        word = [
            (rng.randrange(n), rng.randrange(0, 2 * max(orders)))
            for _ in range(rng.randint(0, 5))
        ]
        u = tuple(rng.randrange(orders[i]) for i in range(n))
        yield vec, word, u, rng.randint(-12, 40)


def test_random_tables_cover_the_fusion_guard():
    """The generator yields fused and unfused single-syllable conjugates,
    conjugates led by a generator above the conjugated one, and
    two-generator cyclic extensions on and off the closed form."""
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        n, orders, pows, conjs = random_tables(rng)
        t = _pykernel.make_tables(n, orders, pows, conjs)
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
    """The pure kernel takes the closed form exactly on the tables that meet
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
                    assert _pykernel.inv(t, u) == _reference_inv(t, u), (o1, o2, r, s, u)
                    for k in (-3, 5):
                        assert _pykernel.power(t, u, k) == _reference_power(t, u, k)
                    for v in elements:
                        assert _pykernel.mul(t, u, v) == _reference_mul(t, u, v), \
                            (o1, o2, r, s, u, v)
            assert (t.cyclic is not None) == closed_form_precondition(o2, r, s), (o1, o2, r, s)
    assert (fast, slow) == (165, 257)


def test_closed_form_parts_from_the_collector_only_where_s_r_is_not_s():
    """The formula, applied off the precondition, is not the collector's
    product on some table with s*r != s; on the tables whose r is not a
    unit but s*r = s it still is, so gcd(r, o2) = 1 restricts the path to
    tables on which x1 acts by an automorphism and is not needed for
    exactness.  The pure kernel takes the collector on both kinds."""
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
    assert (parted, agreed) == ({True: 0, False: 128}, {True: 10, False: 8})


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
        t = _pykernel.make_tables(P.n_gens, P.rel_orders, P.pow_words, P.conj_words)
        if t.cyclic is not None:
            taken.append(entry.id)
    assert taken == CLOSED_FORM_CORPUS
    assert len(taken) == 26


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pure_kernel_matches_reference_on_random_tables(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n, orders, pows, conjs = random_tables(rng)
        t = _pykernel.make_tables(n, orders, pows, conjs)
        for vec, word, u, k in random_cases(rng, n, orders, 15):
            assert _pykernel.collect(t, vec, word) == _reference_collect(t, vec, word)
            assert _pykernel.mul(t, vec, u) == _reference_mul(t, vec, u)
            assert _pykernel.inv(t, vec) == _reference_inv(t, vec)
            assert _pykernel.power(t, vec, k) == _reference_power(t, vec, k)


def test_pure_kernel_matches_reference_on_corpus_groups():
    from pgforge import corpus

    rng = random.Random(98)
    for entry in corpus.builtin_corpus(validate=False):
        P = entry.presentation
        n = P.n_gens
        if n == 0:
            continue
        t = _pykernel.make_tables(n, P.rel_orders, P.pow_words, P.conj_words)
        for _ in range(20):
            u = tuple(rng.randrange(m) for m in P.rel_orders)
            v = tuple(rng.randrange(m) for m in P.rel_orders)
            word = [(g, e) for g, e in zip(range(n), v)]
            rng.shuffle(word)
            k = rng.randint(-9, 9)
            assert _pykernel.collect(t, u, word) == _reference_collect(t, u, word)
            assert _pykernel.mul(t, u, v) == _reference_mul(t, u, v)
            assert _pykernel.inv(t, u) == _reference_inv(t, u)
            assert _pykernel.power(t, u, k) == _reference_power(t, u, k)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_parity_on_random_tables(ckernel, seed):
    rng = random.Random(seed)
    for _ in range(100):
        n, orders, pows, conjs = random_tables(rng)
        tp = _pykernel.make_tables(n, orders, pows, conjs)
        tc = ckernel.make_tables(n, orders, pows, conjs)
        for vec, word, u, k in random_cases(rng, n, orders, 15):
            assert _pykernel.collect(tp, vec, word) == ckernel.collect(tc, vec, word)
            assert _pykernel.mul(tp, vec, u) == ckernel.mul(tc, vec, u)
            assert _pykernel.inv(tp, vec) == ckernel.inv(tc, vec)
            assert _pykernel.power(tp, vec, k) == ckernel.power(tc, vec, k)


def test_parity_on_corpus_groups(ckernel):
    from pgforge import corpus

    rng = random.Random(99)
    for entry in corpus.builtin_corpus(validate=False):
        P = entry.presentation
        n = P.n_gens
        if n == 0:
            continue
        tp = _pykernel.make_tables(n, P.rel_orders, P.pow_words, P.conj_words)
        tc = ckernel.make_tables(n, P.rel_orders, P.pow_words, P.conj_words)
        for _ in range(40):
            u = tuple(rng.randrange(m) for m in P.rel_orders)
            v = tuple(rng.randrange(m) for m in P.rel_orders)
            assert _pykernel.mul(tp, u, v) == ckernel.mul(tc, u, v)
            assert _pykernel.inv(tp, u) == ckernel.inv(tc, u)


def test_pure_kernel_selected_by_env(tmp_path):
    """PGFORGE_PURE=1 forces the pure backend in a fresh interpreter."""
    import os
    import sys

    import pgforge

    # the package need not be installed: point the child at this copy
    src = os.path.dirname(os.path.dirname(os.path.abspath(pgforge.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "from pgforge.kernel import BACKEND; print(BACKEND)"],
        env={"PGFORGE_PURE": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "python"


# sha256 of the _ckernel.pyx that the shipped _ckernel.c was generated from.
# The C file is tracked because Cython is not a dependency; a changed .pyx
# without a regenerated .c would build a stale compiled kernel.
CKERNEL_PYX_SHA256 = "d7744637ada1b8fca7cf212f0279b91e67da16c30b17effb7182a0324833b2e9"


def test_shipped_c_kernel_matches_pyx():
    import hashlib

    package = Path(_pykernel.__file__).parent
    digest = hashlib.sha256((package / "_ckernel.pyx").read_bytes()).hexdigest()
    assert digest == CKERNEL_PYX_SHA256, (
        "_ckernel.pyx changed: regenerate `_ckernel.c` with Cython "
        "(cython -3 src/pgforge/_ckernel.pyx) and update CKERNEL_PYX_SHA256"
    )
    assert (package / "_ckernel.c").read_text().startswith("/* Generated by Cython")
