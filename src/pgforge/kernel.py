"""The collection kernel, in pure Python.

Normal forms are tuples of exponents (e_0, ..., e_{n-1}) with
0 <= e_i < orders[i]; `mul`, `inv`, `power`, `product` and `collect`
also take any other sequence of exponents as an operand, and return
tuples.  Words are sequences of (generator, exponent) pairs with
generator indices 0-based and exponents >= 0.

BACKEND is always "python".  It is kept, as `pgforge.KERNEL_BACKEND` and
as the reports' `kernel_backend`, so that those stay byte for byte what
they were when a compiled backend could be installed instead.

The relation tables encode, for each generator i, the normal word equal to
g_i^orders[i] (in generators of index > i) and, for each pair i < j, the
normal word equal to g_j^{g_i} (in generators of index >= j, or None when
the conjugate is g_j itself).  Collection moves the leftmost unprocessed
syllable into the collected prefix; terms the syllable must pass are pushed
back on the stack after conjugation.  Because conjugation and power words
never introduce indices below the syllable being processed, the procedure
terminates.

KernelTables precomputes, once per presentation, what the inner loop
would otherwise rebuild on every syllable:

- blockers[j]: the generators k > j whose conjugate by g_j is not None.
  The tail right of g_j commutes with it exactly when every blocker slot
  of the exponent vector is zero, so the test scans these few slots.
- the power words, stored reversed, ready to be pushed onto the stack.
- moves[j][k], what one pass of g_j over g_k^e pushes: either the
  reversed conjugate word, pushed e times, or an integer c standing for
  the single syllable (k, c*e).  A missing conjugate is c = 1.  A
  conjugate (k, c) with c > 0, where g_k itself has no blockers and no
  power word, is also stored as c: each of the e pushed copies of (k, c)
  would be popped in turn and only set a[k] to (a[k] + c) mod orders[k],
  pushing nothing, so one syllable (k, c*e) leaves the same vector.  The
  conjugate's only syllable must be on g_k itself for this to hold.

Apart from that fusion, collection applies the same rewrites in the same
order as the plain stack collector, which tests/test_kernel_parity.py
keeps as an oracle, so the outputs of the two agree on presentations and
on arbitrary tables alike.

Closed form for a cyclic extension of a cyclic group.  When n = 2, the
conjugate x2^x1 is the single syllable x2^r (or absent, r = 1), x2 has
no power word and x1's power word is x2^s (or absent, s = 0), `mul` and
`inv` skip the collector.  The tables record `cyclic` = (o1, o2, s, R),
R[c] = r^c mod o2 for 0 <= c < o1, and only when s*r = s (mod o2).
Then the collector turns (a, b)*(c, d) into

- (a + c, b*r^c + d) when a + c < o1;
- (a + c - o1, (b*r^w + s)*r^(c - w) + d) otherwise, with w = o1 - a,
  which is (a + c - o1, b*r^c + s + d) since s*r = s;

second entries mod o2.  Why this is the collector's output on every
such table, consistent or not: each x1 carried past x2^b leaves
x2^(b*r), and x2^0 passes unchanged, so whether the collector moves the
x1's one at a time (b != 0) or merges them (b = 0), x2's exponent after k
of them is b*r^k; the x1 that completes x1^o1 adds x2^s, which s*r = s
lets pass the remaining x1's unchanged.  Without s*r = s the two part:
with o1 = o2 = 3, r = 2 and s = 1 the collector merges (2, 0)*(2, 0)
into (1, 1), leaving x2^s where the closed form conjugates it.  So such
tables take the tail tables or the collector, as every other table
does.  Nothing in the argument asks r to be a unit mod o2, so a table on
which x1 does not act on <x2> by an automorphism (never a consistent
one) takes the closed form too.  `power` and `product` go through
`mul` and `inv` here.

Tail tables for every other table whose tables hold at most
TAIL_TABLE_LIMIT entries (counted below).  Rank the normal vectors in lexicographic order and let G_i be
those that are zero left of index i: they are the first
|G_i| = orders[i] * ... * orders[n-1] ranks, and the rank of a vector
mod |G_i| is the rank of its tail a[i:].  For each generator i and
exponent 1 <= e < orders[i] the tables hold F_{i,e}, which sends the
rank of each y in G_i to the rank of the collector's normal form of
y * g_i^e.  `mul` and the build of `inv`'s table read their answers
from these maps, and the answers are the collector's on every table,
consistent or not:

(a) `_run` finishes a popped syllable, and everything that syllable
    pushes, before it pops the syllable below it: the stack is last in,
    first out.  `mul(u, v)` pushes (0, v_0) on top of (1, v_1), and so
    on, so its output is u with the single syllables (0, v_0),
    (1, v_1), ... collected in that order, each on the vector the one
    before left.  `inv`'s loop already collects its syllables
    (i, orders[i] - e_i) one at a time.
(b) Collecting a syllable (j, e) reads and writes a[j] and a[k] for
    k > j only, and pushes only syllables of index >= j: conjugate and
    power words lie above j, and the rest of g_j^e is (j, e - 1).  So
    collecting (i, e) never reads or changes a[:i].  It acts on the tail
    a[i:] alone, whatever the prefix, and F_{i,e} needs only the |G_i|
    tails.  Each entry is built by `_run` on that one syllable, so the
    tables hold sum_i (orders[i] - 1) * |G_i| entries: about p * |G|
    when the relative orders are p, but orders[0] * |G| on one generator
    of order orders[0], which is why the limit counts entries.

So one syllable (i, e) on a rank r is the step r += F_{i,e}[t] - t
with t = r mod |G_i|, and `mul` is a dict lookup of u's rank, one step
per nonzero entry of v, and an index into the normal forms.  The
build runs `inv`'s loop on ranks (`_inverse_rank`): the syllable
(i, orders[i] - e_i) brings a[i] to 0, so each step leaves a rank below
|G_{i+1}| for the next, and the inverse's rank is the sum of its
exponents k_i times |G_{i+1}|.

Beside the F maps the tables hold the squaring table S: S[r] is the
rank of `mul` of the r-th normal form by itself, |G| entries in all,
computed from the F maps in the same build, before the tables are
stored.  `power` takes each squaring of its square-and-multiply loop
from S and each accumulator product as the F steps `mul` takes, on
ranks.  Its output is what the loop of `mul` calls gives, on every
table, consistent or not: that loop sets sq_0 = u and
sq_{j+1} = mul(sq_j, sq_j), which depends on sq_j alone, so by
induction S applied j times to u's rank is sq_j's rank; each
accumulator product mul(acc, sq_j) is the same steps on the same ranks;
and which products are taken depends on the bits of k only.

The tables hold the inverse table I too: I[r] is the rank of `inv` of
the r-th normal form, |G| entries, built with S by `_inverse_rank` as
above.  That loop reads u's rank and the F maps alone, so `inv`
answers elements[I[rank(u)]], the collector's output on every table,
consistent or not.  `power` with k < 0 squares and multiplies
from inv(u), whose rank is I[rank(u)]: starting from that rank rather
than from inv(u)'s tuple, whose lookup gives the same rank, leaves
every later step as it is.  The closed form and the collector invert u
first.

`product(tables, vecs)` is vecs[0] * vecs[1] * ..., bracketed from the
left as nested calls mul(mul(a, b), c) are.  On the tail tables it
keeps the running product as a rank: `mul` answers elements[r] and the
next `mul` looks r up again, so skipping that round trip leaves every
step as it was.  On the closed form and the collector it chains `mul`.

The tables depend on the presentation only, never on operands.  They
are built in full on the first `mul`, `inv`, `power` or `product` that
reaches them, never by `make_tables`, so a presentation that is only
built, compared or collected pays nothing.  The build costs one
collection per entry: 7-14 ms for the 8 190 entries of the elementary
abelian group of order 4 096 (0.9 MB of tables), 14-28 ms for the
16 382 of order 8 192, and
67 ms to 0.1 s for 8 190 entries on tables whose single syllables need
long collections (python backend, 2-core x86-64 host, whose speed
drifts by up to a half between runs); S and I add |G| ranks each, one
`mul` and one walk of `inv`'s loop per normal form.  The limit of 8 192
entries bounds that cost and the tables' size.  Above it, `mul`, `inv`,
`power` and `product` keep the collector; `collect` always does.  Once the tables are built, every
product is one of their tuples, and `_shared` hands out the tuple
equal to a given normal form, so that `PcPresentation.element` holds it
instead of a copy of its own.
"""

import itertools
import math

BACKEND = "python"

# tail tables are built when they hold at most this many entries
TAIL_TABLE_LIMIT = 1 << 13


class KernelTables:
    """Flattened relation tables consumed by the collector.

    `_tails` holds the tail tables once built, () until then, and None
    where `mul`, `inv`, `power` and `product` take the closed form or
    the collector.  Setting it to None withholds the tables, which the
    tests do to keep the collector under test."""

    __slots__ = ("n", "orders", "pows", "conjs", "identity",
                 "blockers", "rev_pows", "moves", "cyclic", "_tails")

    def __init__(self, n, orders, pows, conjs):
        self.n = n
        self.orders = tuple(orders)
        self.pows = tuple(tuple(w) for w in pows)
        # conjs is flat: entry i*n + j holds the word for g_j^{g_i}, i < j
        self.conjs = tuple(
            tuple(w) if w is not None else None for w in conjs
        )
        self.identity = (0,) * n
        self.blockers = tuple(
            tuple(k for k in range(j + 1, n) if self.conjs[j * n + k] is not None)
            for j in range(n)
        )
        self.rev_pows = tuple(w[::-1] for w in self.pows)
        moves = []
        for j in range(n):
            row = [None] * n
            for k in range(j + 1, n):
                w = self.conjs[j * n + k]
                if w is None:
                    row[k] = 1
                elif (len(w) == 1 and w[0][0] == k and type(w[0][1]) is int
                        and w[0][1] > 0 and not self.blockers[k]
                        and not self.pows[k]):
                    row[k] = w[0][1]
                else:
                    row[k] = w[::-1]
            moves.append(tuple(row))
        self.moves = tuple(moves)
        self.cyclic = self._cyclic_extension()
        entries = sum((m - 1) * math.prod(self.orders[i:])
                      for i, m in enumerate(self.orders))
        fits = self.cyclic is None and entries <= TAIL_TABLE_LIMIT
        self._tails = () if fits else None

    def _cyclic_extension(self):
        """(o1, o2, s, R) for the closed form of `mul`, or None."""
        if self.n != 2 or self.pows[1] or self.moves[0][1].__class__ is not int:
            return None
        pw = self.pows[0]
        if pw and not (len(pw) == 1 and pw[0][0] == 1 and type(pw[0][1]) is int
                       and pw[0][1] >= 0):
            return None
        o1, o2 = self.orders
        r = self.moves[0][1]
        s = pw[0][1] % o2 if pw else 0
        if s * r % o2 != s:
            return None
        R = [1]
        for _ in range(o1 - 1):
            R.append(R[-1] * r % o2)
        return o1, o2, s, tuple(R)

    def _tail_tables(self):
        """Build, store and return (index, elements, sizes, steps,
        squares, inverses): the normal forms in lexicographic order and
        their ranks, sizes[i] = |G_i| (sizes[n] = 1), steps[i][e] =
        F_{i,e}: the rank of the collector's output on the t-th vector
        times g_i^e at t, squares[r] = S[r], the rank of `mul` of the
        r-th vector by itself, and inverses[r] = I[r], the rank of `inv`
        of the r-th vector."""
        orders = self.orders
        elements = tuple(itertools.product(*[range(m) for m in orders]))
        index = {v: r for r, v in enumerate(elements)}
        sizes = [len(elements)]
        steps = []
        for i, m in enumerate(orders):
            tails = elements[:sizes[i]]
            F = [None]
            for e in range(1, m):
                ranks = []
                for y in tails:
                    a = list(y)
                    _run(self, a, [(i, e)])
                    ranks.append(index[tuple(a)])
                F.append(ranks)
            steps.append(F)
            sizes.append(sizes[i] // m)
        sizes = tuple(sizes)
        squares = tuple(_step(sizes, steps, r, x) for r, x in enumerate(elements))
        inverses = tuple(_inverse_rank(orders, sizes, steps, r)
                         for r in range(len(elements)))
        self._tails = index, elements, sizes, tuple(steps), squares, inverses
        return self._tails


def make_tables(n, orders, pows, conjs):
    return KernelTables(n, orders, pows, conjs)


def _shared(tables, vec):
    """The tail tables' own tuple equal to the normal form vec once they
    are built, else vec: products return those tuples, and an element
    made from a vector can hold one too instead of a copy."""
    tails = tables._tails
    return tails[1][tails[0][vec]] if tails else vec


def _rank(index, u):
    """The rank of the normal form u, given as a tuple or as any other
    sequence, on the tail tables."""
    try:
        return index[u]
    except TypeError:  # an unhashable operand, such as a list
        return index[tuple(u)]


def _step(sizes, steps, r, v):
    """The rank of the r-th normal form times v on the tail tables: one
    F step per nonzero entry of v."""
    i = 0
    for e in v:
        if e:
            s = sizes[i]
            t = r % s
            r += steps[i][e][t] - t
        i += 1
    return r


def _inverse_rank(orders, sizes, steps, r):
    """The rank of `inv` of the r-th normal form on the tail tables:
    clear a[i] from the lowest index up with the step (i, m_i - e_i),
    summing k_i * |G_{i+1}|."""
    out = 0
    for i, m in enumerate(orders):
        q = sizes[i + 1]
        e = r // q
        if e:
            k = m - e
            out += k * q
            r = steps[i][k][r]
    return out


def _run(tables, a, stack):
    """Collect the stack into the exponent list a, in place.

    The top of the stack (the end of the list) is the leftmost
    unprocessed syllable.
    """
    n = tables.n
    orders = tables.orders
    blockers = tables.blockers
    rev_pows = tables.rev_pows
    moves = tables.moves
    push = stack.append
    pop = stack.pop
    extend = stack.extend
    while stack:
        j, e = pop()
        for k in blockers[j]:
            if a[k]:
                break
        else:
            # everything right of j commutes with g_j: merge exponents
            m = orders[j]
            tot = a[j] + e
            if tot < m:
                a[j] = tot
                continue
            q, a[j] = divmod(tot, m)
            pw = rev_pows[j]
            if not pw:
                continue
            # a = prefix * g_j^rem * pw^q * tail
            for k in range(n - 1, j, -1):
                ek = a[k]
                if ek:
                    a[k] = 0
                    push((k, ek))
            extend(pw * q)
            continue
        # move a single g_j left past the tail, conjugating it
        if e > 1:
            push((j, e - 1))
        row = moves[j]
        for k in range(n - 1, j, -1):
            ek = a[k]
            if ek:
                a[k] = 0
                w = row[k]
                if w.__class__ is int:
                    push((k, w * ek))
                else:
                    extend(w * ek)
        aj = a[j] + 1
        if aj == orders[j]:
            a[j] = 0
            extend(rev_pows[j])
        else:
            a[j] = aj


def collect(tables, vec, word):
    """Normal form of vec * word."""
    a = list(vec)
    stack = [(g, e) for g, e in word if e]
    stack.reverse()
    _run(tables, a, stack)
    return tuple(a)


def mul(tables, u, v):
    cyc = tables.cyclic
    if cyc is not None:
        o1, o2, s, R = cyc
        a, b = u
        c, d = v
        a += c
        if a < o1:
            return a, (b * R[c] + d) % o2
        return a - o1, (b * R[c] + s + d) % o2
    tails = tables._tails
    if tails is not None:
        index, elements, sizes, steps, _, _ = tails or tables._tail_tables()
        # `_rank` and `_step` inlined: calling them costs `mul` a tenth
        try:
            r = index[u]
        except TypeError:  # an unhashable operand, such as a list
            r = index[tuple(u)]
        i = 0
        for e in v:
            if e:
                s = sizes[i]
                t = r % s
                r += steps[i][e][t] - t
            i += 1
        return elements[r]
    a = list(u)
    _run(tables, a, [(i, v[i]) for i in range(len(v) - 1, -1, -1) if v[i]])
    return tuple(a)


def inv(tables, u):
    """Normal form of u^{-1}.

    Clears exponents of u from the lowest index up: multiplying by
    g_i^{orders[i] - e_i} sends the product into the span of higher
    generators, so the appended syllables form the inverse word.
    The appended syllables have increasing indices and exponents
    0 < k < orders[i], so the word already is a normal form: its
    exponents are the inverse's vector, with no collection left to do.
    On the tail tables that loop ran once per normal form in the build,
    and `inv` reads its answer from I.
    """
    cyc = tables.cyclic
    if cyc is not None:
        # (a, b)*(o1 - a, 0) = (0, b*r^(o1 - a) + s), then negate the rest
        o1, o2, s, R = cyc
        a, b = u
        if not a:
            return 0, -b % o2
        return o1 - a, -(b * R[o1 - a] + s) % o2
    tails = tables._tails
    if tails is not None:
        index, elements, _, _, _, inverses = tails or tables._tail_tables()
        return elements[inverses[_rank(index, u)]]
    orders = tables.orders
    z = list(u)
    a = [0] * tables.n
    for i in range(tables.n):
        e = z[i]
        if e:
            k = orders[i] - e
            if k:
                a[i] = k
                _run(tables, z, [(i, k)])
    return tuple(a)


def power(tables, u, k):
    """u^k by square and multiply, right to left.  The accumulator starts
    at the first set bit instead of at the identity, which saves the
    products 1 * u^(2^j); k = +-1 costs no product.  On the tail tables
    each squaring is one read of S and each accumulator product one step
    per nonzero entry of the square, on ranks; k < 0 starts from u's
    entry of I."""
    if not k:
        return tables.identity
    tails = tables._tails
    if tails is not None:
        index, elements, sizes, steps, squares, inverses = \
            tails or tables._tail_tables()
        r = _rank(index, u)
        if k < 0:
            r = inverses[r]
            k = -k
        while not k & 1:
            r = squares[r]
            k >>= 1
        acc = r
        k >>= 1
        while k:
            r = squares[r]
            if k & 1:
                acc = _step(sizes, steps, acc, elements[r])
            k >>= 1
        return elements[acc]
    if k < 0:
        u = inv(tables, u)
        k = -k
    sq = tuple(u)
    while not k & 1:
        sq = mul(tables, sq, sq)
        k >>= 1
    acc = sq
    k >>= 1
    while k:
        sq = mul(tables, sq, sq)
        if k & 1:
            acc = mul(tables, acc, sq)
        k >>= 1
    return acc


def product(tables, vecs):
    """The left-to-right product vecs[0] * vecs[1] * ... of one or more
    normal forms, bracketed as nested `mul` calls are:
    mul(mul(a, b), c) for (a, b, c).  On the tail tables the running
    product stays a rank: one index lookup for the first operand, then
    one step per nonzero entry of each later one.  Elsewhere it chains
    `mul`."""
    tails = tables._tails
    if tails is not None:
        index, elements, sizes, steps, _, _ = tails or tables._tail_tables()
        r = _rank(index, vecs[0])
        for v in vecs[1:]:
            r = _step(sizes, steps, r, v)
        return elements[r]
    acc = tuple(vecs[0])
    for v in vecs[1:]:
        acc = mul(tables, acc, v)
    return acc
