"""Reference arithmetic made apart from pgforge.

Nothing here imports pgforge.  Two families of presentations have a
multiplication in closed form on normal-form exponent vectors:

* ``Metacyclic``: x1^m = x2^c, x2^n = 1, x2^{x1} = x2^R, times any number of
  further generators that are central and appear in no relation.  Covers
  the dihedral, quaternion, semidihedral, modular and metacyclic families,
  g64, liebeck128, g243, the exponent-p^2 extraspecial groups, rank-two
  abelian groups and D16 x C2.
  (i, j)(k, l) = ((i + k) mod m, (j R^k + l + c floor((i + k) / m)) mod n).
* ``Chain``: x1 of order p acting on commuting generators y1, ..., yk of
  order p by y_i^{x1} = y_i y_{i+1}.  Covers the exponent-p extraspecial
  groups (k = 2) and the order-81 class-3 wreath shape (k = 3).

Each form recognises its shape from a presentation's raw relation data
(relative orders, power words, the flat conjugation table), so the
benchmark can check the program's answers against it.
"""

from __future__ import annotations

import itertools
from math import comb


class FiniteForm:
    """Shared brute-force group theory over a closed-form multiplication."""

    prime: int
    orders: tuple

    @property
    def order(self):
        out = 1
        for m in self.orders:
            out *= m
        return out

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        return list(itertools.product(*(range(m) for m in self.orders)))

    def power(self, u, e):
        if e < 0:
            u, e = self.inv(u), -e
        acc, sq = self.identity, u
        while e:
            if e & 1:
                acc = self.mul(acc, sq)
            e >>= 1
            if e:
                sq = self.mul(sq, sq)
        return acc

    def conj(self, x, g):
        """g^-1 x g"""
        return self.mul(self.mul(self.inv(g), x), g)

    def comm(self, x, y):
        """x^-1 y^-1 x y"""
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def elt_order(self, u):
        o, x = 1, u
        while any(x):
            x = self.power(x, self.prime)
            o *= self.prime
        return o

    def closure(self, gens):
        """The subgroup generated by `gens`, as a frozenset."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = [g for g in gens if any(g)]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def center(self):
        els = self.elements()
        gens = self.generators()
        return frozenset(
            x for x in els if all(self.mul(x, g) == self.mul(g, x) for g in gens)
        )

    def generators(self):
        n = len(self.orders)
        return [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]

    def normal_closure(self, gens):
        sub = self.closure(gens)
        while True:
            bigger = self.closure(
                list(sub) + [self.conj(x, g) for x in sub for g in self.generators()]
            )
            if len(bigger) == len(sub):
                return sub
            sub = bigger

    def frattini(self):
        """G^p G', as the normal closure of p-th powers and commutators."""
        els = self.elements()
        gens = self.generators()
        return self.normal_closure(
            [self.power(x, self.prime) for x in els]
            + [self.comm(a, b) for a in gens for b in gens]
        )

    def omega1(self, sub):
        return self.closure([x for x in sub if not any(self.power(x, self.prime))])

    def is_normal(self, sub):
        return all(self.conj(x, g) in sub for x in sub for g in self.generators())

    def invariants(self, abelian_sub):
        """Invariant factors of an abelian subgroup, from element-order
        counts, largest first."""
        p = self.prime
        orders = [self.elt_order(x) for x in abelian_sub]
        factors = []
        k = 1
        prev_rank = 0
        ranks = []
        while p ** (k - 1) < max(orders):
            cnt = sum(1 for o in orders if o <= p ** k)
            r = log_p(cnt, p)
            ranks.append(r - prev_rank)
            prev_rank = r
            k += 1
        ranks.append(0)
        for k in range(1, len(ranks)):
            factors.extend([p ** k] * (ranks[k - 1] - ranks[k]))
        return tuple(sorted(factors, reverse=True))

    def lower_central_orders(self):
        els = self.elements()
        cur = frozenset(els)
        out = [len(cur)]
        while len(cur) > 1:
            nxt = self.normal_closure(
                [self.comm(x, g) for x in cur for g in self.generators()]
            )
            if len(nxt) == len(cur):
                raise ValueError("lower central series stalled")
            cur = nxt
            out.append(len(cur))
        return out

    def upper_central_orders(self):
        els = self.elements()
        gens = self.generators()
        cur = frozenset([self.identity])
        out = [1]
        while len(cur) < len(els):
            nxt = frozenset(
                x for x in els if all(self.comm(x, g) in cur for g in gens)
            )
            if len(nxt) == len(cur):
                raise ValueError("upper central series stalled")
            cur = nxt
            out.append(len(cur))
        return out

    def subgroup_lattice(self, max_gens):
        """Every subgroup generated by at most `max_gens` elements."""
        els = self.elements()
        seen = {frozenset([self.identity])}
        for k in range(1, max_gens + 1):
            for combo in itertools.combinations(els, k):
                seen.add(self.closure(combo))
        return seen


def is_power_of(n, p):
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def log_p(n, p):
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def _relation_data(pres):
    return pres.prime, tuple(pres.rel_orders), tuple(pres.pow_words), tuple(pres.conj_words)


def _central_tail_ok(n_gens, pows, conjs, start):
    """Generators from `start` on appear in no relation."""
    for k in range(start, n_gens):
        if pows[k]:
            return False
        for i in range(n_gens):
            if i != k and conjs[min(i, k) * n_gens + max(i, k)] is not None:
                return False
    for w in pows[:start]:
        if any(g >= start for g, _ in w):
            return False
    return True


class Metacyclic(FiniteForm):
    def __init__(self, prime, m, n, c, R, tail=()):
        if pow(R, m, n) != 1 % n or (c * (R - 1)) % n:
            raise ValueError("parameters define no group of order m*n")
        self.prime = prime
        self.m, self.n, self.c, self.R = m, n, c, R
        self.orders = (m, n) + tuple(tail)
        self.tail = tuple(tail)

    @classmethod
    def recognise(cls, pres):
        p, orders, pows, conjs = _relation_data(pres)
        k = len(orders)
        if k < 2 or pows[1]:
            return None
        if pows[0] and (len(pows[0]) != 1 or pows[0][0][0] != 1):
            return None
        w = conjs[1]
        if w is not None and (len(w) != 1 or w[0][0] != 1):
            return None
        if not _central_tail_ok(k, pows, conjs, 2):
            return None
        c = pows[0][0][1] if pows[0] else 0
        R = w[0][1] if w is not None else 1
        try:
            return cls(p, orders[0], orders[1], c, R, orders[2:])
        except ValueError:
            return None

    def mul(self, u, v):
        i, j = u[0], u[1]
        k, l = v[0], v[1]
        q, r = divmod(i + k, self.m)
        head = (r, (j * pow(self.R, k, self.n) + l + self.c * q) % self.n)
        if not self.tail:
            return head
        return head + tuple((a + b) % o for a, b, o in zip(u[2:], v[2:], self.tail))

    def inv(self, u):
        i, j = u[0], u[1]
        k = (-i) % self.m
        q = (i + k) // self.m
        l = (-(j * pow(self.R, k, self.n)) - self.c * q) % self.n
        return (k, l) + tuple((-a) % o for a, o in zip(u[2:], self.tail))


class Chain(FiniteForm):
    def __init__(self, prime, length):
        if length > prime:
            raise ValueError("x1 of order p acts unipotently only up to length p")
        self.prime = prime
        self.k = length
        self.orders = (prime,) * (length + 1)

    @classmethod
    def recognise(cls, pres):
        p, orders, pows, conjs = _relation_data(pres)
        n = len(orders)
        if n < 3 or any(o != p for o in orders) or any(pows):
            return None
        for i in range(n):
            for j in range(i + 1, n):
                w = conjs[i * n + j]
                if i == 0 and j < n - 1:
                    if w != ((j, 1), (j + 1, 1)):
                        return None
                elif w is not None:
                    return None
        try:
            return cls(p, n - 1)
        except ValueError:
            return None

    def _act(self, ys, a):
        """The y-vector conjugated by x1^a."""
        p = self.prime
        return tuple(
            sum(comb(a, t) * ys[i - t] for t in range(i + 1)) % p
            for i in range(len(ys))
        )

    def mul(self, u, v):
        p = self.prime
        moved = self._act(u[1:], v[0])
        return ((u[0] + v[0]) % p,) + tuple((a + b) % p for a, b in zip(moved, v[1:]))

    def inv(self, u):
        p = self.prime
        a = (-u[0]) % p
        ys = self._act(tuple((-y) % p for y in u[1:]), a)
        return (a,) + ys


def recognise(pres):
    """The closed form of a presentation, or None."""
    return Metacyclic.recognise(pres) or Chain.recognise(pres)


# -- automorphisms ----------------------------------------------------------------


def apply_map(form, images, x):
    """The image of x = prod g_i^{e_i} under g_i -> images[i]."""
    out = form.identity
    for img, e in zip(images, x):
        if e:
            out = form.mul(out, form.power(img, e))
    return out


def automorphism_error(form, images):
    """None if g_i -> images[i] extends to an automorphism, else why not.
    Multiplicativity against every generator implies it everywhere."""
    els = form.elements()
    table = {x: apply_map(form, images, x) for x in els}
    if len(set(table.values())) != len(els):
        return "images do not give a bijection"
    for x in els:
        for g, img in zip(form.generators(), images):
            if table[form.mul(x, g)] != form.mul(table[x], img):
                return f"not a homomorphism at {x} * {g}"
    return None


def map_order(form, images):
    start = tuple(form.generators())
    cur = tuple(images)
    k = 1
    while cur != start:
        cur = tuple(apply_map(form, images, c) for c in cur)
        k += 1
    return k


def is_inner_map(form, images):
    gens = form.generators()
    return any(
        all(form.conj(g, h) == img for g, img in zip(gens, images))
        for h in form.elements()
    )


class AutTable:
    """Every automorphism of a two-generator Metacyclic form, by brute
    force over image pairs, and the inner ones."""

    def __init__(self, form: Metacyclic):
        if form.tail:
            raise ValueError("automorphism tables need a two-generator form")
        self.form = f = form
        els = f.elements()
        order_of = {x: f.elt_order(x) for x in els}
        x1, x2 = (1, 0), (0, 1)
        phi = f.frattini()
        coset = _coset_labels(f, phi)
        want = f.order // len(phi)
        autos = []
        for b in els:
            if order_of[b] != order_of[x2] or any(f.power(b, f.n)):
                continue
            bc = f.power(b, f.c)
            bR = f.power(b, f.R)
            for a in els:
                if order_of[a] != order_of[x1]:
                    continue
                if f.power(a, f.m) != bc or f.conj(b, a) != bR:
                    continue
                # a, b generate G iff they span G / Frattini
                span = {
                    coset[f.mul(f.power(a, s), f.power(b, t))]
                    for s in range(f.prime) for t in range(f.prime)
                }
                if len(span) == want:
                    autos.append((a, b))
        self.autos = autos
        self.inner = {(f.conj(x1, g), f.conj(x2, g)) for g in els}

    def fixing(self, subgroup, order):
        """Image pairs of every automorphism of exactly `order` that fixes
        `subgroup` pointwise."""
        f = self.form
        return {
            imgs for imgs in self.autos
            if all(apply_map(f, imgs, x) == x for x in subgroup)
            and map_order(f, imgs) == order
        }


def _coset_labels(f, sub):
    label = {}
    for x in f.elements():
        if x in label:
            continue
        for s in sub:
            label[f.mul(x, s)] = x
    return label


# -- closed formulas -----------------------------------------------------------


def gaussian_binomial(k, i, p):
    num = den = 1
    for t in range(i):
        num *= p ** (k - t) - 1
        den *= p ** (t + 1) - 1
    return num // den


def elementary_abelian_subgroups(k, p):
    """Number of subgroups of (Z/p)^k."""
    return sum(gaussian_binomial(k, i, p) for i in range(k + 1))


def dihedral_normal_subgroups(order):
    """Normal subgroups of the dihedral group of order 2^n: the tau(2^{n-1})
    subgroups of the rotation group, plus two maximal dihedral subgroups
    and the whole group."""
    n = log_p(order, 2)
    return n + 3


# -- references for the command line's answers ---------------------------------


def parse_word(form, text):
    """An element from a word such as `x2^2*x3`."""
    out = form.identity
    gens = form.generators()
    for term in text.strip().split("*"):
        base, _, exp = term.partition("^")
        out = form.mul(out, form.power(gens[int(base[1:]) - 1], int(exp or 1)))
    return out


def _centralizer(form, sub, within):
    return frozenset(x for x in within if all(form.mul(x, y) == form.mul(y, x) for y in sub))


def profile(form):
    """Every field of `forge inspect`'s structural profile, by brute force."""
    p = form.prime
    els = form.elements()
    gens = form.generators()
    Z = form.center()
    lower = form.lower_central_orders()
    upper = form.upper_central_orders()
    cls = len(lower) - 1
    n = log_p(form.order, p)
    phi = form.frattini()
    derived = form.normal_closure([form.comm(a, b) for a in gens for b in gens])
    agemo = form.closure([form.power(x, p ** (2 if p == 2 else 1)) for x in els])
    omega_all = form.closure([x for x in els if not any(form.power(x, p))])
    z_phi = _centralizer(form, phi, phi)
    inv = form.invariants(Z)
    return {
        "order": form.order,
        "prime": p,
        "abelian": cls <= 1,
        "class": cls,
        "coclass": n - cls if n > 2 else None,
        "d": log_p(form.order // len(phi), p),
        "d_center": len(inv),
        "center_invariants": list(inv),
        "exponent": max(form.elt_order(x) for x in els),
        "powerful": derived <= agemo,
        "p_central": omega_all == form.omega1(Z),
        "ds_condition": _centralizer(form, z_phi, els) == phi,
        "upper_series_orders": upper,
        "lower_series_orders": lower,
    }


def cohomology_reference(form, normal_gens):
    """Sizes of the Z(N) module of G/N and whether Theorem 3.6 promises
    nonzero H0 and H1: N nontrivial, G/N not cyclic, and G of class at
    most 2 or p odd with G/Z(G) p-central."""
    p = form.prime
    els = form.elements()
    gens = form.generators()
    N = form.closure(normal_gens)
    if not form.is_normal(N):
        raise ValueError("the generators span a non-normal subgroup")
    A = _centralizer(form, N, N)
    fixed = [a for a in A if all(form.conj(a, g) == a for g in gens)]
    reps, covered = [], set()
    for g in els:
        if g not in covered:
            reps.append(g)
            covered.update(form.mul(g, x) for x in N)
    trace = set()
    for a in A:
        acc = form.identity
        for r in reps:
            acc = form.mul(acc, form.conj(a, r))
        trace.add(acc)
    Z = form.center()
    cls = len(form.lower_central_orders()) - 1
    p_central_quotient = all(
        all(form.comm(x, g) in Z for g in gens)
        for x in els if form.power(x, p) in Z
    )
    cyclic = form.order // len(form.closure(list(N) + list(form.frattini()))) <= p
    return {
        "normal_order": len(N),
        "q_order": form.order // len(N),
        "a_invariants": form.invariants(A),
        "b1_size": len(A) // len(fixed),
        "h0_order": len(fixed) // len(trace),
        "theorem_3_6_applies": len(N) > 1 and not cyclic
        and (cls <= 2 or (p > 2 and p_central_quotient)),
    }
