"""Subgroups as induced (echelonized) generating sequences, quotients with
canonical coset representatives, and desk-scale lattice enumeration.

An induced generating sequence (IGS) holds at most one entry per generator
index; the entry at pivot i has leading exponent exactly p^v for the layer
it generates, and is fully reduced at every later pivot.  That canonical
form is unique per subgroup, so subgroup equality is tuple equality and
membership is decided by stripping, never by enumeration.
"""

from __future__ import annotations

import itertools
from math import gcd

from pgforge import kernel
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element, PcPresentation
from pgforge.errors import CapExceeded, DomainError, MixedPresentationError


def _leading(vec, start=0):
    """The first index at or after `start` with a nonzero exponent, or
    None."""
    for i in range(start, len(vec)):
        if vec[i]:
            return i
    return None


def _sift(t, table, vec):
    """Strip vec through a pivot table (entry at its leading index, or
    None); the remainder is the identity exactly when vec lies in the
    subgroup the table generates.  A strip at pivot i clears index i and
    touches no earlier one, so each scan starts after the last pivot."""
    i = _leading(vec)
    while i is not None:
        u = table[i]
        if u is None:
            return vec
        step = u[i]  # a p-power by normalization
        if vec[i] % step:
            return vec
        q = vec[i] // step
        vec = kernel.mul(t, kernel.power(t, u, -q), vec)
        i = _leading(vec, i + 1)
    return vec


class _IgsBuilder:
    """Noncommutative row reduction over the polycyclic layers."""

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self.t = pres._tables
        self.table = [None] * pres.n_gens

    def _normalize(self, vec):
        """Unit power of vec so the leading exponent is exactly a p-power."""
        i = _leading(vec)
        m = self.pres.rel_orders[i]
        e = vec[i]
        g = gcd(e, m)
        if e == g:
            return vec
        u = pow(e // g, -1, m // g)
        return kernel.power(self.t, vec, u)

    def sift(self, vec):
        """Strip vec through the table; identity means membership."""
        return _sift(self.t, self.table, vec)

    def add(self, vec):
        """Insert vec, displacing weaker pivots; returns True if changed.

        A sifted remainder either takes an empty pivot or a strictly
        smaller step than the entry it displaces, so every change raises
        the table's order, which is at most |G|: `add` and `close` stop.
        A remainder that does neither means a faulty sift, and raises
        DomainError rather than looping."""
        queue = [vec]
        changed = False
        while queue:
            v = self.sift(queue.pop())
            i = _leading(v)
            if i is None:
                continue
            v = self._normalize(v)
            old = self.table[i]
            if old is not None and v[i] >= old[i]:
                raise DomainError("sifted vector does not lower the step at its pivot")
            self.table[i] = v
            changed = True
            if old is not None:
                queue.append(old)
        return changed

    def close(self):
        """Add the obligations of an induced pc sequence until stable: the
        relative-order power of each entry, and v^u for each entry u at an
        earlier pivot than v.  With j the pivot of v, G_j is normal, so v^u
        lies in G_j and sifts only through the entries after u; then u
        normalizes the subgroup they span, since in a finite group
        S^u <= S forces S^u = S, and u^-1 needs no obligation of its own
        (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
        ch. 8).  Each residue is formed once per call, keyed by the entry
        vectors; a pass re-adds the residues of every current entry, and
        the call ends on a pass that changes nothing."""
        t = self.t
        orders = self.pres.rel_orders
        powers = {}
        conjugates = {}
        inverses = {}
        while True:
            entries = [v for v in self.table if v is not None]
            residues = []
            for pos, u in enumerate(entries):
                r = powers.get(u)
                if r is None:
                    i = _leading(u)
                    r = powers[u] = kernel.power(t, u, orders[i] // u[i])
                residues.append(r)
                for v in entries[pos + 1:]:
                    c = conjugates.get((u, v))
                    if c is None:
                        ui = inverses.get(u)
                        if ui is None:
                            ui = inverses[u] = kernel.inv(t, u)
                        c = conjugates[u, v] = kernel.product(t, (ui, v, u))
                    residues.append(c)
            changed = False
            for r in residues:
                if self.add(r):
                    changed = True
            if not changed:
                return

    def reduce_entries(self):
        """Canonical form: each entry reduced at every later pivot, by
        the strip of `_coset_rep` through the table with the entry's own
        pivot cleared.  The entry is zero at the earlier pivots, so the
        strip runs at the later ones, in pivot order."""
        table = self.table
        for i, v in enumerate(table):
            if v is not None:
                table[i] = None
                table[i] = _coset_rep(self.t, table, v)

    def finish(self):
        self.close()
        return self.subgroup()

    def order(self):
        order = 1
        for i, v in enumerate(self.table):
            if v is not None:
                order *= self.pres.rel_orders[i] // v[i]
        return order

    def subgroup(self):
        """The Subgroup of the table, which must already be closed."""
        self.reduce_entries()
        igs = tuple(
            Element(self.pres, v) for v in self.table if v is not None
        )
        return Subgroup(self.pres, igs, self.order())

    @classmethod
    def of(cls, S):
        """A row reduction holding S's table.  Adding an x outside S that
        normalizes S and has x^p in S then gives the table of S<x>, of
        order p|S|, without a closure.  Sifting leaves an element y of xS
        at some pivot i where S's step, if any, is p^v; y^p in S makes y's
        step there p^(v-1).  So y takes pivot i, and S's old entry u there
        sifts past it to y^(-p) u, an element of S below i, spanned by S's
        later entries, which are unchanged."""
        b = cls(S.pres)
        b.table = list(S._table)
        return b


class Subgroup:
    """A subgroup held as a canonical induced generating sequence."""

    __slots__ = ("pres", "igs", "order", "_table")

    def __init__(self, pres, igs, order):
        self.pres = pres
        self.igs = igs
        self.order = order
        self._table = [None] * pres.n_gens
        for e in igs:
            self._table[e.leading_index()] = e.vec

    def membership(self, x: Element) -> bool:
        if not (x.pres is self.pres or x.pres == self.pres):
            raise MixedPresentationError("element belongs to another presentation")
        return _leading(_sift(self.pres._tables, self._table, x.vec)) is None

    __contains__ = membership

    def vectors(self):
        """The exponent vectors of all elements, as ordered products
        u_1^q_1 ... u_k^q_k over the IGS layers, q_1 varying slowest.

        The products are grown one layer at a time, one multiplication per
        new product, rather than each built from the identity."""
        pres = self.pres
        t = pres._tables
        mul = kernel.mul
        vecs = [t.identity]
        for e in self.igs:
            i = e.leading_index()
            size = pres.rel_orders[i] // e.vec[i]
            powers = [e.vec]  # u, u^2, ..., u^(size - 1)
            while len(powers) < size - 1:
                powers.append(mul(t, powers[-1], e.vec))
            grown = []
            for v in vecs:
                grown.append(v)
                grown.extend(mul(t, v, u) for u in powers)
            vecs = grown
        return vecs

    def elements(self):
        """All elements, in the order of `vectors`."""
        pres = self.pres
        for vec in self.vectors():
            yield Element(pres, vec)

    def is_trivial(self):
        return self.order == 1

    def is_abelian(self):
        t = self.pres._tables
        mul = kernel.mul
        vecs = [u.vec for u in self.igs]
        return all(mul(t, u, v) == mul(t, v, u)
                   for i, u in enumerate(vecs) for v in vecs[i + 1:])

    def key(self):
        return tuple(e.vec for e in self.igs)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.pres == other.pres
            and self.key() == other.key()
        )

    def __le__(self, other):
        return all(other.membership(e) for e in self.igs)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.pres.name!r}>"


def subgroup_closure(P: PcPresentation, gens) -> Subgroup:
    b = _IgsBuilder(P)
    for g in gens:
        if isinstance(g, Element):
            if not (g.pres is P or g.pres == P):
                raise MixedPresentationError("generator from another presentation")
            b.add(g.vec)
        else:
            b.add(tuple(g))
    return b.finish()


def trivial_subgroup(P: PcPresentation) -> Subgroup:
    return subgroup_closure(P, [])


def full_subgroup(P: PcPresentation) -> Subgroup:
    return subgroup_closure(P, P.gens())


def normal_closure(P: PcPresentation, gens) -> Subgroup:
    """The smallest normal subgroup containing gens: closed under
    conjugation by each generator of P, which suffices, since S^g <= S
    forces S^g = S in a finite group."""
    S = subgroup_closure(P, gens)
    while True:
        b = _IgsBuilder(P)
        for e in S.igs:
            b.add(e.vec)
        changed = False
        for e in S.igs:
            for g in P.gens():
                c = e.conjugate(g)
                if not S.membership(c):
                    b.add(c.vec)
                    changed = True
        if not changed:
            return S
        S = b.finish()


def frattini_closure(G: PcPresentation) -> Subgroup:
    """G' G^p without a sweep: the normal closure of the generators' p-th
    powers and pairwise commutators, once per presentation.  The quotient
    by it is elementary abelian, so it contains G' G^p; each of those words
    lies in the normal subgroup G' G^p, so it is contained in it."""
    phi = G._cache.get("frattini")
    if phi is None:
        gens = G.gens()
        p = G.prime
        words = [g ** p for g in gens] + [
            gens[i].commutator(gens[j])
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        ]
        phi = G._cache["frattini"] = normal_closure(G, words)
    return phi


def is_normal(S: Subgroup) -> bool:
    """Whether every IGS entry's conjugate by every generator lies in S,
    formed on vectors with each generator's inverse computed once."""
    P = S.pres
    t = P._tables
    for g in P.gens():
        ginv = kernel.inv(t, g.vec)
        for e in S.igs:
            if _leading(_sift(t, S._table, kernel.product(t, (ginv, e.vec, g.vec)))) is not None:
                return False
    return True


# -- quotients -------------------------------------------------------------


def _coset_rep(t, table, vec):
    """The canonical representative of the coset vec S, S the subgroup of
    a pivot table: vec times a power of each entry, in pivot order, so
    that each pivot exponent falls below the entry's step.  The entry at
    pivot i touches no earlier index, so the result is one of the vectors
    of `coset_layers`, and there are as many of those as cosets."""
    for i, u in enumerate(table):
        if u is not None:
            q = vec[i] // u[i]
            if q:
                vec = kernel.mul(t, vec, kernel.power(t, u, -q))
    return vec


def coset_layers(N: Subgroup):
    """Layer sizes of the canonical coset representatives of N: p^v at
    the pivot of an IGS entry with leading exponent p^v, the full relative
    order elsewhere.  The vectors with 0 <= e_i < layers[i] meet every
    coset of N exactly once."""
    layers = list(N.pres.rel_orders)
    for e in N.igs:
        i = e.leading_index()
        layers[i] = e.vec[i]
    return tuple(layers)


def first_outside(seq, U: Subgroup):
    """The last entry of seq outside U, or None when seq lies in U; seq is
    an induced pc sequence of Elements (G's generators or an IGS).

    It is also the first element outside U in the order of G.elements(),
    or of the IGS's `Subgroup.elements`: the elements before the entry
    x_j are products of x_(j+1), x_(j+2), ..., which all lie in U."""
    return next((x for x in reversed(seq) if not U.membership(x)), None)


class QuotientGroup:
    """G/N with canonical coset representatives.

    Multiplication is parent multiplication followed by reduction to the
    canonical representative; the kernel's coset reduces to the identity.
    """

    __slots__ = ("parent", "kernel_subgroup", "_layers", "_pres", "_proj")

    def __init__(self, parent: PcPresentation, N: Subgroup):
        if not (N.pres is parent or N.pres == parent):
            raise MixedPresentationError("kernel from another presentation")
        if not is_normal(N):
            raise DomainError("quotient kernel must be normal")
        self.parent = parent
        self.kernel_subgroup = N
        self._layers = coset_layers(N)
        self._pres = None
        self._proj = None

    @property
    def order(self) -> int:
        n = 1
        for l in self._layers:
            n *= l
        return n

    def canonical(self, x: Element) -> Element:
        return Element(self.parent, self.canonical_vec(x.vec))

    def canonical_vec(self, vec):
        """The canonical representative of the coset of an exponent
        vector, as a vector."""
        return _coset_rep(self.parent._tables, self.kernel_subgroup._table, vec)

    def elements(self):
        for vec in itertools.product(*(range(l) for l in self._layers)):
            yield Element(self.parent, vec)

    def generator_reps(self):
        """Greedy generating set of the quotient, as parent elements: each
        parent generator outside the span of the kernel and the earlier
        picks.  One span is grown, a generator at a time, and each test
        is one sift through it."""
        picks = []
        span = _IgsBuilder(self.parent)
        for e in self.kernel_subgroup.igs:
            span.add(e.vec)
        for g in self.parent.gens():
            if _leading(span.sift(g.vec)) is not None:
                picks.append(self.canonical(g))
                span.add(g.vec)
                span.close()
        return picks

    def is_cyclic(self) -> bool:
        """G/N is cyclic exactly when its Frattini quotient G / N Phi(G) has
        order at most p.  Every subgroup between Phi(G) and G is normal
        with an elementary abelian quotient, so N Phi(G) is Phi(G)'s table
        extended by N's IGS, one entry at a time, without a closure."""
        G = self.parent
        b = _IgsBuilder.of(frattini_closure(G))
        for e in self.kernel_subgroup.igs:
            b.add(e.vec)
        return G.order <= G.prime * b.order()

    def presentation(self):
        """A power-commutator presentation of the quotient, with the
        projection from parent normal forms."""
        if self._pres is None:
            self._pres, self._proj = _quotient_presentation(self)
        return self._pres, self._proj

    def __repr__(self):
        return f"<Quotient order={self.order} of {self.parent.name!r}>"


def quotient(G: PcPresentation, N: Subgroup) -> QuotientGroup:
    return QuotientGroup(G, N)


def _quotient_presentation(Q: QuotientGroup):
    """Build a presentation on the surviving layers of the parent.

    Canonical representatives are supported on layers of size > 1, and the
    reduction at a pivot only touches indices at or above it, so the
    induced relations stay in higher generators.
    """
    parent = Q.parent
    keep = [i for i, l in enumerate(Q._layers) if l > 1]
    pos = {i: k for k, i in enumerate(keep)}

    def project_vec(vec):
        rep = Q.canonical_vec(vec)
        return tuple(rep[i] for i in keep)

    def word_of(vec):
        return tuple((pos[i], e) for i, e in enumerate(vec) if e and i in pos)

    rel_orders = [Q._layers[i] for i in keep]
    pows = []
    for i in keep:
        g = parent.gen(i)
        w = Q.canonical(g ** Q._layers[i]).vec
        pows.append(word_of(w))
    conjs = {}
    for bpos, i in enumerate(keep):
        for apos, j in enumerate(keep):
            if j <= i:
                continue
            w = Q.canonical(parent.gen(j).conjugate(parent.gen(i))).vec
            word = word_of(w)
            if word != ((pos[j], 1),):
                conjs[(pos[j], pos[i])] = word
    pres = PcPresentation(
        parent.prime,
        rel_orders,
        pows,
        conjs,
        name=f"{parent.name}/N",
    )
    return pres, project_vec


# -- lattice enumeration ----------------------------------------------------


def enumerate_subgroups(G: PcPresentation, caps=DEFAULT_CAPS, *, over=None,
                        normal=False):
    """Complete, duplicate-free list of subgroups, smallest first: all of
    them, or those containing the subgroup `over`, and of those only the
    normal ones when `normal` is set.

    Each family is computed once per presentation; every call gets a new
    list of the same Subgroup objects.  The cap, and the normality of
    `over` for a normal family, are checked before the memo.
    """
    if G.order > caps.subgroup_enum:
        raise CapExceeded("subgroup enumeration", G.order, caps.subgroup_enum)
    if over is not None:
        if not (over.pres is G or over.pres == G):
            raise MixedPresentationError("bottom subgroup from another presentation")
        if normal and not is_normal(over):
            raise DomainError("normal subgroups above a subgroup that is not normal")
    memo = ("lattice", None if over is None else over.key(), normal)
    lattice = G._cache.get(memo)
    if lattice is None:
        bottom = trivial_subgroup(G) if over is None else over
        lattice = _lattice(G, bottom, normal)
        G._cache[memo] = lattice
    return list(lattice)


def _lattice(G: PcPresentation, bottom: Subgroup, normal: bool):
    """Breadth first by cyclic extension, from `bottom` up.

    In a p-group every subgroup T above the bottom has a maximal subgroup
    S that contains the bottom, and S is normal in T of index p.  So
    T = <S, x> for any x in T outside S, and such an x normalizes S and
    has x^p in S.  Growing each found S by every such x reaches every
    subgroup above the bottom.  When the bottom and T are normal in G, a
    chief series of G through the bottom and T gives such an S normal in
    G; T/S has order p and is normal in the p-group G/S, so it is central
    there: [x, g] lies in S for every generator g.  The normal family is
    grown by those x alone.

    x runs over S's canonical coset representatives (`coset_layers`),
    one per coset xS.  Since <S, x> = <S, x^k> for k prime to p, the
    cosets of those powers are passed over once T is built.  Every test
    is a sift on vectors, and T = S<x> is S's table extended by x,
    without a closure.
    """
    G.require_consistent()
    t = G._tables
    p = G.prime
    mul, inv, power, product = kernel.mul, kernel.inv, kernel.power, kernel.product
    gens = [(g.vec, inv(t, g.vec)) for g in G.gens()]
    seen = {bottom.key(): bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for S in frontier:
            table = S._table
            igs = [u.vec for u in S.igs]

            def inside(v):
                return _leading(_sift(t, table, v)) is None

            done = set()
            reps = itertools.product(*(range(l) for l in coset_layers(S)))
            next(reps)  # the identity, S's own coset
            for x in reps:
                if x in done or not inside(power(t, x, p)):
                    continue
                xinv = inv(t, x)
                if normal:
                    ok = all(inside(product(t, (xinv, ginv, x, g))) for g, ginv in gens)
                else:
                    ok = all(inside(product(t, (xinv, u, x))) for u in igs)
                if not ok:
                    continue
                b = _IgsBuilder.of(S)
                b.add(x)
                T = b.subgroup()
                key = T.key()
                if key not in seen:
                    seen[key] = T
                    nxt.append(T)
                y = x
                for _ in range(p - 2):
                    y = mul(t, y, x)
                    done.add(_coset_rep(t, table, y))
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda s: (s.order, s.key())))


def enumerate_normal_subgroups(G: PcPresentation, caps=DEFAULT_CAPS):
    return enumerate_subgroups(G, caps, normal=True)
