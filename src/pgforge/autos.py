"""Automorphisms: construction, validation, the exhaustive order-p search,
and the explicit witness constructions for the theorem harness, whose
coset and pair shifts all come from `_transversal_map_automorphism`.
Lemma 2.1's scan reads one commutator image [Z(M), x] per maximal M
(`commutator_image`) and builds one shift per (M, z), with x the first
element outside M (`subgroups.first_outside`).  Theorem 2.6's pairing
subgroup H, the x in Z_2(G) with x^p in Z(G), and the even pair shift's
intersection of two centralizers are stabilizers (`structure.stabilizer`).

Every automorphism is validated at construction: the generator images must
satisfy all power and conjugation relations and generate the group.  The
inner test looks the map up in a table of every inner map, built once per
presentation from a transversal of G/Z(G); conjugation factors through the
center, so the table is exact and exhaustive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from pgforge import kernel
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element, PcPresentation
from pgforge.errors import (CapExceeded, DomainError, HypothesesUnmet,
                            MixedPresentationError)
from pgforge import structure
from pgforge.subgroups import (Subgroup, _coset_rep, _IgsBuilder, _leading,
                               first_outside, quotient, subgroup_closure)


class Automorphism:
    """A generator-image map validated against the presentation, stored
    as the tuple of image exponent vectors; `images` gives the Elements."""

    __slots__ = ("pres", "_vecs")

    def __init__(self, pres, images):
        err = validation_error(pres, images)
        if err:
            raise DomainError(err)
        self.pres = pres
        self._vecs = tuple(x.vec for x in images)

    @classmethod
    def _of_vecs(cls, pres, vecs):
        """The map with these image vectors, known to be an automorphism."""
        alpha = cls.__new__(cls)
        alpha.pres, alpha._vecs = pres, tuple(vecs)
        return alpha

    @property
    def images(self):
        return tuple(Element(self.pres, v) for v in self._vecs)

    def apply(self, x: Element) -> Element:
        return Element(self.pres, _image(self.pres._tables, self._vecs, enumerate(x.vec)))

    __call__ = apply

    def compose(self, other: "Automorphism") -> "Automorphism":
        """x -> other(self(x))"""
        if self.pres != other.pres:
            raise DomainError("automorphisms of different presentations")
        return Automorphism._of_vecs(
            self.pres, _compose_vecs(self.pres._tables, self._vecs, other._vecs)
        )

    def order(self, cap=2 ** 20) -> int:
        t = self.pres._tables
        ident = _gen_vecs(self.pres.n_gens)
        k = 1
        a = self._vecs
        while a != ident:
            a = _compose_vecs(t, a, self._vecs)
            k += 1
            if k > cap:
                raise DomainError("automorphism order exceeds cap")
        return k

    def inverse(self) -> "Automorphism":
        """The (k-1)-th power, k the order, by square and multiply."""
        k = self.order()
        if k == 1:
            return self
        return Automorphism._of_vecs(
            self.pres, _power_vecs(self.pres._tables, self._vecs, k - 1)
        )

    def fixes_pointwise(self, S: Subgroup) -> bool:
        return all(self.apply(u) == u for u in S.igs)

    def key(self):
        return self._vecs

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.pres == other.pres
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<Automorphism {self.key()}>"

    def to_dict(self):
        return {"images": [list(v) for v in self.key()]}


def validation_error(pres: PcPresentation, images):
    """None if the images define an automorphism, else a description: the
    first broken power relation, else the first broken conjugation
    relation (conjugating generator outer), else failed generation."""
    if len(images) != pres.n_gens:
        return "one image per generator required"
    return _vecs_validation_error(pres, _vecs_in(pres, images))


def _vecs_validation_error(pres: PcPresentation, vecs):
    """`validation_error` of one image vector per generator of pres."""
    t = pres._tables
    err = None
    for i, (h, m) in enumerate(zip(vecs, pres.rel_orders)):
        j = _broken_relation(pres, t, vecs, i, kernel.inv(t, h), kernel.power(t, h, m))
        if j == i:
            # every power relation comes before any conjugation relation
            return f"power relation of x{i + 1} violated"
        if j is not None and err is None:
            err = f"conjugation relation of x{j + 1} by x{i + 1} violated"
    if err is None and not _vecs_generate(pres, vecs):
        err = "images do not generate the group"
    return err


def _vecs_in(G: PcPresentation, elements):
    """The vectors of elements of G; another presentation's raise."""
    for x in elements:
        if x.pres is not G and x.pres != G:
            raise MixedPresentationError(
                f"elements of {G.name!r} and {x.pres.name!r} cannot be combined"
            )
    return [x.vec for x in elements]


def _broken_relation(G: PcPresentation, t, images, i, hinv, hpow, targets=None):
    """The first relation of x_i that the image vectors break: i for the
    power relation, else the least j > i for the conjugation of x_j by
    x_i; None if all hold.  h = images[i] has inverse hinv and
    rel_orders[i]-th power hpow, and only images[i:] are read.  targets
    is `_relation_targets(G, t, images, i)`, formed here when not given."""
    if targets is None:
        targets = _relation_targets(G, t, images, i)
    power_target, conj_targets = targets
    if hpow != power_target:
        return i
    h = images[i]
    for j, want in enumerate(conj_targets, i + 1):
        if kernel.product(t, (hinv, images[j], h)) != want:
            return j
    return None


def _relation_targets(G: PcPresentation, t, images, i):
    """What the relations of x_i require of its image h: the image of its
    power word, which h^rel_orders[i] must equal, and for each j > i the
    image of x_j^(x_i), which h^-1 images[j] h must equal.  Only
    images[i+1:] are read, so every candidate h under one suffix shares
    them."""
    n = G.n_gens
    conj_words = G.conj_words
    conj_targets = []
    for j in range(i + 1, n):
        w = conj_words[i * n + j]
        conj_targets.append(images[j] if w is None else _image(t, images, w))
    return _image(t, images, G.pow_words[i]), conj_targets


def generates(G: PcPresentation, elements) -> bool:
    """Whether the elements generate G, by Burnside's basis theorem: they
    do exactly when their images span G/frattini(G), an F_p-space whose
    coordinates are the exponents of the quotient presentation."""
    return _vecs_generate(G, [x.vec for x in elements])


def _vecs_generate(G: PcPresentation, vecs) -> bool:
    """`generates` on exponent vectors of G."""
    Qp, project = structure.frattini_quotient(G)
    return _rank_mod_p([list(project(v)) for v in vecs], G.prime) == Qp.n_gens


def _rank_mod_p(rows, p):
    """Rank over F_p of integer row vectors, by elimination in place."""
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        for r in range(rank, len(rows)):
            if rows[r][c] % p:
                break
        else:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        pivot = rows[rank]
        inv = pow(pivot[c], -1, p)
        for row in rows[rank + 1:]:
            f = row[c] * inv % p
            if f:
                for k in range(c, width):
                    row[k] = (row[k] - f * pivot[k]) % p
        rank += 1
    return rank


def make_automorphism(G: PcPresentation, images) -> Automorphism:
    return Automorphism(G, images)


def identity_automorphism(G: PcPresentation) -> Automorphism:
    return Automorphism._of_vecs(G, _gen_vecs(G.n_gens))


def inner_automorphism(G: PcPresentation, g: Element) -> Automorphism:
    return Automorphism._of_vecs(G, _conjugation_vecs(G, _vecs_in(G, [g])[0]))


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    return a.compose(b)


# -- maps as tuples of image vectors --------------------------------------------


def _gen_vecs(n):
    """Image vectors of the identity map: the generators' unit vectors."""
    return tuple(tuple(int(k == i) for k in range(n)) for i in range(n))


def _conjugation_vecs(G: PcPresentation, r):
    """Image vectors of conjugation x -> r^-1 x r."""
    t = G._tables
    rinv = kernel.inv(t, r)
    return tuple(kernel.product(t, (rinv, g, r)) for g in _gen_vecs(G.n_gens))


def _image(t, images, word):
    """The image of a normal word, given as (g, e) pairs, under the map
    sending generator g to the vector images[g]; vec is enumerate(vec)."""
    out = t.identity
    for g, e in word:
        if e:
            v = images[g]
            out = kernel.mul(t, out, v if e == 1 else kernel.power(t, v, e))
    return out


def _compose_vecs(t, a, b):
    """Image vectors of x -> b(a(x))."""
    return tuple(_image(t, b, enumerate(v)) for v in a)


def _power_vecs(t, images, k):
    """Image vectors of the k-th power of a map, k >= 1, by square and
    multiply: O(log k) compositions."""
    acc = None
    sq = images
    while True:
        if k & 1:
            acc = sq if acc is None else _compose_vecs(t, acc, sq)
        k >>= 1
        if not k:
            return acc
        sq = _compose_vecs(t, sq, sq)


def _prime_divisors(k):
    out = []
    q = 2
    while q * q <= k:
        if k % q == 0:
            out.append(q)
            while k % q == 0:
                k //= q
        q += 1
    if k > 1:
        out.append(k)
    return out


def _has_order(t, images, ident, k):
    """Whether the map has order exactly k >= 1: its k-th power is the
    identity `ident` and, for each prime q dividing k, its k/q-th power
    is not."""
    if _power_vecs(t, images, k) != ident:
        return False
    return all(_power_vecs(t, images, k // q) != ident for q in _prime_divisors(k))


# -- the inner test ---------------------------------------------------------------


def is_inner(G: PcPresentation, alpha: Automorphism, caps=DEFAULT_CAPS):
    """The conjugating element, or None.  Conjugation by g depends only on
    gZ(G), so the canonical representatives of G/Z(G) give every inner map,
    each once.  A table built once per presentation maps the images of
    each inner map to its representative, which is the least conjugating
    element in exponent order."""
    Z = structure.center(G, caps)
    table = structure._memo(G, "inner_maps", lambda: _inner_maps(G, Z))
    return table.get(alpha.key())


def _inner_maps(G: PcPresentation, Z: Subgroup):
    return {_conjugation_vecs(G, rep.vec): rep for rep in quotient(G, Z).elements()}


@dataclass(frozen=True)
class AutWitness:
    """A found automorphism plus everything the harness reports about it."""

    automorphism: Automorphism
    order: int
    fixed_set: str
    inner: object  # conjugating Element or None
    path: str = "search"

    @property
    def is_noninner(self):
        return self.inner is None

    def to_dict(self):
        return {
            "images": [list(v) for v in self.automorphism.key()],
            "order": self.order,
            "fixed_set": self.fixed_set,
            "noninner": self.is_noninner,
            "inner": list(self.inner.vec) if self.inner is not None else None,
            "exhaustive_inner_test": True,  # `is_inner` reads every inner map
            "path": self.path,
        }


def witness_for(G, alpha, fixed: Subgroup, fixed_name: str, path="construction",
                caps=DEFAULT_CAPS) -> AutWitness:
    """Re-validate an automorphism independently of how it was built."""
    err = validation_error(G, alpha.images)
    if err:
        raise DomainError(f"constructed map is not an automorphism: {err}")
    if not alpha.fixes_pointwise(fixed):
        raise DomainError("constructed map does not fix the required subgroup")
    return AutWitness(
        automorphism=alpha,
        order=alpha.order(),
        fixed_set=fixed_name,
        inner=is_inner(G, alpha, caps),
        path=path,
    )


# -- exhaustive search --------------------------------------------------------


def search_order_p_automorphisms(G: PcPresentation, fixed: Subgroup,
                                 caps=DEFAULT_CAPS, order=None):
    """All automorphisms of order exactly `order` (default p) fixing the
    given subgroup pointwise, sorted by their image vectors, each with the
    conjugating element of the exhaustive inner test.

    The automorphisms are the leaves of one backtracking pass over exponent
    vectors (`_fixing_leaves` over `_search_pools`), every one of them
    drawn.  A leaf has order k exactly when its k-th power is the identity
    and no k/q-th power is, for q a prime dividing k; the powers come by
    square and multiply, so a large k costs O(log k) compositions."""
    if order is None:
        order = G.prime
    if order < 1:
        raise DomainError(f"target order must be at least 1, got {order}")
    leaves = _fixing_leaves(G, fixed, _search_pools(G, fixed, caps))
    return list(_classified(G, fixed, leaves, order, caps))


def first_noninner(G: PcPresentation, fixed: Subgroup, caps=DEFAULT_CAPS):
    """The first noninner witness of search_order_p_automorphisms(G, fixed,
    caps), or None.  The leaves are drawn lazily in key order and
    classified one at a time, so the search stops at that witness: the
    rest of x1's candidates are never paired with the suffix set.  The
    caps are checked at the call, before any leaf is drawn."""
    leaves = _fixing_leaves(G, fixed, _search_pools(G, fixed, caps))
    return next(
        (w for w in _classified(G, fixed, leaves, G.prime, caps) if w.is_noninner),
        None,
    )


def _classified(G, fixed, leaves, order, caps):
    """Witnesses of the given order among the leaves, lazily, in order."""
    t = G._tables
    ident = _gen_vecs(G.n_gens)
    name = None
    for images in leaves:
        if not _has_order(t, images, ident, order):
            continue
        alpha = Automorphism._of_vecs(G, images)
        if name is None:
            # only once a witness exists: a search that finds none never
            # builds the named subgroups
            name = _fixed_name(G, fixed, caps)
        yield AutWitness(
            automorphism=alpha,
            order=order,
            fixed_set=name,
            inner=is_inner(G, alpha, caps),
            path="search",
        )


def _search_pools(G: PcPresentation, fixed: Subgroup, caps):
    """The candidate images of the search, one pool per generator, after
    its cap check.  A generator in the fixed subgroup is its own image; any
    other image has the generator's order and reproduces each of its
    p-power powers that lies in the fixed subgroup."""
    if G.order > caps.auto_search:
        raise CapExceeded("automorphism search", G.order, caps.auto_search)
    G.require_consistent()
    p = G.prime
    t = G._tables
    power = kernel.power
    orders = structure.element_orders(G, caps)
    position = structure._positions(G)
    pools = []
    for g in G.gens():
        if fixed.membership(g):
            pools.append([g.vec])
            continue
        want = orders[position(g.vec)]
        pinned = []
        k = p
        while k < want:
            gk = power(t, g.vec, k)
            if fixed.membership(Element(G, gk)):
                pinned.append((k, gk))
            k *= p
        pools.append([
            h for h, o in zip(structure._vectors(G), orders)
            if o == want and all(power(t, h, k) == gk for k, gk in pinned)
        ])
    return pools


def _fixing_leaves(G: PcPresentation, fixed: Subgroup, pools):
    """The image-vector tuples of the automorphisms that fix the subgroup
    `fixed` pointwise and send each generator g_i into pools[i], yielded
    lazily in sorted order.

    Leaves sort by (image of x1, image of x2, ...), and the relations of
    x_i read only the images of x_i..x_n.  So the valid suffixes, the
    images of x2..xn, are found in full and sorted first: a backtracking
    descent from the highest index down to x2, with no Element objects in
    the loop, each pooled image paired once with its inverse, its
    rel_orders[i]-th power and its coordinates modulo frattini(G).  Then
    x1's pool is walked in sorted order, each candidate against every
    suffix in order, and a leaf is yielded as soon as it passes; x1's
    entries are computed only as the walk reaches them, and its rank test
    once per coordinate row, against an echelon basis kept with each
    suffix.  A caller that stops early never pays for the rest of the
    walk.

    At each level the power and conjugation relations of x_i are checked
    on the assigned suffix.  What they require of x_i's image depends on
    the suffix alone (`_relation_targets`), so it is formed once per
    parent node, and once per suffix at x1, not once per candidate.  A
    node is pruned when the images of indices i..n-1 span a smaller space
    modulo frattini(G) than the generators do: an automorphism induces an
    invertible map on G/frattini(G), which keeps that rank.  At the root this proves generation (Burnside's basis
    theorem), so a leaf that fixes `fixed`'s IGS is an automorphism
    without further validation; the test suite keeps the re-validating
    search and the eager descent as its oracles.  No commutator check is
    needed when `fixed` contains frattini(G): such a leaf maps each
    [x_i, x_j], which lies in frattini(G), to itself."""
    p = G.prime
    n = G.n_gens
    if n == 0:
        yield ()
        return
    t = G._tables
    _, project = structure.frattini_quotient(G)

    def entry(h, m):
        return h, kernel.inv(t, h), kernel.power(t, h, m), list(project(h))

    coords = [list(project(g)) for g in _gen_vecs(n)]
    target = [_rank_mod_p([list(r) for r in coords[i:]], p) for i in range(n)]
    fixed_igs = [u.vec for u in fixed.igs]
    cand = [None] + [[entry(h, m) for h in pool]
                     for pool, m in zip(pools[1:], G.rel_orders[1:])]
    images = [None] * n
    rows = [None] * n
    suffixes = []

    def descend(i):
        if i == 0:
            # x1's rank test needs only an echelon basis of the suffix's
            # rows, and none when they already have the full rank
            basis = [list(r) for r in rows[1:]]
            rank = _rank_mod_p(basis, p)
            suffixes.append((tuple(images[1:]), basis[:rank] if rank < target[0] else None))
            return
        targets = None
        for h, hinv, hpow, row in cand[i]:
            images[i] = h
            rows[i] = row
            if _rank_mod_p([list(r) for r in rows[i:]], p) < target[i]:
                continue
            if targets is None:
                targets = _relation_targets(G, t, images, i)
            if _broken_relation(G, t, images, i, hinv, hpow, targets) is None:
                descend(i - 1)
        images[i] = None

    descend(n - 1)
    suffixes.sort(key=lambda s: s[0])
    m = G.rel_orders[0]
    # x1's rank test reads only its coordinates modulo frattini(G), so the
    # suffixes that pass it are listed once per coordinate row
    passing = {}
    suffix_targets = [None] * len(suffixes)
    for h in sorted(pools[0]):
        _, hinv, hpow, row = entry(h, m)
        key = tuple(row)
        if key not in passing:
            passing[key] = [
                k for k, (_, basis) in enumerate(suffixes)
                if basis is None
                or _rank_mod_p([list(row)] + [list(b) for b in basis], p) >= target[0]
            ]
        for k in passing[key]:
            leaf = (h,) + suffixes[k][0]
            targets = suffix_targets[k]
            if targets is None:
                targets = suffix_targets[k] = _relation_targets(G, t, leaf, 0)
            if (_broken_relation(G, t, leaf, 0, hinv, hpow, targets) is None
                    and all(_image(t, leaf, enumerate(u)) == u for u in fixed_igs)):
                yield leaf


def _fixed_name(G, S: Subgroup, caps) -> str:
    if S == structure.frattini(G, caps):
        return "frattini"
    try:
        if S == structure.omega1(structure.center(G, caps), caps):
            return "omega1-center"
    except (CapExceeded, DomainError):
        pass
    return "igs:" + ";".join(u.word_str() for u in S.igs)


def fixed_set_by_name(G, name: str, caps=DEFAULT_CAPS) -> Subgroup:
    if name == "frattini":
        return structure.frattini(G, caps)
    if name in ("omega1", "omega1-center"):
        return structure.omega1(structure.center(G, caps), caps)
    raise DomainError(f"unknown fixed-set name {name!r}")


# -- the coset-shift construction ---------------------------------------------


def _transversal_map_automorphism(G, U: Subgroup, xs, news):
    """The automorphism u x_1^l_1 ... x_r^l_r -> u new_1^l_1 ... new_r^l_r
    (u in U, 0 <= l_i < p) when G/U is elementary abelian with coset basis
    xs; DomainError where a generator is in none of these cosets or the
    images break a relation.  g lies in U w exactly when g^-1 and w^-1
    have the same canonical left coset representative, so one lookup in a
    dict of the p^r words gives g's image g w^-1 new."""
    t = G._tables
    mul, inv = kernel.mul, kernel.inv
    shift = {}
    for ls in itertools.product(range(G.prime), repeat=len(xs)):
        winv = inv(t, _image(t, [x.vec for x in xs], enumerate(ls)))
        new = _image(t, [y.vec for y in news], enumerate(ls))
        shift.setdefault(_coset_rep(t, U._table, winv), mul(t, winv, new))
    images = []
    for g in G.gens():
        s = shift.get(_coset_rep(t, U._table, inv(t, g.vec)))
        if s is None:
            raise DomainError("element fell outside the coset decomposition")
        images.append(Element(G, mul(t, g.vec, s)))
    return make_automorphism(G, images)


def maximal_coset_shift(G: PcPresentation, M: Subgroup, g: Element,
                        z: Element, caps=DEFAULT_CAPS) -> Automorphism:
    """The automorphism sending m g^i to m g^i z^i for m in M.

    Fixes M pointwise; has order p when z is nontrivial.  Requires z of
    order dividing p inside the center and g outside the maximal M.  For
    central z, m g^i z^i = m (gz)^i, so this is the transversal map
    g -> gz."""
    p = G.prime
    Z = structure.center(G, caps)
    if not (Z.membership(z) and (z ** p).is_identity):
        raise DomainError("shift element must be central of order dividing p")
    if M.membership(g):
        raise DomainError("coset generator must lie outside the maximal subgroup")
    if M.order * p != G.order:
        raise DomainError("subgroup is not maximal")
    return _transversal_map_automorphism(G, M, [g], [g * z])


def commutator_image(G: PcPresentation, M: Subgroup, x: Element,
                     caps=DEFAULT_CAPS) -> Subgroup:
    """[Z(M), g] = {[a, g] : a in Z(M)} for a maximal M and every g outside
    it, as the subgroup generated by [u, x] for u in Z(M)'s IGS, with x
    any one element outside M.

    Z(M) is abelian, and normal in G, being characteristic in the normal
    M.  So a -> [a, g] = a^-1 a^g is a homomorphism Z(M) -> Z(M), and its
    image is generated by the images of Z(M)'s IGS.  Write g = m x^k with
    m in M and p not dividing k, and s for conjugation by x on Z(M),
    written additively.  m centralizes Z(M), so g acts as s^k, and the
    image is that of s^k - 1 = (s - 1)(1 + s + ... + s^(k-1)), inside the
    image of s - 1.  x^p lies in M, so s^p = 1 and s = (s^k)^k' for
    k k' = 1 mod p: the reverse inclusion holds as well, and the image
    does not depend on g."""
    zm = structure.center_of_subgroup(G, M, caps)
    return subgroup_closure(G, [u.commutator(x) for u in zm.igs])


def coset_shift_scan(G: PcPresentation, caps=DEFAULT_CAPS):
    """One (M, x, z, alpha) for each maximal M and each nontrivial z in
    omega1(Z(G)) outside the commutator image [Z(M), g] whose coset shift
    alpha is a validated noninner automorphism of order p fixing M (hence
    frattini) pointwise; x is the first element outside M.

    An empty scan certifies omega1(Z(G)) <= [Z(M), g] for every maximal M
    and every g outside it, since the image does not depend on g
    (`commutator_image`).  Nor does the map, up to z: with g = m x^k, the
    shift for (M, g, z) sends h in M x^(ik) to h z^i, so it is the shift
    for (M, x, z^k'), k k' = 1 mod p, and z^k' is outside the image with
    z.  So each record stands for the |G| - |M| elements g outside M,
    each with its own power of z."""
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    if G.order > caps.element_sweep:
        raise CapExceeded("coset shift scan", G.order, caps.element_sweep)
    om = structure.omega1(structure.center(G, caps), caps)
    shifts = sorted(om.elements(), key=lambda e: e.vec)
    witnesses = []
    for M in structure.maximal_subgroups(G, caps):
        x = first_outside(G.gens(), M)
        image = commutator_image(G, M, x, caps)
        for z in shifts:
            if z.is_identity or image.membership(z):
                continue
            try:
                alpha = maximal_coset_shift(G, M, x, z, caps)
            except DomainError:
                continue
            if (alpha.order() == G.prime and alpha.fixes_pointwise(M)
                    and is_inner(G, alpha, caps) is None):
                witnesses.append((M, x, z, alpha))
    return witnesses


# -- central automorphisms with socle defects ----------------------------------


def central_socle_automorphisms(G: PcPresentation, caps=DEFAULT_CAPS):
    """All automorphisms whose defects x^{-1} x^phi lie in omega1(Z(G))
    and which fix omega1(Z(G)) pointwise, together with the corresponding
    homomorphisms from G/omega1(Z(G)) into omega1(Z(G)).

    These are the maps g -> g s(g) for s a homomorphism from the
    elementary abelian G / omega1(Z(G)) frattini(G) into omega1(Z(G)):
    a central-valued s gives an endomorphism, and its kernel is trivial,
    since g = s(g)^{-1} puts g in omega1(Z(G)), where s vanishes.  Each s
    is built from its values on a basis of that quotient, one member per
    choice, so there are |omega1(Z(G))| ** d' of them, d' the rank of the
    quotient.  Every member is validated against the relations and checked
    to fix omega1(Z(G)) and the Frattini subgroup pointwise.

    Returns (members, homomorphisms, broken).  broken is None when every
    member passes; otherwise it names the first member that does not, by
    its generator images, with what it broke, and both lists are empty."""
    if G.order > caps.element_sweep:
        raise CapExceeded("central socle sweep", G.order, caps.element_sweep)
    om = structure.omega1(structure.center(G, caps), caps)
    phi = structure.frattini(G, caps)
    socle = sorted(z.vec for z in om.elements())
    N = subgroup_closure(G, list(om.igs) + list(phi.igs))
    Qp, project = quotient(G, N).presentation()
    t = G._tables
    gens = _gen_vecs(G.n_gens)
    coords = [project(g) for g in gens]
    members = []
    for values in itertools.product(socle, repeat=Qp.n_gens):
        shifts = tuple(_image(t, values, enumerate(c)) for c in coords)
        images = [kernel.mul(t, g, s) for g, s in zip(gens, shifts)]
        err = _vecs_validation_error(G, images)
        if err:
            return [], [], {"images": images, "broken": err}
        alpha = Automorphism._of_vecs(G, images)
        for fixed, name in ((om, "omega1(Z(G))"), (phi, "the Frattini subgroup")):
            if not alpha.fixes_pointwise(fixed):
                return [], [], {"images": images, "broken": f"moved {name}"}
        members.append((alpha, shifts))
    members.sort(key=lambda mh: mh[0].key())
    return [m for m, _ in members], [h for _, h in members], None


# -- theorem constructions ------------------------------------------------------


def _metacyclic_shape(G: PcPresentation):
    """(r, s, t) when the presentation literally has the two-generator
    shape a^{2^r} = b^{2^s}, b^{2^{s+t}} = 1, b^a = b^{2^t + 1}."""
    from pgforge.core import p_valuation

    if G.prime != 2 or G.n_gens != 2:
        return None
    r = p_valuation(G.rel_orders[0], 2)
    st = p_valuation(G.rel_orders[1], 2)
    pw = G.pow_words[0]
    if len(pw) != 1 or pw[0][0] != 1:
        return None
    s = p_valuation(pw[0][1], 2)
    if s is None:
        return None
    cw = G.conj_words[0 * G.n_gens + 1]
    if cw is None or len(cw) != 1:
        return None
    t = p_valuation(cw[0][1] - 1, 2)
    if t is None or s + t != st or not (r >= s >= t >= 2):
        return None
    if G.pow_words[1]:
        return None
    return (r, s, t)


def powerful_quotient_witness(G: PcPresentation, caps=DEFAULT_CAPS):
    """A validated noninner automorphism of order p for a nonabelian G
    whose central quotient is powerful, or None if there is none.

    For odd p, or for p = 2 with noncyclic center, the witness fixes the
    Frattini subgroup pointwise; for p = 2 with cyclic center it fixes
    either the Frattini subgroup or omega1(Z(G)) pointwise.  Branches with
    no explicit map fall back to the exhaustive search of those sets, so
    None contradicts the theorem.  Every returned witness is re-validated
    independently of its construction."""
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    cq = structure.central_quotient(G, caps)
    if not structure.is_powerful(cq, caps):
        raise HypothesesUnmet("central quotient not powerful")
    p = G.prime
    Z = structure.center(G, caps)
    phi = structure.frattini(G, caps)
    z_cyclic = structure.d_abelian(Z, caps) == 1

    if not z_cyclic:
        # noncyclic center: a rank count forces a noninner member among the
        # central automorphisms with socle defects; find it directly (a
        # broken member yields no members, and the search stands in)
        members, _, _ = central_socle_automorphisms(G, caps)
        for alpha in members:
            if alpha.order() != p:
                continue
            if is_inner(G, alpha, caps) is None:
                return witness_for(G, alpha, phi, "frattini",
                                   path="socle-search", caps=caps)
        return _search_noninner(G, phi, "frattini", caps)

    # a construction returns None where it has no explicit map and raises
    # DomainError where it misfires on an unusual shape; the search is
    # exact, so it stands in for both
    try:
        w = (_odd_coset_witness if p > 2 else _even_cyclic_center_witness)(G, caps)
    except DomainError:
        w = None
    if w is None:
        w = _search_noninner(G, phi, "frattini", caps)
    if w is None and p == 2:
        w = _search_noninner(G, structure.omega1(Z, caps), "omega1-center", caps)
    return w


def _search_noninner(G, fixed, fixed_name, caps):
    w = first_noninner(G, fixed, caps)
    if w is None:
        return None
    return replace(w, fixed_set=fixed_name, path="search-fallback")


def _socle_pairing_subgroup(G, caps):
    """H with H/Z(G) = omega1(Z_2(G)/Z(G)): the x in Z_2 with x^p central,
    the stabilizer of the coset Z under translation by p-th powers modulo
    Z.  Z_2/Z is abelian, so x -> x^p Z is a homomorphism on Z_2, and H is
    its kernel."""
    Z = structure.center(G, caps)
    ucs = structure.upper_central_series(G, caps)
    Z2 = ucs[2] if len(ucs) > 2 else ucs[-1]
    return structure.stabilizer(G, Z2.key(), G._tables.identity,
                                structure._power_translation(G, Z))


def _odd_coset_witness(G, caps):
    """p odd, cyclic center: locate an order-p element h of H outside the
    center, then shift the transversal of its centralizer by h.  None when
    G/Z(G) is not p-central."""
    p = G.prime
    Z = structure.center(G, caps)
    if not structure.is_p_central(structure.central_quotient(G, caps), caps):
        return None
    H = _socle_pairing_subgroup(G, caps)
    # a product a b^-s of members of H (the difference trick) lies in H, so
    # when no member of H outside Z has order p, no such product does
    h = next((a for a in H.elements()
              if not Z.membership(a) and (a ** p).is_identity), None)
    if h is None:
        raise DomainError("odd case: no order-p element outside the center")
    U = structure.centralizer(G, h, caps)
    if U.order * p != G.order:
        raise DomainError("odd case: centralizer is not maximal")
    x = first_outside(G.gens(), U)
    if (x * h) ** p != x ** p:
        raise DomainError("odd case: transversal shift does not preserve p-th powers")
    beta = _transversal_map_automorphism(G, U, [x], [x * h])
    return witness_for(G, beta, structure.frattini(G, caps), "frattini",
                       path="odd-coset-shift", caps=caps)


def _even_cyclic_center_witness(G, caps):
    """p = 2, cyclic center: shift by socle involutions, or on the
    metacyclic shape by its two generators.  None where no explicit map
    applies."""
    Z = structure.center(G, caps)
    phi = structure.frattini(G, caps)
    om = structure.omega1(Z, caps)
    cq = structure.central_quotient(G, caps)
    if not structure.is_p_central(cq, caps):
        return None
    H = _socle_pairing_subgroup(G, caps)
    if not H.is_abelian():
        # no explicit map for a non-abelian pairing subgroup
        return None
    # decompose H: either C2^d x Z (case one) or C2^{d-1} x <h> with
    # h^2 generating Z (case two)
    d = structure.rank_d(G, caps)
    # H is abelian, so its exponent is the largest order on its IGS
    expH = max((u.order() for u in H.igs), default=1)
    case_two = expH == 2 * Z.order
    hs = _socle_decomposition(H, Z, d, case_two)
    scan = hs[:-1] if case_two else hs[:d]
    limit = len(scan) if (not case_two or len(scan) >= 2 and d >= 3) else 0
    cents = [structure.centralizer(G, h, caps) for h in scan[:limit]]
    for i in range(limit):
        for j in range(i + 1, limit):
            if cents[i] != cents[j]:
                xi = first_outside(cents[i].igs, cents[j])
                xj = first_outside(cents[j].igs, cents[i])
                # C_G(h_i) and C_G(h_j) meet in the stabilizer of the pair
                gens = tuple(g.vec for g in G.gens())
                U = structure.stabilizer(G, gens, (scan[i].vec, scan[j].vec))
                phi_map = _transversal_map_automorphism(
                    G, U, [xi, xj], [xi * scan[i], xj * scan[j]]
                )
                return witness_for(G, phi_map, phi, "frattini",
                                   path="even-pair-shift", caps=caps)
    if limit >= 2:
        # all centralizers agree: shift by the product of two involutions
        h12 = scan[0] * scan[1]
        M = cents[0]
        x = first_outside(G.gens(), M)
        if (x * h12) ** 2 == x ** 2:
            alpha = _transversal_map_automorphism(G, M, [x], [x * h12])
            return witness_for(G, alpha, phi, "frattini",
                               path="even-coset-shift", caps=caps)
    shape = _metacyclic_shape(G)
    if shape is not None:
        r, s, t = shape
        if s > t:
            a, b = G.gens()
            h = b ** (2 ** (s - 1)) * (a ** (2 ** (r - 1))).inverse()
            if r > s:
                delta = make_automorphism(G, [a * h, b])
                fixed = subgroup_closure(G, [b])
                w = witness_for(G, delta, fixed, "igs:" + b.word_str(),
                                path="two-generator-shift-a", caps=caps)
                # the cyclic part contains omega1(Z); report against it
                return AutWitness(w.automorphism, w.order, "omega1-center",
                                  w.inner, "two-generator-shift-a")
            delta = make_automorphism(G, [a * h, b * h])
            return witness_for(G, delta, om, "omega1-center",
                               path="two-generator-shift-both", caps=caps)
    return None


def _socle_decomposition(H, Z, d, case_two):
    """Independent involutions spanning H over Z, plus the final factor."""
    picks = []
    # each pick is an involution of the abelian H, so it extends the span's
    # table without a closure (`_IgsBuilder.of`)
    span = _IgsBuilder.of(Z)
    target = d - 1 if case_two else d
    for x in sorted(H.elements(), key=lambda e: e.vec):
        if len(picks) == target:
            break
        # x != 1 is an involution when x*x = 1; 1 sifts to nothing
        if (x * x).is_identity and _leading(span.sift(x.vec)) is not None:
            picks.append(x)
            span.add(x.vec)
    if len(picks) != target:
        raise DomainError("socle decomposition failed to span")
    if case_two:
        big = max(H.elements(), key=lambda e: (e.order(), e.vec))
        picks.append(big)
    else:
        zgen = max(Z.elements(), key=lambda e: (e.order(), e.vec))
        picks.append(zgen)
    return picks


def liebeck_sigma(G: PcPresentation, r: int, s: int,
                  caps=DEFAULT_CAPS) -> Automorphism:
    """For the order-128 fixture: a -> a v^{2r}, b -> b v^{2s} with
    v = [a, b]."""
    if G.n_gens != 2 or G.order != 128:
        raise DomainError("liebeck_sigma is defined for the order-128 fixture")
    a, b = G.gens()
    v = a.commutator(b)
    if v != b ** 8:
        raise DomainError("liebeck_sigma is defined for the order-128 fixture")
    if r not in (0, 1) or s not in (0, 1):
        raise DomainError("r and s must be 0 or 1")
    return make_automorphism(G, [a * v ** (2 * r), b * v ** (2 * s)])


# -- the cohomological route ----------------------------------------------------


def cohomological_witness(G: PcPresentation, caps=DEFAULT_CAPS):
    """Noninner order-p automorphism fixing the Frattini subgroup
    pointwise, produced through the cocycle bridge: nonvanishing of the
    degree-one cohomology of the Frattini module plus an order-p cocycle
    outside the principal ones.  Where it finds none, against the theorems
    it rests on, it returns a dict of what it found: the fixed set its
    fallback searched, or H0 and H1 of the Frattini module."""
    from pgforge import cohomology

    p = G.prime
    if p == 2:
        raise HypothesesUnmet("odd p required")
    if structure.is_abelian(G):
        raise HypothesesUnmet("abelian")
    cq = structure.central_quotient(G, caps)
    if not structure.is_powerful(cq, caps):
        raise HypothesesUnmet("central quotient not powerful")
    phi = structure.frattini(G, caps)
    if not structure.ds_condition(G, caps):
        # the reduction guarantees a witness exists in this regime but
        # gives no map; the exhaustive search stands in
        w = _search_noninner(G, phi, "frattini", caps)
        if w is None:
            return {"witness": "none found", "fixed_sets": ["frattini"]}
        return AutWitness(w.automorphism, w.order, w.fixed_set, None,
                          "ds-fallback-search")
    if not (structure.nilpotency_class(cq) <= 2 or structure.is_p_central(cq, caps)):
        raise HypothesesUnmet("central quotient outside the cohomology hypotheses")
    # under these hypotheses phi is nontrivial with a noncyclic quotient,
    # so H0 and H1 of its module are nonzero (the thm-3.6 claim)
    M = cohomology.module_of(G, phi, caps)
    found = {"N": phi.key(), "h0": list(cohomology.h0(M)),
             "h1": list(cohomology.h1(M)[2])}
    if not (found["h0"] and found["h1"]):
        return found
    principal = {f.key() for f in cohomology.b1(M)}
    f = next((f for f in cohomology.z1(M, caps)
              if f.key() not in principal and f.power(p).is_trivial()), None)
    if f is None:
        return {**found, "order_p_cocycles_outside_b1": 0}
    alpha = Automorphism._of_vecs(G, cohomology.bridge_vecs(M, [f])[0])
    return witness_for(G, alpha, phi, "frattini", path="cocycle-bridge", caps=caps)
