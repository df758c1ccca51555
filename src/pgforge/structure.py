"""Characteristic subgroups, series, numeric invariants and the predicates
(powerful, p-central, the centralizer condition) that gate theorem checks.

Everything is a pure function of an immutable presentation; expensive
results are memoized per presentation.

Every fixed-point subgroup comes from one orbit-stabilizer walk,
`stabilizer`, under conjugation or translation by p-th powers, each
optionally modulo a normal subgroup: the center, centralizers and the
centers of subgroups; each later level of the upper central series;
and Omega_1 of an abelian subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from pgforge import kernel
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import Element, PcPresentation, p_valuation
from pgforge.errors import CapExceeded, DomainError, MixedPresentationError
from pgforge.subgroups import (
    Subgroup,
    _IgsBuilder,
    _coset_rep,
    _leading,
    coset_layers,
    frattini_closure,
    full_subgroup,
    normal_closure,
    quotient,
    subgroup_closure,
    trivial_subgroup,
)


def _memo(P: PcPresentation, key, fn, caps=None):
    """fn(), computed once per presentation.

    Every memoized computation that takes caps checks P's element sweep
    cap before any smaller one, so a hit checks that cap: it refuses
    exactly where a cold call with the same caps would.
    """
    cache = P._cache
    if key in cache:
        if caps is not None:
            _check_sweep(P, caps)
        return cache[key]
    value = cache[key] = fn()
    return value


def _check_sweep(P: PcPresentation, caps):
    if P.order > caps.element_sweep:
        raise CapExceeded("element sweep", P.order, caps.element_sweep)


def _vectors(P: PcPresentation):
    """The exponent vectors of P, in the lexicographic order of
    P.elements()."""
    return itertools.product(*(range(m) for m in P.rel_orders))


def stabilizer(G: PcPresentation, seq, point, action=None) -> Subgroup:
    """The elements of <seq> that fix `point`; seq is an induced pc
    sequence (G's generators or a subgroup's IGS), as vectors.  action(x)
    is the map of points that x induces, for a right action of <seq>
    (point^(xy) = (point^x)^y); the default, `_conjugation(G)`, conjugates
    a tuple of exponent vectors.

    Orbit-stabilizer down the series U_j = <seq[j], seq[j+1], ...>, each
    normal in the one before with a cyclic quotient of order m, walked
    from the last entry up.  The orbit O of `point` under U_(j+1) is held
    as a dict from each orbit point to an element taking `point` there.
    Since U_(j+1) is normal, x = seq[j] permutes the U_(j+1)-orbits, so
    for the least k with point^(x^k) in O, at transversal t, O^(x^k) = O,
    k divides m, and the orbit under U_j is O, O^x, ..., O^(x^(k-1)).
    The stabilizer grows by the index m/k, by the row x^k t^-1, which
    fixes `point`.  The row normalizes the stabilizer so far, which is
    the new one's intersection with the normal U_(j+1); its (m/k)-th
    power lies in it; and its leading index comes before every entry of
    the table so far.  So the row extends the table without a closure,
    as in `_IgsBuilder.of` (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 8).  Nothing here reads what the
    points are, so the argument holds for every action."""
    t = G._tables
    mul, inv = kernel.mul, kernel.inv
    if action is None:
        action = _conjugation(G)
    orbit = {point: t.identity}
    b = _IgsBuilder(G)
    for x in reversed(seq):
        i = _leading(x)
        m = G.rel_orders[i] // x[i]
        act = action(x)
        # the search forms point's images with their transversals x^k, so
        # the extension moves only the rest of O, after point, its first key
        k, xk, image, trail = 1, x, act(point), []
        while image not in orbit:
            trail.append((image, xk))
            k, xk, image = k + 1, mul(t, xk, x), act(image)
        if k < m:
            b.add(mul(t, xk, inv(t, orbit[image])))
        layer = list(orbit.items())[1:]
        for item in trail:
            layer = [(act(pt), mul(t, u, x)) for pt, u in layer]
            orbit.update([item, *layer])
    return b.subgroup()


def _modulo(G: PcPresentation, N):
    """v -> its canonical coset representative modulo N, normal in G, or
    v itself when N is None."""
    if N is None:
        return lambda v: v
    return lambda v: _coset_rep(G._tables, N._table, v)


def _conjugation(G: PcPresentation, N=None):
    """Conjugation of tuples of vectors, pt -> (x^-1 v x for v in pt),
    each conjugate reduced modulo N when one is given."""
    t, product = G._tables, kernel.product
    reduce = _modulo(G, N)

    def action(x):
        xinv = kernel.inv(t, x)
        return lambda pt: tuple(reduce(product(t, (xinv, v, x))) for v in pt)

    return action


def _power_translation(G: PcPresentation, N=None):
    """Translation by p-th powers, b -> b x^p, reduced modulo N when one is
    given: an action of a subgroup S when S/N is abelian, since
    x -> x^p N is then a homomorphism on S, and the stabilizer of N's
    coset is its kernel."""
    t, mul = G._tables, kernel.mul
    reduce = _modulo(G, N)

    def action(x):
        xp = kernel.power(t, x, G.prime)
        return lambda b: reduce(mul(t, b, xp))

    return action


def _positions(P: PcPresentation):
    """The position of an exponent vector in P.elements(): its value in
    the mixed radix of the relative orders."""
    strides = []
    step = 1
    for m in reversed(P.rel_orders):
        strides.append(step)
        step *= m
    strides.reverse()
    return lambda vec: sum(e * s for e, s in zip(vec, strides))


def _chain_orders(p, up):
    """The element orders of a list closed under p-th powers, with the
    identity at position 0, from up[i], the position of the p-th power of
    entry i: |x| = p |x^p| for x != 1, followed along x -> x^p, so each
    order is found once."""
    orders = [0] * len(up)
    orders[0] = 1
    for i in range(len(up)):
        chain = []
        j = i
        while not orders[j]:
            chain.append(j)
            j = up[j]
        o = orders[j]
        for k in reversed(chain):
            o *= p
            orders[k] = o
    return orders


def element_orders(G: PcPresentation, caps=DEFAULT_CAPS):
    """The order of every element of G, as a tuple in G.elements() order,
    from one p-th power per element."""
    def compute():
        _check_sweep(G, caps)
        t = G._tables
        p = G.prime
        power = kernel.power
        position = _positions(G)
        return tuple(_chain_orders(p, [position(power(t, v, p)) for v in _vectors(G)]))

    return _memo(G, "element_orders", compute, caps)


def center(G: PcPresentation, caps=DEFAULT_CAPS) -> Subgroup:
    """Z(G), the stabilizer in G of its generators."""
    def compute():
        _check_sweep(G, caps)
        gens = tuple(g.vec for g in G.gens())
        return stabilizer(G, gens, gens)

    return _memo(G, "center", compute, caps)


def centralizer(G: PcPresentation, target, caps=DEFAULT_CAPS) -> Subgroup:
    """Centralizer of an element or a subgroup: the stabilizer in G of
    the element or of the subgroup's IGS; a subgroup's is computed once
    per presentation.  The cap and the presentation are checked before
    the memo, so a hit refuses exactly where a cold call would."""
    if not isinstance(target, (Element, Subgroup)):
        raise DomainError("centralizer target must be an Element or Subgroup")
    _check_sweep(G, caps)
    if not (target.pres is G or target.pres == G):
        raise MixedPresentationError("centralizer target from another presentation")
    gens = tuple(g.vec for g in G.gens())
    if isinstance(target, Element):
        return stabilizer(G, gens, (target.vec,))
    return _memo(G, ("centralizer", target.key()),
                 lambda: stabilizer(G, gens, target.key()))


def derived_subgroup(G: PcPresentation) -> Subgroup:
    def compute():
        gens = G.gens()
        comms = [
            gens[i].commutator(gens[j])
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        ]
        return normal_closure(G, comms)

    return _memo(G, "derived", compute)


def agemo(G: PcPresentation, i: int = 1, caps=DEFAULT_CAPS) -> Subgroup:
    """Subgroup generated by all p^i-th powers: those of the elements of
    order above p^i, once each."""
    def compute():
        q = G.prime ** i
        t = G._tables
        orders = element_orders(G, caps)
        powers = dict.fromkeys(
            kernel.power(t, v, q) for v, o in zip(_vectors(G), orders) if o > q
        )
        return subgroup_closure(G, powers)

    return _memo(G, ("agemo", i), compute, caps)


def frattini_quotient(G: PcPresentation):
    """The presentation of the elementary abelian G/frattini(G) with the
    projection from exponent vectors of G: its exponents are the F_p
    coordinates of a coset, and its generator count is rank_d(G)."""
    def compute():
        return quotient(G, frattini_closure(G)).presentation()

    return _memo(G, "frattini_quotient", compute)


def frattini(G: PcPresentation, caps=DEFAULT_CAPS) -> Subgroup:
    """G' G^p.  Cross-checked against the maximal-subgroup intersection
    and against the sweep G' <x^p : x in G> in the test suite.

    The sweep cap is checked first, although the construction sweeps
    nothing, so that every caller refuses where it always has, whether
    frattini_closure has already filled the memo or not."""
    _check_sweep(G, caps)
    return frattini_closure(G)


def omega1(S: Subgroup, caps=DEFAULT_CAPS) -> Subgroup:
    """The elements of order dividing p of an abelian S: the stabilizer
    of the identity in S under translation by p-th powers, an action
    since x -> x^p is a homomorphism of the abelian S.  The sweep cap is
    checked although nothing is swept, so refusals stay where they were."""
    if not S.is_abelian():
        raise DomainError("omega1 requires an abelian subgroup")
    P = S.pres
    if S.order > caps.element_sweep:
        raise CapExceeded("omega1 sweep", S.order, caps.element_sweep)
    return stabilizer(P, S.key(), P._tables.identity, _power_translation(P))


def omega1_general(G: PcPresentation, caps=DEFAULT_CAPS) -> Subgroup:
    """Subgroup generated by the elements of order dividing p."""
    def compute():
        p = G.prime
        orders = element_orders(G, caps)
        return subgroup_closure(G, [v for v, o in zip(_vectors(G), orders) if o <= p])

    return _memo(G, "omega1", compute, caps)


def upper_central_series(G: PcPresentation, caps=DEFAULT_CAPS):
    """1 = Z_0 < Z_1 < ... terminating at G; Z_1 is the center, and
    Z_(i+1) the stabilizer in G of the generators' cosets of Z_i under
    conjugation, since x fixes them exactly when [g, x] lies in Z_i for
    every generator g."""
    def compute():
        _check_sweep(G, caps)
        gens = tuple(g.vec for g in G.gens())
        series = [trivial_subgroup(G)]
        while series[-1].order < G.order:
            prev = series[-1]
            if len(series) == 1:
                nxt = center(G, caps)
            else:
                reduce = _modulo(G, prev)
                nxt = stabilizer(G, gens, tuple(map(reduce, gens)), _conjugation(G, prev))
            if nxt.order == prev.order:
                raise DomainError("upper central series stalled; group not nilpotent?")
            series.append(nxt)
        return series

    return _memo(G, "ucs", compute, caps)


def lower_central_series(G: PcPresentation):
    """G = gamma_1 > gamma_2 > ... terminating at 1."""
    def compute():
        series = [full_subgroup(G)]
        gens = G.gens()
        while not series[-1].is_trivial():
            prev = series[-1]
            comms = [u.commutator(g) for u in prev.igs for g in gens]
            nxt = normal_closure(G, comms)
            if nxt.order == prev.order:
                raise DomainError("lower central series stalled; group not nilpotent?")
            series.append(nxt)
        return series

    return _memo(G, "lcs", compute)


def nilpotency_class(G: PcPresentation) -> int:
    return len(lower_central_series(G)) - 1


def coclass(G: PcPresentation) -> int:
    n = p_valuation(G.order, G.prime)
    if n is None or n <= 2:
        raise DomainError("coclass is defined for order p^n with n > 2")
    return n - nilpotency_class(G)


def rank_d(G: PcPresentation, caps=DEFAULT_CAPS) -> int:
    """Minimal generator count, log_p |G / frattini|."""
    idx = G.order // frattini(G, caps).order
    return p_valuation(idx, G.prime)


def _invariant_factors(p, levels):
    """Invariant factors, largest first, of a finite abelian p-group B
    given by levels[k] = log_p |B[p^k]|, the elements of order dividing
    p^k, for k = 0, 1, ... up to the exponent of B at least.

    l_k - l_(k-1) factors have order >= p^k.
    """
    levels = list(levels) + [levels[-1]]
    return [p ** k for k in range(len(levels) - 2, 0, -1)
            for _ in range(2 * levels[k] - levels[k - 1] - levels[k + 1])]


def abelian_invariants(A: Subgroup, caps=DEFAULT_CAPS):
    """Invariant factors of an abelian subgroup, largest first."""
    if not A.is_abelian():
        raise DomainError("abelian_invariants requires an abelian subgroup")
    if A.order > caps.element_sweep:
        raise CapExceeded("abelian invariants sweep", A.order, caps.element_sweep)
    p, orders = A.pres.prime, _orders_in(A)[1]
    return _invariant_factors(p, [p_valuation(sum(o <= p ** k for o in orders), p)
                                  for k in range(p_valuation(max(orders), p) + 1)])


def _orders_in(A: Subgroup):
    """A's exponent vectors, in the order of `A.vectors()`, and their
    element orders, from one p-th power per element."""
    t = A.pres._tables
    p = A.pres.prime
    vecs = A.vectors()
    position = {v: i for i, v in enumerate(vecs)}
    return vecs, _chain_orders(p, [position[kernel.power(t, v, p)] for v in vecs])


def d_abelian(A: Subgroup, caps=DEFAULT_CAPS) -> int:
    return len(abelian_invariants(A, caps))


def abelian_basis(A: Subgroup, caps=DEFAULT_CAPS):
    """An independent generating list (b_1, ..., b_m) with descending
    orders whose direct product is A.

    Greedy over A's vectors by descending order, then by vector: a pick
    keeps the product direct when <x> meets the span trivially, which for
    x of order o happens exactly when x^(o/p), the generator of <x>'s
    subgroup of order p, is outside the span.  So each candidate costs one
    sift through the one span that the picks grow, a pick x of order o
    by x^(o/p), x^(o/p^2), ..., x, one table row each.  A candidate
    rejected once stays rejected as the span grows, so one pass suffices."""
    if not A.is_abelian():
        raise DomainError("abelian_basis requires an abelian subgroup")
    if A.order > caps.element_sweep:
        raise CapExceeded("abelian basis sweep", A.order, caps.element_sweep)
    P = A.pres
    t = P._tables
    p = P.prime
    vecs, orders = _orders_in(A)
    basis = []
    size = 1
    span = _IgsBuilder(P)
    for o, x in sorted(zip(orders, vecs), key=lambda ox: (-ox[0], ox[1])):
        if size == A.order:
            break
        if o > 1 and _leading(span.sift(kernel.power(t, x, o // p))) is not None:
            basis.append(Element(P, x))
            size *= o
            # each power normalizes the abelian span and has its p-th power
            # in it, so it extends the table without a closure (`_IgsBuilder.of`)
            q = o
            while q > 1:
                q //= p
                span.add(kernel.power(t, x, q))
    if size != A.order:
        raise DomainError("no independent pick; input was not abelian?")
    return basis


def is_abelian(G: PcPresentation) -> bool:
    gens = G.gens()
    return all(
        gens[i].commutator(gens[j]).is_identity
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )


def is_powerful(G: PcPresentation, caps=DEFAULT_CAPS) -> bool:
    """G' <= G^p for odd p, G' <= G^4 for p = 2."""
    def compute():
        d = derived_subgroup(G)
        target = agemo(G, 2 if G.prime == 2 else 1, caps)
        return all(target.membership(x) for x in d.igs)

    return _memo(G, "powerful", compute, caps)


def is_p_central(G: PcPresentation, caps=DEFAULT_CAPS) -> bool:
    """Every element of order p is central."""
    def compute():
        om = omega1_general(G, caps)
        zc = omega1(center(G, caps), caps)
        return om == zc

    return _memo(G, "p_central", compute, caps)


def ds_condition(G: PcPresentation, caps=DEFAULT_CAPS) -> bool:
    """C_G(Z(frattini(G))) equals frattini(G), with both the center and
    the centralizer memoized."""
    def compute():
        phi = frattini(G, caps)
        return centralizer(G, center_of_subgroup(G, phi, caps), caps) == phi

    return _memo(G, "ds", compute, caps)


def center_of_subgroup(G: PcPresentation, S: Subgroup, caps=DEFAULT_CAPS) -> Subgroup:
    """Z(S), the stabilizer in S of its IGS, once per presentation and
    subgroup.  The cap is checked before the memo, so a hit refuses
    exactly where a cold call would."""
    if S.order > caps.element_sweep:
        raise CapExceeded("subgroup center sweep", S.order, caps.element_sweep)
    if not (S.pres is G or S.pres == G):
        raise MixedPresentationError("subgroup of another presentation")
    return _memo(G, ("center_of_subgroup", S.key()),
                 lambda: stabilizer(G, S.key(), S.key()))


def maximal_subgroups(G: PcPresentation, caps=DEFAULT_CAPS):
    """All index-p subgroups, sorted by key: the pullbacks of the
    hyperplanes of G/frattini(G), built rather than closed.

    The generators at the layers where frattini(G)'s cosets take p values
    (`coset_layers`) are a basis b_1..b_d of the elementary abelian
    quotient.  Each hyperplane is the kernel of one functional f whose
    first nonzero coefficient f_l is 1, and it has the basis b_k (k < l)
    and b_k b_l^(-f_k) (k > l).  Every subgroup above frattini(G) is
    normal with x^p in frattini(G), so each of those d - 1 vectors extends
    the table by one layer (`_IgsBuilder.of`), with no closure."""
    phi = frattini(G, caps)
    t = G._tables
    p = G.prime
    basis = [g.vec for g, l in zip(G.gens(), coset_layers(phi)) if l > 1]
    out = []
    for lead, b_l in enumerate(basis):
        shifts = [kernel.power(t, b_l, -c) for c in range(p)]
        later = basis[lead + 1:]
        for f in itertools.product(range(p), repeat=len(later)):
            b = _IgsBuilder.of(phi)
            for v in basis[:lead]:
                b.add(v)
            for v, c in zip(later, f):
                b.add(kernel.mul(t, v, shifts[c]))
            out.append(b.subgroup())
    out.sort(key=Subgroup.key)
    return out


@dataclass(frozen=True)
class GroupProfile:
    """The serializable structural summary of a group."""

    name: str
    prime: int
    order: int
    is_abelian: bool
    nilpotency_class: int
    coclass: object  # int, or None when |G| <= p^2
    d: int
    d_center: int
    center_invariants: tuple
    exponent: int
    is_powerful: bool
    is_p_central: bool
    ds_condition: bool
    upper_series_orders: tuple
    lower_series_orders: tuple

    def to_dict(self):
        return {
            "name": self.name,
            "prime": self.prime,
            "order": self.order,
            "abelian": self.is_abelian,
            "class": self.nilpotency_class,
            "coclass": self.coclass,
            "d": self.d,
            "d_center": self.d_center,
            "center_invariants": list(self.center_invariants),
            "exponent": self.exponent,
            "powerful": self.is_powerful,
            "p_central": self.is_p_central,
            "ds_condition": self.ds_condition,
            "upper_series_orders": list(self.upper_series_orders),
            "lower_series_orders": list(self.lower_series_orders),
        }


def exponent(G: PcPresentation, caps=DEFAULT_CAPS) -> int:
    return max(element_orders(G, caps))


def profile(G: PcPresentation, caps=DEFAULT_CAPS) -> GroupProfile:
    def compute():
        G.require_consistent()
        center_invariants = tuple(abelian_invariants(center(G, caps), caps))
        n = p_valuation(G.order, G.prime)
        cls = nilpotency_class(G)
        return GroupProfile(
            name=G.name,
            prime=G.prime,
            order=G.order,
            is_abelian=is_abelian(G),
            nilpotency_class=cls,
            coclass=(n - cls) if n > 2 else None,
            d=rank_d(G, caps),
            d_center=len(center_invariants),
            center_invariants=center_invariants,
            exponent=exponent(G, caps),
            is_powerful=is_powerful(G, caps),
            is_p_central=is_p_central(G, caps),
            ds_condition=ds_condition(G, caps),
            upper_series_orders=tuple(s.order for s in upper_central_series(G, caps)),
            lower_series_orders=tuple(s.order for s in lower_central_series(G)),
        )

    return _memo(G, "profile", compute, caps)


def central_quotient(G: PcPresentation, caps=DEFAULT_CAPS) -> PcPresentation:
    """Presentation of G/Z(G)."""
    def compute():
        pres, _ = quotient(G, center(G, caps)).presentation()
        return pres

    return _memo(G, "central_quotient", compute, caps)
