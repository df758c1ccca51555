"""Characteristic subgroups, series, numeric invariants and the predicates
(powerful, p-central, the centralizer condition) that gate theorem checks.

Everything is a pure function of an immutable presentation; expensive
results are memoized per presentation.
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
    _leading,
    _sift,
    coset_layers,
    frattini_closure,
    full_subgroup,
    normal_closure,
    quotient,
    subgroup_closure,
    subgroup_of_elements,
    trivial_subgroup,
)


def _memo(P: PcPresentation, key, fn, caps=None):
    """fn(), computed once per presentation.

    Every memoized computation that takes caps sweeps the whole of P before
    any smaller sweep, so a hit checks that sweep's cap: it refuses exactly
    where a cold call with the same caps would.
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


def _commuting(t, vecs, targets):
    """The vectors x among vecs with x g = g x for every target vector g."""
    mul = kernel.mul
    return [x for x in vecs if all(mul(t, x, g) == mul(t, g, x) for g in targets)]


def _commuting_sweep(G: PcPresentation, targets, caps):
    """The subgroup of the elements commuting with every target, by a
    sweep of G's exponent vectors; the swept list is the whole subgroup,
    so it is not closed again."""
    _check_sweep(G, caps)
    if any(not (g.pres is G or g.pres == G) for g in targets):
        raise MixedPresentationError("centralizer target from another presentation")
    return subgroup_of_elements(G, _commuting(G._tables, _vectors(G), [g.vec for g in targets]))


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
    return _memo(G, "center", lambda: _commuting_sweep(G, G.gens(), caps), caps)


def centralizer(G: PcPresentation, target, caps=DEFAULT_CAPS) -> Subgroup:
    """Centralizer of an element or a subgroup, by element sweep."""
    if isinstance(target, Element):
        tgens = [target]
    elif isinstance(target, Subgroup):
        tgens = list(target.igs)
    else:
        raise DomainError("centralizer target must be an Element or Subgroup")
    return _commuting_sweep(G, tgens, caps)


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
    """Subgroup generated by the elements of order dividing p; the input
    must be abelian."""
    if not S.is_abelian():
        raise DomainError("omega1 requires an abelian subgroup")
    P = S.pres
    if S.order > caps.element_sweep:
        raise CapExceeded("omega1 sweep", S.order, caps.element_sweep)
    t = P._tables
    power = kernel.power
    members = [v for v in S.vectors() if power(t, v, P.prime) == t.identity]
    return subgroup_of_elements(P, members)


def omega1_general(G: PcPresentation, caps=DEFAULT_CAPS) -> Subgroup:
    """Subgroup generated by the elements of order dividing p."""
    def compute():
        p = G.prime
        orders = element_orders(G, caps)
        return subgroup_closure(G, [v for v, o in zip(_vectors(G), orders) if o <= p])

    return _memo(G, "omega1", compute, caps)


def _next_center(G: PcPresentation, Z: Subgroup) -> Subgroup:
    """Z_{i+1} from Z = Z_i.  x lies in it exactly when [x, g] lies in Z
    for every generator g, which depends only on the coset xZ, so one
    canonical representative per coset is tested: [x, g] = (g x)^-1 (x g),
    sifted through Z's pivot table."""
    t = G._tables
    mul, inv = kernel.mul, kernel.inv
    ident = t.identity
    gens = [g.vec for g in G.gens()]
    reps = itertools.product(*(range(l) for l in coset_layers(Z)))
    members = [
        x for x in reps
        if all(_sift(t, Z._table, mul(t, inv(t, mul(t, g, x)), mul(t, x, g))) == ident
               for g in gens)
    ]
    return subgroup_closure(G, [u.vec for u in Z.igs] + members)


def upper_central_series(G: PcPresentation, caps=DEFAULT_CAPS):
    """1 = Z_0 < Z_1 < ... terminating at G; Z_1 is the center, and each
    later level sweeps the coset representatives of the one before."""
    def compute():
        _check_sweep(G, caps)
        series = [trivial_subgroup(G)]
        while series[-1].order < G.order:
            prev = series[-1]
            nxt = center(G, caps) if len(series) == 1 else _next_center(G, prev)
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
    sift through the one span that the picks grow.  A candidate rejected
    once stays rejected as the span grows, so one pass suffices."""
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
            span.add(x)
            span.close()
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
    """C_G(Z(frattini(G))) equals frattini(G).

    The centralizer contains frattini(G), so it is a union of its cosets,
    and a coset lies in it exactly when its canonical representative
    does.  So the condition holds exactly when no representative of a
    nontrivial coset commutes with Z(frattini(G))'s IGS: one test per
    coset, not per element of G."""
    def compute():
        phi = frattini(G, caps)
        z_phi = center_of_subgroup(G, phi, caps)
        _check_sweep(G, caps)
        reps = itertools.product(*(range(l) for l in coset_layers(phi)))
        next(reps)  # the identity, representing phi itself
        return not _commuting(G._tables, reps, [u.vec for u in z_phi.igs])

    return _memo(G, "ds", compute, caps)


def center_of_subgroup(G: PcPresentation, S: Subgroup, caps=DEFAULT_CAPS) -> Subgroup:
    """Z(S), by a sweep of S's exponent vectors against its IGS, once per
    presentation and subgroup.  The cap is checked before the memo, so a
    hit refuses exactly where a cold call would."""
    if S.order > caps.element_sweep:
        raise CapExceeded("subgroup center sweep", S.order, caps.element_sweep)
    if not (S.pres is G or S.pres == G):
        raise MixedPresentationError("subgroup of another presentation")
    return _memo(G, ("center_of_subgroup", S.key()), lambda: subgroup_of_elements(
        G, _commuting(G._tables, S.vectors(), [u.vec for u in S.igs])))


def maximal_subgroups(G: PcPresentation, caps=DEFAULT_CAPS):
    """All index-p subgroups: pullbacks of the hyperplanes of G/frattini."""
    phi = frattini(G, caps)
    Qp, project = frattini_quotient(G)
    p = G.prime
    d = Qp.n_gens
    if d == 0:
        return []
    # F_p coordinates of each coset representative
    coords = {x.vec: project(x.vec) for x in quotient(G, phi).elements()}
    out = []
    seen = set()
    # hyperplanes = kernels of nonzero functionals, up to scalar
    for func in itertools.product(range(p), repeat=d):
        if not any(func):
            continue
        lead = next(i for i, c in enumerate(func) if c)
        if func[lead] != 1:
            continue  # normalize the functional
        gens = list(phi.igs)
        for vec, exps in coords.items():
            if sum(c * e for c, e in zip(func, exps)) % p == 0:
                gens.append(Element(G, vec))
        M = subgroup_closure(G, gens)
        if M.key() not in seen:
            seen.add(M.key())
            out.append(M)
    out.sort(key=lambda s: s.key())
    expected = (p ** d - 1) // (p - 1)
    if len(out) != expected:
        raise DomainError(
            f"maximal subgroup count {len(out)} != {expected}"
        )
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
