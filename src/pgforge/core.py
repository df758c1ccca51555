"""Power-commutator presentations and exponent-vector arithmetic.

A presentation over a prime p consists of generators g_1..g_n (rendered
x1..xn in files, 0-based in code), a relative order for each generator
(a power of p), a power relation g_i^{m_i} = w_i with w_i a normal word in
generators of index > i, and conjugation relations g_j^{g_i} = w_{ji} for
i < j with w_{ji} a normal word in generators of index >= j.

Every element has a unique normal form: an exponent vector e with
0 <= e_i < m_i.  All arithmetic goes through collection to that form.
Presentations and elements are immutable and safe to share.
"""

from __future__ import annotations

import itertools
import re

from pgforge import kernel
from pgforge.errors import (
    ConsistencyError,
    MixedPresentationError,
    PresentationError,
)

MAX_GENERATORS = 256
"""The most generators a presentation may have.  A presentation holds n*n
conjugation slots and the kernel's tables grow alike, so a larger count is
refused before anything of that size is allocated."""


def _check_generator_count(n, line=None):
    if n > MAX_GENERATORS:
        raise PresentationError(
            f"generator count {n} is above the cap {MAX_GENERATORS}", line)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_valuation(m: int, p: int):
    """v with m = p^v, or None if m is not a power of p."""
    if m < 1:
        return None
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v if m == 1 else None


Word = tuple  # tuple of (generator, exponent) pairs


class PcPresentation:
    """Immutable power-commutator presentation of a finite p-group."""

    __slots__ = (
        "prime",
        "n_gens",
        "rel_orders",
        "pow_words",
        "conj_words",
        "name",
        "_tables",
        "_key",
        "_consistent",
        "__weakref__",
        "_cache",
    )

    def __init__(self, prime, rel_orders, pow_words=None, conj_words=None, name="G"):
        if not is_prime(prime):
            raise PresentationError(f"{prime} is not prime")
        rel_orders = tuple(int(m) for m in rel_orders)
        n = len(rel_orders)
        _check_generator_count(n)
        for i, m in enumerate(rel_orders):
            v = p_valuation(m, prime)
            if v is None or v == 0:
                raise PresentationError(
                    f"relative order {m} of x{i + 1} is not a positive power of {prime}"
                )
        pow_words = list(pow_words or [() for _ in range(n)])
        if len(pow_words) != n:
            raise PresentationError("one power word required per generator")
        conj_flat = [None] * (n * n)
        for (j, i), w in (conj_words or {}).items():
            if not (0 <= i < j < n):
                raise PresentationError(
                    f"conjugation relation needs j > i, got j={j + 1}, i={i + 1}"
                )
            conj_flat[i * n + j] = tuple(w)
        self.prime = prime
        self.n_gens = n
        self.rel_orders = rel_orders
        self.pow_words = tuple(self._check_word(w, i + 1, f"pow {i + 1}") for i, w in enumerate(pow_words))
        for i in range(n):
            for j in range(i + 1, n):
                w = conj_flat[i * n + j]
                if w is not None:
                    w = self._check_word(w, j, f"conj {j + 1} {i + 1}")
                    # the trivial conjugate is stored as None
                    conj_flat[i * n + j] = w if w != ((j, 1),) else None
        self.conj_words = tuple(conj_flat)
        self.name = name
        self._tables = kernel.make_tables(n, rel_orders, self.pow_words, self.conj_words)
        self._key = (prime, rel_orders, self.pow_words, self.conj_words)
        self._consistent = None
        self._cache = {}

    def _check_word(self, w, min_index, where):
        w = tuple((int(g), int(e)) for g, e in w)
        last = min_index - 1
        for g, e in w:
            if g < min_index:
                raise PresentationError(
                    f"{where}: relation references lower-index generator x{g + 1}"
                )
            if g >= self.n_gens:
                raise PresentationError(f"{where}: no generator x{g + 1}")
            if g <= last:
                raise PresentationError(f"{where}: word is not in normal form")
            if not 0 < e < self.rel_orders[g]:
                raise PresentationError(
                    f"{where}: exponent {e} of x{g + 1} out of range"
                )
            last = g
        return w

    # -- identity, generators, elements ---------------------------------

    @property
    def order(self) -> int:
        n = 1
        for m in self.rel_orders:
            n *= m
        return n

    def identity(self) -> "Element":
        return Element(self, self._tables.identity)

    def gen(self, i: int) -> "Element":
        vec = [0] * self.n_gens
        vec[i] = 1
        return Element(self, tuple(vec))

    def gens(self):
        return [self.gen(i) for i in range(self.n_gens)]

    def element(self, exponents) -> "Element":
        vec = tuple(int(e) for e in exponents)
        if len(vec) != self.n_gens:
            raise PresentationError("exponent vector has wrong length")
        if any(not 0 <= e < m for e, m in zip(vec, self.rel_orders)):
            vec = kernel.collect(
                self._tables,
                self._tables.identity,
                [(i, e % m) for i, (e, m) in enumerate(zip(vec, self.rel_orders))],
            )
        return Element(self, kernel._shared(self._tables, vec))

    def collect(self, word) -> "Element":
        """Normal form of an arbitrary word; negative exponents allowed.
        A generator index outside 0..n-1 (x1..xn) is refused."""
        out = self.identity()
        for g, e in word:
            if not 0 <= g < self.n_gens:
                raise PresentationError(f"no generator x{g + 1}")
            if e:
                out = out * self.gen(g) ** e
        return out

    def elements(self):
        """All |G| normal forms, in lexicographic exponent order."""
        for vec in itertools.product(*(range(m) for m in self.rel_orders)):
            yield Element(self, vec)

    # -- consistency -----------------------------------------------------

    def consistency_check(self):
        """The standard overlap tests.  Returns a list of violations,
        empty iff the presentation is consistent and |G| equals the
        product of the relative orders."""
        n = self.n_gens
        t = self._tables
        gens = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        powers = [kernel.collect(t, t.identity, self.pow_words[i]) for i in range(n)]
        violations = []

        def check(lhs, rhs, label):
            if lhs != rhs:
                violations.append(f"{label}: {lhs} != {rhs}")

        mul = lambda u, v: kernel.mul(t, u, v)
        for i in range(n):
            check(
                mul(gens[i], powers[i]),
                mul(powers[i], gens[i]),
                f"x{i + 1}*x{i + 1}^{self.rel_orders[i]} vs x{i + 1}^{self.rel_orders[i]}*x{i + 1}",
            )
        for j in range(n):
            for i in range(j):
                mj = self.rel_orders[j]
                left = mul(powers[j], gens[i])
                gj_small = tuple(mj - 1 if k == j else 0 for k in range(n))
                right = mul(gj_small, mul(gens[j], gens[i]))
                check(left, right, f"x{j + 1}^{mj}*x{i + 1} vs x{j + 1}^{mj - 1}*(x{j + 1}*x{i + 1})")
                mi = self.rel_orders[i]
                left = mul(gens[j], powers[i])
                gi_small = tuple(mi - 1 if k == i else 0 for k in range(n))
                right = mul(mul(gens[j], gens[i]), gi_small)
                check(left, right, f"x{j + 1}*x{i + 1}^{mi} vs (x{j + 1}*x{i + 1})*x{i + 1}^{mi - 1}")
        for k in range(n):
            for j in range(k):
                for i in range(j):
                    left = mul(gens[k], mul(gens[j], gens[i]))
                    right = mul(mul(gens[k], gens[j]), gens[i])
                    check(left, right, f"x{k + 1}*(x{j + 1}*x{i + 1}) vs (x{k + 1}*x{j + 1})*x{i + 1}")
        self._consistent = not violations
        return violations

    @property
    def is_consistent(self) -> bool:
        if self._consistent is None:
            self.consistency_check()
        return self._consistent

    def require_consistent(self):
        if not self.is_consistent:
            raise ConsistencyError(f"presentation {self.name!r} is inconsistent")

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PcPresentation) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<PcPresentation {self.name!r} p={self.prime} order={self.order}>"


class Element:
    """A group element in normal form, bound to its presentation."""

    __slots__ = ("pres", "vec")

    def __init__(self, pres: PcPresentation, vec: tuple):
        self.pres = pres
        self.vec = vec

    def _same(self, other: "Element"):
        if self.pres is other.pres or self.pres == other.pres:
            return
        raise MixedPresentationError(
            f"elements of {self.pres.name!r} and {other.pres.name!r} cannot be combined"
        )

    def __mul__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.pres, kernel.mul(self.pres._tables, self.vec, other.vec))

    def inverse(self) -> "Element":
        return Element(self.pres, kernel.inv(self.pres._tables, self.vec))

    def __pow__(self, k: int) -> "Element":
        return Element(self.pres, kernel.power(self.pres._tables, self.vec, k))

    def conjugate(self, g: "Element") -> "Element":
        """g^{-1} * self * g"""
        self._same(g)
        t = self.pres._tables
        return Element(self.pres, kernel.product(t, (kernel.inv(t, g.vec), self.vec, g.vec)))

    def commutator(self, y: "Element") -> "Element":
        """self^{-1} * y^{-1} * self * y"""
        self._same(y)
        t = self.pres._tables
        xv, yv = self.vec, y.vec
        return Element(
            self.pres, kernel.product(t, (kernel.inv(t, xv), kernel.inv(t, yv), xv, yv))
        )

    def order(self) -> int:
        """Smallest k >= 1 with self^k = 1; a p-power."""
        t = self.pres._tables
        p = self.pres.prime
        ord_ = 1
        v = self.vec
        while any(v):
            v = kernel.power(t, v, p)
            ord_ *= p
        return ord_

    @property
    def is_identity(self) -> bool:
        return not any(self.vec)

    def leading_index(self):
        for i, e in enumerate(self.vec):
            if e:
                return i
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.vec == other.vec
            and (self.pres is other.pres or self.pres == other.pres)
        )

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"El{self.vec}"

    def word_str(self) -> str:
        if self.is_identity:
            return "1"
        return "*".join(
            f"x{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(self.vec)
            if e
        )


# -- convenience wrappers matching the operation-level contract ----------

def multiply(x: Element, y: Element) -> Element:
    return x * y


def inverse(x: Element) -> Element:
    return x.inverse()


def power(x: Element, k: int) -> Element:
    return x ** k


def commutator(x: Element, y: Element) -> Element:
    return x.commutator(y)


def conjugate(x: Element, g: Element) -> Element:
    return x.conjugate(g)


def element_order(x: Element) -> int:
    return x.order()


def consistency_check(P: PcPresentation):
    return P.consistency_check()


# -- text format ----------------------------------------------------------

_WORD_TERM = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _parse_word(text, lineno):
    text = text.strip()
    if text in ("1", ""):
        return ()
    word = []
    for term in text.split("*"):
        m = _WORD_TERM.match(term.strip())
        if not m:
            raise PresentationError(f"bad word term {term.strip()!r}", lineno)
        g = int(m.group(1)) - 1
        e = int(m.group(2)) if m.group(2) else 1
        word.append((g, e))
    return tuple(word)


def _parse_int(text, what, lineno):
    try:
        return int(text)
    except ValueError:
        raise PresentationError(f"bad {what} {text.strip()!r}", lineno) from None


def parse_presentation(text: str) -> PcPresentation:
    """Parse the line-oriented presentation format.

    Directives: `group <name>`, `prime <p>`, `gens <k>`,
    `order <i> <p-power>`, `pow <i> = <word>`, `conj <j> <i> = <word>`.
    Words look like `x3^2*x5`; `#` starts a comment; `1` is the identity.
    """
    name = None
    prime = None
    n = None
    orders = {}
    pows = {}
    conjs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if directive == "group":
            if not rest:
                raise PresentationError("group needs a name", lineno)
            name = rest.strip()
        elif directive == "prime":
            prime = _parse_int(rest, "prime", lineno)
            if not is_prime(prime):
                raise PresentationError(f"{prime} is not prime", lineno)
        elif directive == "gens":
            n = _parse_int(rest, "generator count", lineno)
            if n < 0:
                raise PresentationError("generator count must be >= 0", lineno)
            _check_generator_count(n, lineno)
        elif directive == "order":
            fields = rest.split()
            if len(fields) != 2:
                raise PresentationError("order needs <i> <p-power>", lineno)
            i = _parse_int(fields[0], "generator index", lineno)
            m = _parse_int(fields[1], "relative order", lineno)
            if n is None or not 1 <= i <= n:
                raise PresentationError(f"order: no generator x{i}", lineno)
            if i in orders:
                raise PresentationError(f"duplicate order for x{i}", lineno)
            orders[i] = (m, lineno)
        elif directive == "pow":
            lhs, _, rhs = rest.partition("=")
            fields = lhs.split()
            if len(fields) != 1 or not _:
                raise PresentationError("pow needs `pow <i> = <word>`", lineno)
            i = _parse_int(fields[0], "generator index", lineno)
            if n is None or not 1 <= i <= n:
                raise PresentationError(f"pow: no generator x{i}", lineno)
            if i in pows:
                raise PresentationError(f"duplicate pow for x{i}", lineno)
            pows[i] = (_parse_word(rhs, lineno), lineno)
        elif directive == "conj":
            lhs, _, rhs = rest.partition("=")
            fields = lhs.split()
            if len(fields) != 2 or not _:
                raise PresentationError("conj needs `conj <j> <i> = <word>`", lineno)
            j = _parse_int(fields[0], "generator index", lineno)
            i = _parse_int(fields[1], "generator index", lineno)
            if n is None or not (1 <= i <= n and 1 <= j <= n):
                raise PresentationError("conj: generator index out of range", lineno)
            if j <= i:
                raise PresentationError(
                    f"conj {j} {i}: needs j > i (conjugating generator comes second)",
                    lineno,
                )
            if (j, i) in conjs:
                raise PresentationError(f"duplicate conj {j} {i}", lineno)
            conjs[(j, i)] = (_parse_word(rhs, lineno), lineno)
        else:
            raise PresentationError(f"unknown directive {directive!r}", lineno)
    if prime is None:
        raise PresentationError("missing `prime` directive")
    if n is None:
        raise PresentationError("missing `gens` directive")
    for i in range(1, n + 1):
        if i not in orders:
            raise PresentationError(f"missing `order {i}`")
    for i in range(1, n + 1):
        m, lineno = orders[i]
        v = p_valuation(m, prime)
        if v is None or v == 0:
            raise PresentationError(
                f"relative order {m} of x{i} is not a positive power of {prime}",
                lineno,
            )
    try:
        return PcPresentation(
            prime,
            [orders[i][0] for i in range(1, n + 1)],
            [pows.get(i, ((), None))[0] for i in range(1, n + 1)],
            {(j - 1, i - 1): w for (j, i), (w, _) in conjs.items()},
            name=name or "G",
        )
    except PresentationError as exc:
        # attach the offending line when the relation data is to blame;
        # match the whole prefix, so that "pow 1" does not claim "pow 12: ..."
        message = str(exc)
        for i, (w, lineno) in pows.items():
            if message.startswith(f"pow {i}:"):
                raise PresentationError(message, lineno) from None
        for (j, i), (w, lineno) in conjs.items():
            if message.startswith(f"conj {j} {i}:"):
                raise PresentationError(message, lineno) from None
        raise


def _word_str(word) -> str:
    if not word:
        return "1"
    return "*".join(f"x{g + 1}" + (f"^{e}" if e > 1 else "") for g, e in word)


def serialize_presentation(P: PcPresentation) -> str:
    """Canonical text form; parse(serialize(P)) == P and serializing a
    parse of canonical text is byte-identical."""
    lines = [f"group {P.name}", f"prime {P.prime}", f"gens {P.n_gens}"]
    for i, m in enumerate(P.rel_orders, start=1):
        lines.append(f"order {i} {m}")
    for i, w in enumerate(P.pow_words, start=1):
        if w:
            lines.append(f"pow {i} = {_word_str(w)}")
    n = P.n_gens
    for j in range(1, n):
        for i in range(j):
            w = P.conj_words[i * n + j]
            if w is not None:
                lines.append(f"conj {j + 1} {i + 1} = {_word_str(w)}")
    return "\n".join(lines) + "\n"
