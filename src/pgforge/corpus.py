"""Built-in corpus: the named fixture groups, standard desk-scale families,
and manifest ingestion for user presentations.

Every entry carries expected facts that are recomputed at load time; a
mismatch rejects the entry.  Nothing is trusted from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from pgforge.caps import DEFAULT_CAPS
from pgforge.core import PcPresentation, parse_presentation
from pgforge.errors import DomainError, PresentationError
from pgforge import structure
from pgforge.subgroups import full_subgroup, subgroup_closure


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    presentation: PcPresentation
    provenance: str
    expected_facts: tuple = ()

    def validate(self, caps=DEFAULT_CAPS):
        """Recompute every expected fact; raise on the first mismatch."""
        violations = self.presentation.consistency_check()
        if violations:
            raise DomainError(
                f"{self.id}: presentation inconsistent: {violations[0]}"
            )
        for name, expected in self.expected_facts:
            actual = evaluate_fact(self.presentation, name, caps)
            if actual != expected:
                raise DomainError(
                    f"{self.id}: fact {name!r}: expected {expected}, computed {actual}"
                )
        return True


FACT_NAMES = (
    "order",
    "class",
    "coclass",
    "d",
    "center_invariants",
    "exponent",
    "powerful",
    "p_central",
)


def evaluate_fact(G: PcPresentation, name: str, caps=DEFAULT_CAPS):
    if name == "order":
        return G.order
    if name == "class":
        return structure.nilpotency_class(G)
    if name == "coclass":
        return structure.coclass(G)
    if name == "d":
        return structure.rank_d(G, caps)
    if name == "center_invariants":
        return tuple(structure.abelian_invariants(structure.center(G, caps), caps))
    if name == "exponent":
        return structure.exponent(G, caps)
    if name == "powerful":
        return structure.is_powerful(G, caps)
    if name == "p_central":
        return structure.is_p_central(G, caps)
    # extended, code-level facts
    if name.startswith("gen_order:"):
        i = int(name.split(":", 1)[1])
        return G.gen(i - 1).order()
    if name.startswith("center_gens:"):
        words = name.split(":", 1)[1]
        gens = [_element_of_word(G, w) for w in words.split(";")]
        return structure.center(G, caps) == subgroup_closure(G, gens)
    if name.startswith("derived_gens:"):
        words = name.split(":", 1)[1]
        gens = [_element_of_word(G, w) for w in words.split(";")]
        return structure.derived_subgroup(G) == subgroup_closure(G, gens)
    if name == "abelianization":
        der = structure.derived_subgroup(G)
        from pgforge.subgroups import quotient

        qp, _ = quotient(G, der).presentation()
        return tuple(structure.abelian_invariants(full_subgroup(qp), caps))
    if name == "derived_in_center":
        Z = structure.center(G, caps)
        return all(Z.membership(x) for x in structure.derived_subgroup(G).igs)
    raise DomainError(f"unknown fact name {name!r}")


def _element_of_word(G, text):
    from pgforge.core import _parse_word

    return G.collect(_parse_word(text, 0))


# -- named fixtures ---------------------------------------------------------


def metacyclic(r: int, s: int, t: int) -> CorpusEntry:
    """Two-generator 2-group <a, b> with a^{2^r} = b^{2^s},
    b^{2^{s+t}} = 1 and b^a = b^{2^t + 1}, for r >= s >= t >= 2."""
    if not r >= s >= t >= 2:
        raise DomainError(f"metacyclic needs r >= s >= t >= 2, got {(r, s, t)}")
    P = PcPresentation(
        2,
        [2 ** r, 2 ** (s + t)],
        [((1, 2 ** s),), ()],
        {(1, 0): ((1, 2 ** t + 1),)},
        name=f"metacyclic-{r}-{s}-{t}",
    )
    zp = 2 ** s
    facts = [
        ("order", 2 ** (r + s + t)),
        ("exponent", 2 ** (r + t)),
        ("gen_order:1", 2 ** (r + t)),
        ("gen_order:2", 2 ** (s + t)),
        ("center_gens:" + f"x1^{zp};x2^{zp}", True),
        ("abelianization", _desc(2 ** r, 2 ** t)),
    ]
    if t == s:
        facts.append(("derived_in_center", True))
    return CorpusEntry(
        id=P.name,
        presentation=P,
        provenance=f"two-generator family, parameters (r,s,t)=({r},{s},{t})",
        expected_facts=tuple(facts),
    )


def metacyclic_raw(r: int, s: int, t: int, u: int) -> CorpusEntry:
    """Exploratory four-parameter variant b^a = b^{2^u + 1}; carries no
    validated facts beyond consistency."""
    if min(r, s) < 1 or t < 0 or u < 1 or u > s + t:
        raise DomainError("metacyclic_raw parameters out of range")
    P = PcPresentation(
        2,
        [2 ** r, 2 ** (s + t)],
        [((1, 2 ** s),), ()],
        {(1, 0): ((1, 2 ** u + 1),)},
        name=f"metacyclic-raw-{r}-{s}-{t}-{u}",
    )
    return CorpusEntry(P.name, P, "exploratory four-parameter variant", ())


def liebeck128() -> CorpusEntry:
    """Order-128 class-2 powerful fixture: <a, b> with a^4 = 1, b^32 = 1,
    b^a = b^25, so [a, b] = b^8 and [a, b, a] = 1."""
    P = PcPresentation(
        2,
        [4, 32],
        [(), ()],
        {(1, 0): ((1, 25),)},
        name="liebeck128",
    )
    return CorpusEntry(
        id="liebeck128",
        presentation=P,
        provenance="Liebeck's order-128 fixture",
        expected_facts=(
            ("order", 128),
            ("class", 2),
            ("powerful", True),
            ("derived_gens:x2^8", True),
        ),
    )


def g64() -> CorpusEntry:
    """Order-64 class-2 powerful fixture: <a, b> with a^4 = b^4,
    b^16 = 1, b^4 = [b, a]."""
    P = PcPresentation(
        2,
        [4, 16],
        [((1, 4),), ()],
        {(1, 0): ((1, 5),)},
        name="g64",
    )
    return CorpusEntry(
        id="g64",
        presentation=P,
        provenance="order-64 two-generator fixture",
        expected_facts=(
            ("order", 64),
            ("class", 2),
            ("powerful", True),
            ("center_invariants", (4,)),
        ),
    )


# -- standard families -------------------------------------------------------


def dihedral(order: int) -> CorpusEntry:
    n = _log2_exact(order, "dihedral")
    if n < 3:
        raise DomainError("dihedral needs order >= 8")
    m = order // 2
    P = PcPresentation(
        2, [2, m], [(), ()], {(1, 0): ((1, m - 1),)}, name=f"dihedral-{order}"
    )
    return CorpusEntry(
        P.name,
        P,
        f"dihedral family, order {order}",
        (("order", order), ("class", n - 1), ("coclass", 1), ("d", 2)),
    )


def quaternion(order: int) -> CorpusEntry:
    n = _log2_exact(order, "quaternion")
    if n < 3:
        raise DomainError("quaternion needs order >= 8")
    m = order // 2
    P = PcPresentation(
        2,
        [2, m],
        [((1, m // 2),), ()],
        {(1, 0): ((1, m - 1),)},
        name=f"quaternion-{order}",
    )
    return CorpusEntry(
        P.name,
        P,
        f"generalized quaternion family, order {order}",
        (("order", order), ("class", n - 1), ("coclass", 1), ("d", 2)),
    )


def semidihedral(order: int) -> CorpusEntry:
    n = _log2_exact(order, "semidihedral")
    if n < 4:
        raise DomainError("semidihedral needs order >= 16")
    m = order // 2
    P = PcPresentation(
        2,
        [2, m],
        [(), ()],
        {(1, 0): ((1, m // 2 - 1),)},
        name=f"semidihedral-{order}",
    )
    return CorpusEntry(
        P.name,
        P,
        f"semidihedral family, order {order}",
        (("order", order), ("class", n - 1), ("coclass", 1), ("d", 2)),
    )


def extraspecial(p: int, variant: str) -> CorpusEntry:
    """Order p^3.  For odd p the variants are exponent 'p' and 'p2';
    for p = 2 they are 'plus' (dihedral) and 'minus' (quaternion)."""
    if p == 2:
        if variant == "plus":
            e = dihedral(8)
        elif variant == "minus":
            e = quaternion(8)
        else:
            raise DomainError("p = 2 variants are 'plus' and 'minus'")
        P = e.presentation
        return CorpusEntry(
            f"extraspecial-2-{variant}",
            P,
            f"extraspecial 2-group of order 8 ({variant} type)",
            e.expected_facts,
        )
    if variant == "p":
        P = PcPresentation(
            p,
            [p, p, p],
            [(), (), ()],
            {(1, 0): ((1, 1), (2, 1))},
            name=f"extraspecial-{p}-exp{p}",
        )
        exp = p
    elif variant == "p2":
        P = PcPresentation(
            p,
            [p, p * p],
            [(), ()],
            {(1, 0): ((1, p + 1),)},
            name=f"extraspecial-{p}-exp{p * p}",
        )
        exp = p * p
    else:
        raise DomainError("odd-p variants are 'p' and 'p2'")
    return CorpusEntry(
        P.name,
        P,
        f"extraspecial group of order {p ** 3}, exponent {exp}",
        (
            ("order", p ** 3),
            ("class", 2),
            ("exponent", exp),
            ("center_invariants", (p,)),
            ("d", 2),
        ),
    )


def modular(p: int, n: int) -> CorpusEntry:
    """M_{p^n}: <y, x> with x^{p^{n-1}} = y^p = 1, x^y = x^{1 + p^{n-2}}."""
    if p == 2 and n < 4:
        raise DomainError("modular 2-group needs n >= 4")
    if p > 2 and n < 3:
        raise DomainError("modular p-group needs n >= 3")
    m = p ** (n - 1)
    P = PcPresentation(
        p,
        [p, m],
        [(), ()],
        {(1, 0): ((1, p ** (n - 2) + 1),)},
        name=f"modular-{p}-{p ** n}",
    )
    return CorpusEntry(
        P.name,
        P,
        f"modular group of order {p ** n}",
        (("order", p ** n), ("class", 2), ("d", 2), ("exponent", m)),
    )


def abelian(p: int, type_vector) -> CorpusEntry:
    """Direct product of cyclic groups C_{p^{t_1}} x ... x C_{p^{t_k}}."""
    types = sorted((int(t) for t in type_vector), reverse=True)
    if not types or min(types) < 1:
        raise DomainError("type vector must be nonempty positive integers")
    P = PcPresentation(
        p,
        [p ** t for t in types],
        None,
        {},
        name="abelian-%d-%s" % (p, "_".join(str(t) for t in types)),
    )
    return CorpusEntry(
        P.name,
        P,
        f"abelian group of type {tuple(types)} over p={p}",
        (
            ("order", p ** sum(types)),
            ("class", 1),
            ("center_invariants", tuple(p ** t for t in types)),
            ("d", len(types)),
        ),
    )


def heisenberg_like(p: int) -> CorpusEntry:
    """Class-3 fixture of order 81 for p = 3 (the iterated wreath shape):
    generators t, a and the derived chain b = [a, t], c = [b, t] with all
    relative orders 3 and c central."""
    if p != 3:
        raise DomainError("heisenberg_like is provided for p = 3")
    P = PcPresentation(
        3,
        [3, 3, 3, 3],
        [(), (), (), ()],
        {
            (1, 0): ((1, 1), (2, 1)),
            (2, 0): ((2, 1), (3, 1)),
        },
        name="wreath-81",
    )
    return CorpusEntry(
        P.name,
        P,
        "order-81 class-3 fixture (iterated wreath shape)",
        (
            ("order", 81),
            ("class", 3),
            ("coclass", 1),
            ("d", 2),
            ("center_invariants", (3,)),
        ),
    )


def g243() -> CorpusEntry:
    """Odd two-generator fixture with self-centralizing Frattini center:
    <a, b> with a^9 = 1, b^27 = 1, b^a = b^4.  Order 243, class 3, cyclic
    center, powerful central quotient."""
    P = PcPresentation(
        3,
        [9, 27],
        [(), ()],
        {(1, 0): ((1, 4),)},
        name="g243",
    )
    return CorpusEntry(
        id="g243",
        presentation=P,
        provenance="order-243 two-generator fixture (odd analog of the order-128 one)",
        expected_facts=(
            ("order", 243),
            ("class", 3),
            ("center_invariants", (3,)),
            ("d", 2),
        ),
    )


def dihedral16_x_c2() -> CorpusEntry:
    """Class-3 fixture with noncyclic center: the direct product of the
    order-16 dihedral group with C2."""
    P = PcPresentation(
        2,
        [2, 8, 2],
        [(), (), ()],
        {(1, 0): ((1, 7),)},
        name="d16xc2",
    )
    return CorpusEntry(
        P.name,
        P,
        "order-32 class-3 fixture with noncyclic center (D16 x C2)",
        (
            ("order", 32),
            ("class", 3),
            ("center_invariants", (2, 2)),
            ("d", 3),
        ),
    )


def _log2_exact(order, who):
    from pgforge.core import p_valuation

    n = p_valuation(order, 2)
    if n is None:
        raise DomainError(f"{who} order must be a power of 2")
    return n


def _desc(*vals):
    return tuple(sorted(vals, reverse=True))


# -- the default corpus ------------------------------------------------------


def builtin_corpus(validate=True, caps=DEFAULT_CAPS):
    """Every built-in entry the harness runs over, validated on load."""
    entries = [
        g64(),
        liebeck128(),
        metacyclic(2, 2, 2),
        metacyclic(3, 2, 2),
        metacyclic(3, 3, 2),
        metacyclic(4, 3, 2),
        dihedral(8),
        dihedral(16),
        dihedral(32),
        quaternion(8),
        quaternion(16),
        quaternion(32),
        semidihedral(16),
        semidihedral(32),
        modular(2, 4),
        modular(2, 5),
        modular(3, 3),
        extraspecial(3, "p"),
        extraspecial(3, "p2"),
        extraspecial(5, "p"),
        heisenberg_like(3),
        dihedral16_x_c2(),
        g243(),
        abelian(2, [1]),
        abelian(2, [2]),
        abelian(2, [3]),
        abelian(2, [1, 1]),
        abelian(2, [2, 1]),
        abelian(2, [2, 2]),
        abelian(2, [3, 1]),
        abelian(2, [1, 1, 1]),
        abelian(2, [2, 1, 1]),
        abelian(2, [1, 1, 1, 1]),
        abelian(3, [1]),
        abelian(3, [2]),
        abelian(3, [1, 1]),
        abelian(3, [2, 1]),
        abelian(3, [1, 1, 1]),
        abelian(5, [1, 1]),
    ]
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate corpus ids")
    if validate:
        for e in entries:
            e.validate(caps)
    return entries


# -- manifest ingestion -------------------------------------------------------


def _parse_fact_value(name, raw, lineno):
    raw = raw.strip()
    try:
        if name in ("powerful", "p_central"):
            return {"true": True, "yes": True, "1": True,
                    "false": False, "no": False, "0": False}[raw.lower()]
        if name == "center_invariants":
            return () if raw in ("-", "") else tuple(int(x) for x in raw.split(","))
        return int(raw)
    except (KeyError, ValueError):
        kind = {"powerful": "a boolean", "p_central": "a boolean",
                "center_invariants": "a comma list of integers"}.get(name, "an integer")
        raise PresentationError(f"fact {name}: expected {kind}, got {raw!r}", lineno) from None


def read_source(path, line=None, name=None):
    """The text of a presentation or manifest file, which must be UTF-8.

    A path holding a NUL byte, or a file that is missing, a directory,
    otherwise unreadable or not UTF-8, raises PresentationError naming
    the file as `name` (by default the path) and the manifest line `line`
    that points at it, when there is one."""
    name = str(path) if name is None else name
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        why = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        why = f"byte {exc.object[exc.start]:#04x} at offset {exc.start} is not UTF-8"
    except ValueError as exc:  # a NUL byte in the path
        why = str(exc)
    raise PresentationError(f"cannot read {name!r}: {why}", line)


def load_manifest(path, caps=DEFAULT_CAPS, taken=()):
    """Manifest format, one block per group:

        file <relative-or-absolute path>
        expect <fact-name> <value>
        ...

    Fact names: order, class, coclass, d, center_invariants (comma list),
    exponent, powerful, p_central.  Every entry is consistency-checked and
    fact-validated; any failure rejects that entry with a diagnostic.  A
    `file` line with no path, or whose file `read_source` cannot read,
    raises PresentationError naming that line, and so does one whose group
    name repeats an id in `taken` (the corpus the manifest extends) or an
    earlier block's.
    """
    path = Path(path)
    text = read_source(path)
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if directive == "file":
            if not rest.strip():
                raise PresentationError("file needs a path", lineno)
            current = {"file": rest.strip(), "facts": [], "line": lineno}
            blocks.append(current)
        elif directive == "expect":
            if current is None:
                raise PresentationError("expect before any file", lineno)
            fields = rest.split(None, 1)
            if len(fields) != 2:
                raise PresentationError("expect needs <fact> <value>", lineno)
            name, raw_value = fields
            if name not in FACT_NAMES:
                raise PresentationError(f"unknown fact {name!r}", lineno)
            current["facts"].append((name, _parse_fact_value(name, raw_value, lineno)))
        else:
            raise PresentationError(f"unknown manifest directive {directive!r}", lineno)
    entries = []
    seen = dict.fromkeys(taken)
    for block in blocks:
        fpath = Path(block["file"])
        if not fpath.is_absolute():
            fpath = path.parent / fpath
        pres = parse_presentation(read_source(fpath, block["line"], block["file"]))
        if pres.name in seen:
            first = seen[pres.name]
            clash = "is already in the corpus" if first is None else f"repeats line {first}"
            raise PresentationError(f"group id {pres.name!r} {clash}", block["line"])
        seen[pres.name] = block["line"]
        entry = CorpusEntry(
            id=pres.name,
            presentation=pres,
            provenance=f"manifest {path.name}: {block['file']}",
            expected_facts=tuple(block["facts"]),
        )
        entry.validate(caps)
        entries.append(entry)
    return entries
