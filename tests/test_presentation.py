import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pgforge.core import (
    MAX_GENERATORS,
    Element,
    PcPresentation,
    parse_presentation,
    serialize_presentation,
)
from pgforge.errors import MixedPresentationError, PresentationError
from pgforge import corpus


# -- parsing -------------------------------------------------------------


def test_parse_d8(d8_text, d8):
    P = parse_presentation(d8_text)
    assert P.n_gens == 3
    assert P.prime == 2
    assert P.rel_orders == (2, 2, 2)
    assert P == d8
    assert P.order == 8


def test_parse_lower_index_conjugate_rejected():
    text = """\
group bad
prime 2
gens 3
order 1 2
order 2 2
order 3 2
conj 3 1 = x2
"""
    with pytest.raises(PresentationError, match="lower-index"):
        parse_presentation(text)


def test_parse_trivial_group():
    P = parse_presentation("group t\nprime 2\ngens 0\n")
    assert P.order == 1
    assert P.consistency_check() == []
    assert P.identity().is_identity


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PresentationError, match="line 3"):
        parse_presentation("group x\nprime 2\ngens -1\n")
    with pytest.raises(PresentationError, match="line 4"):
        parse_presentation("group x\nprime 2\ngens 1\norder 1 5\n")


def test_generator_count_above_the_cap_is_refused_before_allocating():
    """The parser refuses at the `gens` line, before any `order` line is
    read, so a count of 10**12 costs nothing; the constructor refuses
    before its n*n conjugation slots."""
    text = "group x\nprime 2\ngens 1000000000000\norder 1 2\n"
    with pytest.raises(PresentationError,
                       match="^line 3: generator count 1000000000000 is above the cap 256$"):
        parse_presentation(text)
    with pytest.raises(PresentationError, match="^generator count 257 is above the cap 256$"):
        PcPresentation(2, [2] * (MAX_GENERATORS + 1))
    assert PcPresentation(2, [2] * MAX_GENERATORS).n_gens == MAX_GENERATORS


@pytest.mark.parametrize("relations, message", [
    (["pow 1 = x2", "pow 12 = x3"],
     "pow 12: relation references lower-index generator x3"),
    (["conj 12 1 = x12", "conj 12 10 = x2"],
     "conj 12 10: relation references lower-index generator x2"),
])
def test_relation_errors_name_their_own_line_past_nine_generators(relations, message):
    """`pow 1` and `conj 12 1` are prefixes of `pow 12` and `conj 12 10`;
    the error names the line of the relation it is about, line 16."""
    orders = "".join(f"order {i} 2\n" for i in range(1, 13))
    text = "prime 2\ngens 12\n" + orders + "\n".join(relations) + "\n"
    with pytest.raises(PresentationError, match=f"^line 16: {message}$"):
        parse_presentation(text)


@pytest.mark.parametrize("line", [
    "order a 2", "order 1 two", "pow a = x1", "conj b 1 = x2", "conj 2 x = x2",
])
def test_parse_bad_integer_fields_name_the_line(line):
    text = f"group x\nprime 2\ngens 2\n{line}\n"
    with pytest.raises(PresentationError, match="line 4: bad "):
        parse_presentation(text)


@pytest.mark.parametrize("prime", ["4", "-3", "1", "0"])
def test_parse_bad_prime_names_the_prime_line(prime):
    text = f"group x\n# a comment\nprime {prime}\ngens 1\norder 1 2\n"
    with pytest.raises(PresentationError, match=f"^line 3: {prime} is not prime$"):
        parse_presentation(text)


def test_parse_rejects_non_p_power_order():
    with pytest.raises(PresentationError, match="power of 2"):
        parse_presentation("group x\nprime 2\ngens 1\norder 1 6\n")


@pytest.mark.parametrize("order", ["0", "-2", "-3", "1"])
def test_parse_rejects_zero_and_negative_orders(order):
    """A relative order of 0 once sent p_valuation into an endless loop."""
    text = f"group x\nprime 2\ngens 1\norder 1 {order}\n"
    with pytest.raises(PresentationError, match="^line 4: .*not a positive power of 2"):
        parse_presentation(text)
    with pytest.raises(PresentationError, match="not a positive power of 2"):
        PcPresentation(2, [int(order)])


def test_parse_rejects_unknown_directive():
    with pytest.raises(PresentationError, match="unknown directive"):
        parse_presentation("group x\nprime 2\ngens 1\norder 1 2\nfoo bar\n")


def test_parse_rejects_duplicates():
    text = "group x\nprime 2\ngens 1\norder 1 2\norder 1 2\n"
    with pytest.raises(PresentationError, match="duplicate"):
        parse_presentation(text)


def test_round_trip_is_identity_on_canonical_text(d8):
    text = serialize_presentation(d8)
    again = parse_presentation(text)
    assert again == d8
    assert serialize_presentation(again) == text


@pytest.mark.parametrize(
    "entry_fn",
    [
        lambda: corpus.dihedral(16),
        lambda: corpus.quaternion(8),
        lambda: corpus.metacyclic(2, 2, 2),
        lambda: corpus.liebeck128(),
        lambda: corpus.extraspecial(3, "p"),
        lambda: corpus.heisenberg_like(3),
    ],
)
def test_round_trip_on_corpus(entry_fn):
    P = entry_fn().presentation
    text = serialize_presentation(P)
    assert parse_presentation(text) == P
    assert serialize_presentation(parse_presentation(text)) == text


# -- collection ----------------------------------------------------------


def test_collect_spec_values(d8):
    g1, g2, g3 = d8.gens()
    assert (g2 * g1).vec == (1, 1, 1)
    assert d8.collect([]).is_identity
    assert (g1 * g1).is_identity
    assert g2.commutator(g1) == g3
    assert (g2 ** 2) == g3
    assert g2.order() == 4


def cayley_table(P):
    els = list(P.elements())
    return els, {(x.vec, y.vec): (x * y).vec for x in els for y in els}


def test_d8_cayley_oracle(d8):
    """Full brute-force group axioms on the multiplication table."""
    els, table = cayley_table(d8)
    assert len(els) == 8
    ident = d8.identity()
    for x in els:
        assert table[(x.vec, ident.vec)] == x.vec
        assert table[(ident.vec, x.vec)] == x.vec
        assert any(table[(x.vec, y.vec)] == ident.vec for y in els)
    for x, y, z in itertools.product(els, repeat=3):
        assert table[(table[(x.vec, y.vec)], z.vec)] == table[(x.vec, table[(y.vec, z.vec)])]
    # dihedral signature: element orders
    assert sorted(e.order() for e in els) == [1, 2, 2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("seed", [1, 2])
def test_group_axioms_random(small_corpus, seed):
    rng = random.Random(seed)
    for entry in small_corpus:
        P = entry.presentation
        els = list(P.elements())
        for _ in range(200):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert (x * x.inverse()).is_identity
            assert (x.inverse() * x).is_identity
            assert x.conjugate(y) == y.inverse() * x * y
            assert x.commutator(y) == x.inverse() * y.inverse() * x * y


def test_collect_homomorphic(small_corpus):
    rng = random.Random(3)
    for entry in small_corpus:
        P = entry.presentation
        n = P.n_gens
        for _ in range(50):
            w1 = [(rng.randrange(n), rng.randrange(0, 5)) for _ in range(3)]
            w2 = [(rng.randrange(n), rng.randrange(0, 5)) for _ in range(3)]
            assert P.collect(w1 + w2) == P.collect(w1) * P.collect(w2)


def test_collect_negative_exponents(d8):
    g1, g2, g3 = d8.gens()
    assert d8.collect([(1, -1)]) == g2.inverse()
    assert d8.collect([(1, -1), (1, 1)]).is_identity


@pytest.mark.parametrize("g", [-1, 3, 98])
def test_collect_refuses_a_generator_outside_the_presentation(d8, g):
    """x0 is index -1, which must not wrap round to the last generator."""
    with pytest.raises(PresentationError, match=f"^no generator x{g + 1}$"):
        d8.collect([(1, 1), (g, 0)])


def test_power_and_inverse(small_corpus):
    rng = random.Random(4)
    for entry in small_corpus:
        P = entry.presentation
        els = list(P.elements())
        for _ in range(60):
            x = rng.choice(els)
            k = rng.randint(-9, 9)
            expected = P.identity()
            base = x if k >= 0 else x.inverse()
            for _ in range(abs(k)):
                expected = expected * base
            assert x ** k == expected


def test_element_order_matches_brute_force(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        for x in P.elements():
            k, acc = 1, x
            while not acc.is_identity:
                acc = acc * x
                k += 1
            assert x.order() == k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_property(data):
    entries = [corpus.dihedral(8), corpus.quaternion(8), corpus.extraspecial(3, "p")]
    entry = data.draw(st.sampled_from(entries))
    P = entry.presentation
    vec = lambda: tuple(
        data.draw(st.integers(0, m - 1)) for m in P.rel_orders
    )
    x, y, z = Element(P, vec()), Element(P, vec()), Element(P, vec())
    assert (x * y) * z == x * (y * z)


def test_mixed_presentation_rejected(d8, q8):
    with pytest.raises(MixedPresentationError):
        d8.gen(0) * q8.gen(0)


def test_equal_structure_presentations_interoperate(d8_text):
    P1 = parse_presentation(d8_text)
    P2 = parse_presentation(d8_text)
    assert (P1.gen(0) * P2.gen(1)).vec == (1, 1, 0)


# -- consistency -----------------------------------------------------------


def test_consistency_d8(d8):
    assert d8.consistency_check() == []
    assert d8.order == 8


def test_consistency_violation_reports_test_word(d8_text):
    # breaking the conjugation relation makes the square of the conjugate
    # disagree with the conjugate of the square
    bad = d8_text.replace("conj 2 1 = x2*x3", "conj 2 1 = x3")
    P = parse_presentation(bad)
    violations = P.consistency_check()
    assert violations
    assert any("x" in v and "!=" in v for v in violations)


def test_relaxed_power_relation_still_presents_a_group(d8_text):
    """Dropping g2^2 = g3 to g2^2 = 1 re-presents the same dihedral group
    on a different generating set; collection stays consistent and the
    Cayley oracle confirms a group of order 8."""
    relaxed = d8_text.replace("pow 2 = x3\n", "")
    P = parse_presentation(relaxed)
    assert P.consistency_check() == []
    els, table = cayley_table(P)
    assert len(els) == 8
    for x, y, z in itertools.product(els, repeat=3):
        assert table[(table[(x.vec, y.vec)], z.vec)] == table[(x.vec, table[(y.vec, z.vec)])]
    assert sorted(e.order() for e in els) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_consistency_of_all_corpus_presentations():
    for entry in corpus.builtin_corpus(validate=False):
        assert entry.presentation.consistency_check() == [], entry.id


def test_element_enumeration_counts(small_corpus):
    for entry in small_corpus:
        P = entry.presentation
        seen = {x.vec for x in P.elements()}
        assert len(seen) == P.order


def test_structural_validation_rejects_bad_words():
    # pow word referencing the generator itself
    with pytest.raises(PresentationError):
        PcPresentation(2, [2, 2], [((0, 1),), ()], {})
    # conj word referencing an index below the target
    with pytest.raises(PresentationError):
        PcPresentation(2, [2, 2, 2], None, {(2, 0): ((1, 1),)})
    with pytest.raises(PresentationError):
        PcPresentation(4, [4], None, {})  # prime must be prime
