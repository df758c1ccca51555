import pytest

from pgforge.core import parse_presentation, serialize_presentation
from pgforge.errors import DomainError, PresentationError
from pgforge import corpus


def test_builtin_corpus_validates():
    entries = corpus.builtin_corpus()
    assert len({e.id for e in entries}) == len(entries)
    for e in entries:
        assert e.presentation.is_consistent


def test_metacyclic_parameter_guard():
    with pytest.raises(DomainError):
        corpus.metacyclic(2, 2, 1)
    with pytest.raises(DomainError):
        corpus.metacyclic(2, 3, 2)


@pytest.mark.parametrize(
    "r,s,t,order,oa,ob",
    [
        (2, 2, 2, 64, 16, 16),
        (3, 2, 2, 128, 32, 16),
        (3, 3, 2, 256, 32, 32),
    ],
)
def test_metacyclic_reported_facts(r, s, t, order, oa, ob):
    entry = corpus.metacyclic(r, s, t)
    entry.validate()
    G = entry.presentation
    a, b = G.gens()
    assert G.order == order
    assert a.order() == oa
    assert b.order() == ob


def test_builtin_metacyclic_triples_have_powerful_central_quotient():
    from pgforge.structure import center, central_quotient, d_abelian, is_powerful

    for (r, s, t) in [(2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 3, 2)]:
        G = corpus.metacyclic(r, s, t).presentation
        assert is_powerful(central_quotient(G)), (r, s, t)
        # cyclicity of the center per invariant factors agrees with an
        # element-level witness
        Z = center(G)
        by_invariants = d_abelian(Z) == 1
        by_element = any(x.order() == Z.order for x in Z.elements())
        assert by_invariants == by_element


def test_metacyclic_raw_variant_unvalidated():
    entry = corpus.metacyclic_raw(3, 2, 1, 2)
    assert entry.expected_facts == ()
    assert entry.presentation.consistency_check() == []


def test_liebeck_and_g64_facts():
    L = corpus.liebeck128()
    L.validate()
    a, b = L.presentation.gens()
    v = a.commutator(b)
    assert v == b ** 8
    assert v.commutator(a).is_identity
    G = corpus.g64()
    G.validate()
    a, b = G.presentation.gens()
    assert a ** 4 == b ** 4
    assert (b ** 16).is_identity
    assert b.commutator(a) == b ** 4


def test_family_guards():
    with pytest.raises(DomainError):
        corpus.dihedral(4)
    with pytest.raises(DomainError):
        corpus.dihedral(12)
    with pytest.raises(DomainError):
        corpus.semidihedral(8)
    with pytest.raises(DomainError):
        corpus.modular(2, 3)
    with pytest.raises(DomainError):
        corpus.extraspecial(3, "bogus")
    with pytest.raises(DomainError):
        corpus.abelian(2, [])
    with pytest.raises(DomainError):
        corpus.heisenberg_like(2)


def test_standard_families_dispatch():
    e = corpus.dihedral(8)
    assert e.id == "dihedral-8"
    e = corpus.abelian(3, [2, 1])
    assert e.presentation.order == 27


def test_fact_mismatch_rejected():
    entry = corpus.CorpusEntry(
        id="wrong",
        presentation=corpus.g64().presentation,
        provenance="deliberate mismatch",
        expected_facts=(("order", 63),),
    )
    with pytest.raises(DomainError, match="expected 63, computed 64"):
        entry.validate()


def test_unknown_fact_name_rejected():
    entry = corpus.CorpusEntry(
        id="odd",
        presentation=corpus.dihedral(8).presentation,
        provenance="",
        expected_facts=(("no_such_fact", 1),),
    )
    with pytest.raises(DomainError, match="unknown fact"):
        entry.validate()


# -- manifests -----------------------------------------------------------------


def write_group(tmp_path, entry, fname):
    path = tmp_path / fname
    path.write_text(serialize_presentation(entry.presentation))
    return path


def test_manifest_round_trip(tmp_path):
    for entry, fname in [
        (corpus.g64(), "g64.pc"),
        (corpus.liebeck128(), "l128.pc"),
        (corpus.metacyclic(2, 2, 2), "m222.pc"),
    ]:
        write_group(tmp_path, entry, fname)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        """\
# three fixtures
file g64.pc
expect order 64
expect class 2
expect powerful true
file l128.pc
expect order 128
expect center_invariants 8
file m222.pc
expect exponent 16
expect d 2
"""
    )
    entries = corpus.load_manifest(manifest)
    assert [e.id for e in entries] == ["g64", "liebeck128", "metacyclic-2-2-2"]


def test_manifest_rejects_wrong_fact(tmp_path):
    write_group(tmp_path, corpus.g64(), "g64.pc")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("file g64.pc\nexpect order 63\n")
    with pytest.raises(DomainError, match="expected 63, computed 64"):
        corpus.load_manifest(manifest)


def test_manifest_rejects_unknown_directive(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("frobnicate g64.pc\n")
    with pytest.raises(PresentationError, match="unknown manifest directive"):
        corpus.load_manifest(manifest)


def test_manifest_rejects_inconsistent_presentation(tmp_path):
    bad = tmp_path / "bad.pc"
    bad.write_text(
        "group bad\nprime 2\ngens 3\norder 1 2\norder 2 2\norder 3 2\n"
        "pow 2 = x3\nconj 2 1 = x3\n"
    )
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("file bad.pc\n")
    with pytest.raises(DomainError, match="inconsistent"):
        corpus.load_manifest(manifest)


def test_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# nothing here\n")
    assert corpus.load_manifest(manifest) == []


def test_g243_fixture_properties():
    from pgforge.structure import central_quotient, ds_condition, is_powerful

    entry = corpus.g243()
    entry.validate()
    G = entry.presentation
    assert ds_condition(G)
    assert is_powerful(central_quotient(G))


def test_d16xc2_fixture_properties():
    from pgforge.structure import (
        central_quotient,
        d_abelian,
        center,
        nilpotency_class,
        rank_d,
    )

    entry = corpus.dihedral16_x_c2()
    entry.validate()
    G = entry.presentation
    assert nilpotency_class(G) == 3
    assert d_abelian(center(G)) == 2
    assert rank_d(central_quotient(G)) == 2
