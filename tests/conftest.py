import pytest

from pgforge.core import PcPresentation
from pgforge import corpus


@pytest.fixture(scope="session")
def d8():
    """Refined presentation: g1 reflection, g2 rotation with g2^2 = g3."""
    return PcPresentation(
        2, [2, 2, 2], [(), ((2, 1),), ()], {(1, 0): ((1, 1), (2, 1))}, name="d8"
    )


@pytest.fixture(scope="session")
def d8_family():
    return corpus.dihedral(8).presentation


@pytest.fixture(scope="session")
def q8():
    return corpus.quaternion(8).presentation


@pytest.fixture(scope="session")
def es27():
    return corpus.extraspecial(3, "p").presentation


@pytest.fixture(scope="session")
def m27():
    return corpus.extraspecial(3, "p2").presentation


@pytest.fixture(scope="session")
def c4xc2():
    return corpus.abelian(2, [2, 1]).presentation


@pytest.fixture(scope="session")
def g64_pres():
    return corpus.g64().presentation


@pytest.fixture(scope="session")
def l128_pres():
    return corpus.liebeck128().presentation


@pytest.fixture(scope="session")
def small_corpus():
    """A spread of small groups for cross-cutting property tests."""
    return [
        corpus.dihedral(8),
        corpus.dihedral(16),
        corpus.quaternion(8),
        corpus.quaternion(16),
        corpus.semidihedral(16),
        corpus.modular(2, 4),
        corpus.extraspecial(3, "p"),
        corpus.extraspecial(3, "p2"),
        corpus.abelian(2, [2, 1]),
        corpus.abelian(2, [1, 1, 1]),
        corpus.abelian(3, [2, 1]),
    ]


@pytest.fixture(scope="session")
def family_members():
    """Members of the corpus families that the built-in corpus leaves out,
    for oracle comparisons on groups outside it."""
    return [
        corpus.dihedral(64),
        corpus.quaternion(64),
        corpus.semidihedral(64),
        corpus.modular(3, 4),
        corpus.extraspecial(5, "p2"),
        corpus.abelian(3, [2, 2]),
    ]


D8_TEXT = """\
# dihedral of order 8, refined to three generators
group d8
prime 2
gens 3
order 1 2
order 2 2
order 3 2
pow 2 = x3
conj 2 1 = x2*x3
"""


@pytest.fixture(scope="session")
def d8_text():
    return D8_TEXT
