import pytest

from arrangement_builders import b3_arrangement, braid_arrangement  # the tests import them from here
from omkit.corpus import CORPUS_NAMES, corpus
from sign_vector import SignVector


def pytest_configure(config):
    # every run draws the same examples, so a failing draw is reproduced by
    # the next run and the suite's work is the same from run to run; loaded
    # here, not on import, so importing this module does not load it
    from hypothesis import settings

    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def sign_vectors(system) -> list[SignVector]:
    """The covectors of a system as reference `SignVector`s, in its
    numbering (so sorted by sign text)."""
    return [SignVector(system.ground, p, m) for p, m in system.vectors()]


@pytest.fixture(scope="session")
def rank1():
    return corpus("rank1")


@pytest.fixture(scope="session")
def boolean3():
    return corpus("boolean3")


@pytest.fixture(scope="session")
def uniform23():
    return corpus("uniform-2-3")


@pytest.fixture(scope="session")
def braid3():
    return corpus("braid3")


@pytest.fixture(scope="session")
def five_planes():
    return corpus("sec3-arrangement")


@pytest.fixture(scope="session")
def non_pappus():
    return corpus("non-pappus")


@pytest.fixture(scope="session")
def all_corpus():
    return {name: corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def np14_extension(non_pappus):
    """The supersolvable extension of non-pappus, searched once per
    session: its steps, its modular chain and its final system."""
    from omkit.extensions import supersolvable_extension

    return supersolvable_extension(non_pappus)


@pytest.fixture(scope="session")
def np14(np14_extension):
    """The 14-element supersolvable extension of non-pappus."""
    return np14_extension.final


@pytest.fixture(scope="session")
def a4():
    """The braid arrangement A_4: 10 forms on R^5, outside the corpus."""
    from omkit.matroids import from_arrangement

    return from_arrangement(braid_arrangement(5))
