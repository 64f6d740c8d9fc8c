import pytest
from hypothesis import given, strategies as st

from omkit.signs import GroundSetMismatchError, SignVector

E3 = ("e1", "e2", "e3")


def sv(text, labels=E3):
    return SignVector.from_string(text, labels)


def test_compose_basic():
    assert sv("+0-").compose(sv("0++")) == sv("++-")


def test_compose_identity_and_idempotence():
    zero = SignVector.zero(E3)
    a = sv("+0-")
    assert a.compose(zero) == a
    assert zero.compose(a) == a
    assert a.compose(a) == a


def test_separator():
    assert sv("++0").separator(sv("-+0")) == {"e1"}
    a = sv("+-0")
    assert a.separator(a) == frozenset()
    assert a.separator(a.opposite()) == {"e1", "e2"}


def test_zero_set_support_restrict():
    a = sv("+0-")
    assert a.zero_set() == {"e2"}
    assert a.support() == {"e1", "e3"}
    assert str(a.restrict(["e1", "e3"])) == "+-"
    with pytest.raises(ValueError):
        a.restrict(["e9"])


def test_leq():
    assert sv("00+").leq(sv("+-+"))
    assert not sv("+00").leq(sv("-+0"))
    assert sv("000") <= sv("+-0")


def test_ground_mismatch():
    with pytest.raises(GroundSetMismatchError):
        sv("+0-").compose(SignVector.from_string("+0", ("a", "b")))


def test_text_round_trip():
    for text in ("000", "+-0", "-+-"):
        assert str(sv(text)) == text


signs_st = st.lists(st.sampled_from([1, -1, 0]), min_size=1, max_size=8)


@st.composite
def vector_triples(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels = tuple(f"x{i}" for i in range(n))
    vecs = [
        SignVector.from_signs(
            draw(st.lists(st.sampled_from([1, -1, 0]), min_size=n, max_size=n)),
            labels,
        )
        for _ in range(3)
    ]
    return vecs


@given(vector_triples())
def test_compose_associative(vecs):
    a, b, c = vecs
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(vector_triples())
def test_zero_set_of_composition(vecs):
    a, b, _ = vecs
    assert a.compose(b).zero_set() == a.zero_set() & b.zero_set()


@given(vector_triples())
def test_separator_symmetric_and_opposite_involution(vecs):
    a, b, _ = vecs
    assert a.separator(b) == b.separator(a)
    assert a.opposite().opposite() == a


@given(vector_triples())
def test_leq_two_formulations(vecs):
    # componentwise order agrees with: a o b = b and z(b) inside z(a)
    a, b, _ = vecs
    direct = a.leq(b)
    algebraic = a.compose(b) == b and b.zero_set() <= a.zero_set()
    assert direct == algebraic
