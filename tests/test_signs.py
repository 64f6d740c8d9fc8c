import pytest
from hypothesis import given, strategies as st

from omkit.signs import GroundSetMismatchError, compose_masks, restrict_masks, separator_masks
from sign_vector import SignVector

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
    assert sv("++0").separator_mask(sv("-+0")) == 0b001
    a = sv("+-0")
    assert a.separator_mask(a) == 0
    assert a.separator_mask(a.opposite()) == 0b011


def test_zero_set_support_restrict():
    a = sv("+0-")
    assert a.zero_mask == 0b010
    assert a.support_mask == 0b101
    b = a.restrict(0b101)
    assert str(b) == "+-" and b.labels == ("e1", "e3")
    with pytest.raises(ValueError):
        a.restrict(0b1000)


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
    # the pair kernel the library runs on agrees with the reference
    ab = a.compose(b)
    assert compose_masks(a.plus, a.minus, b.plus, b.minus) == (ab.plus, ab.minus)


@given(vector_triples())
def test_zero_set_of_composition(vecs):
    a, b, _ = vecs
    assert a.compose(b).zero_mask == a.zero_mask & b.zero_mask


@given(vector_triples())
def test_separator_symmetric_and_opposite_involution(vecs):
    a, b, _ = vecs
    assert a.separator_mask(b) == b.separator_mask(a)
    assert separator_masks(a.plus, a.minus, b.plus, b.minus) == a.separator_mask(b)
    assert a.opposite().opposite() == a


@given(vector_triples())
def test_leq_two_formulations(vecs):
    # componentwise order agrees with: a o b = b and z(b) inside z(a)
    a, b, _ = vecs
    direct = a.leq(b)
    algebraic = a.compose(b) == b and not b.zero_mask & ~a.zero_mask
    assert direct == algebraic


# The pair kernels against entrywise definitions on plain sign lists, so
# that no bit formula is checked against a copy of itself.


def pair_of(signs):
    """The (plus, minus) pair of a list of signs in {1, -1, 0}."""
    plus = sum(1 << i for i, s in enumerate(signs) if s > 0)
    minus = sum(1 << i for i, s in enumerate(signs) if s < 0)
    return plus, minus


@st.composite
def sign_lists(draw, count):
    n = draw(st.integers(min_value=0, max_value=8))
    return [draw(st.lists(st.sampled_from([1, -1, 0]), min_size=n, max_size=n)) for _ in range(count)]


@given(sign_lists(2))
def test_compose_masks_entrywise(lists):
    x, y = lists
    assert compose_masks(*pair_of(x), *pair_of(y)) == pair_of([a or b for a, b in zip(x, y)])


@given(sign_lists(2))
def test_separator_masks_entrywise(lists):
    x, y = lists
    want = sum(1 << i for i, (a, b) in enumerate(zip(x, y)) if a * b < 0)
    assert separator_masks(*pair_of(x), *pair_of(y)) == want


@given(sign_lists(3), st.data())
def test_restrict_masks_entrywise(lists, data):
    n = len(lists[0])
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mask = sum(1 << i for i, k in enumerate(keep) if k)
    want = [pair_of([a for a, k in zip(x, keep) if k]) for x in lists]
    assert restrict_masks([pair_of(x) for x in lists], mask) == want
