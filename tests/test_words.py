import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import Word

letters = st.sampled_from((0, 2))
pres = st.lists(letters, min_size=0, max_size=6).map(tuple)
pers = st.lists(letters, min_size=1, max_size=6).map(tuple)


def test_examples():
    assert Word((), (0, 2)).letter(1) == 0
    assert Word((), (0, 2)).letter(4) == 2
    assert Word((0, 2), (2,)).letter(3) == 2
    # period powers collapse
    assert Word((), (0, 2, 0, 2)) == Word((), (0, 2))
    # preperiod tails matching the rotated period get absorbed
    assert Word((0,), (2, 0)) == Word((), (0, 2))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        Word((), ())
    with pytest.raises(ValueError):
        Word((1,), (0,))
    with pytest.raises(ValueError):
        Word((0,), (2,)).letter(0)


@settings(max_examples=200, deadline=None)
@given(pres, pers)
def test_canonicalization_preserves_letters(pre, per):
    raw_letter = lambda i: pre[i - 1] if i <= len(pre) else per[(i - len(pre) - 1) % len(per)]
    w = Word(pre, per)
    for i in range(1, len(pre) + 3 * len(per) + 2):
        assert w.letter(i) == raw_letter(i)


@settings(max_examples=200, deadline=None)
@given(pres, pers, st.integers(1, 3), st.integers(1, 3))
def test_pumped_presentations_are_equal(pre, per, k, j):
    w = Word(pre, per)
    pumped = Word(pre + per * k, per * j)
    assert w == pumped
    assert hash(w) == hash(pumped)


@settings(max_examples=200, deadline=None)
@given(pres, pers, pres, pers)
def test_equality_agrees_with_letterwise_comparison(pre1, per1, pre2, per2):
    w1 = Word(pre1, per1)
    w2 = Word(pre2, per2)
    horizon = len(w1.pre) + len(w2.pre) + 2 * len(w1.per) * len(w2.per)
    same_letters = all(
        w1.letter(i) == w2.letter(i) for i in range(1, horizon + 1)
    )
    assert (w1 == w2) == same_letters


@settings(max_examples=200, deadline=None)
@given(pres, pers, st.integers(0, 30))
def test_prefix_agrees_with_letters(pre, per, n):
    w = Word(pre, per)
    assert w.prefix(n) == tuple(w.letter(i) for i in range(1, n + 1))
