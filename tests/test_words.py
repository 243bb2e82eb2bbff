import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import Word

letters = st.sampled_from((0, 2))
pres = st.lists(letters, min_size=0, max_size=6).map(tuple)
pers = st.lists(letters, min_size=1, max_size=6).map(tuple)


def first_letters(pre, per, n):
    """The first ``n`` letters of the word ``pre per per ...``, read one at a
    time: the reference for ``Word.prefix`` and for equality of words."""
    return tuple(pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)] for i in range(n))


def test_examples():
    assert Word((), (0, 2)).prefix(4) == (0, 2, 0, 2)
    assert Word((0, 2), (2,)).prefix(3) == (0, 2, 2)
    # period powers collapse
    assert Word((), (0, 2, 0, 2)) == Word((), (0, 2))
    # preperiod tails matching the rotated period get absorbed
    assert Word((0,), (2, 0)) == Word((), (0, 2))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        Word((), ())
    with pytest.raises(ValueError):
        Word((1,), (0,))
    for letter in (1, "0", None, (0,), [0]):
        with pytest.raises(ValueError):
            Word((letter,), (0,))
        with pytest.raises(ValueError):
            Word((), (2, letter))


def test_letters_compare_by_value():
    # 0.0 == 0 and False == 0, so both pass the letter check as they always did
    assert Word((0.0,), (2,)) == Word((0,), (2,))
    assert Word((), (False, 2)) == Word((), (0, 2))


@settings(max_examples=200, deadline=None)
@given(pres, pers)
def test_canonicalization_preserves_letters(pre, per):
    w = Word(pre, per)
    n = len(pre) + 3 * len(per) + 1
    assert first_letters(w.pre, w.per, n) == first_letters(pre, per, n)


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
    same_letters = first_letters(w1.pre, w1.per, horizon) == first_letters(
        w2.pre, w2.per, horizon
    )
    assert (w1 == w2) == same_letters


@settings(max_examples=200, deadline=None)
@given(pres, pers, st.integers(0, 30))
def test_prefix_agrees_with_letters(pre, per, n):
    w = Word(pre, per)
    assert w.prefix(n) == first_letters(w.pre, w.per, n) == first_letters(pre, per, n)
