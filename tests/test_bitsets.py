from random import Random

from fibrous.bitsets import bits, to_points
from fibrous.core import MAX_POINTS


def _positions(mask: int) -> tuple[int, ...]:
    """Reference loop: the set positions, read off the binary digits."""
    return tuple(i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1")


def test_bits_matches_reference_on_every_small_mask():
    for mask in range(1 << 14):
        assert bits(mask) == _positions(mask)


def test_bits_matches_reference_around_powers_of_two():
    for j in range(71):
        for mask in ((1 << j) - 1, 1 << j, (1 << j) + 1):
            assert bits(mask) == _positions(mask)


def test_bits_matches_reference_on_seeded_wide_masks():
    rng = Random(0)
    for _ in range(2000):
        mask = rng.getrandbits(rng.randint(1, 3000))
        assert bits(mask) == _positions(mask)
    widest = Random(1).getrandbits(MAX_POINTS) | 1 << (MAX_POINTS - 1)
    assert bits(widest) == _positions(widest)
    assert bits(widest)[-1] == MAX_POINTS - 1


def test_bits_returns_a_tuple_and_to_points_a_fresh_list():
    for mask in (0, 0b1011, 0b101 << 300):
        assert type(bits(mask)) is tuple
        points = to_points(mask)
        assert points == list(bits(mask))
        points.append(-1)
        assert to_points(mask) == list(bits(mask))
