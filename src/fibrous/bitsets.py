"""Point sets as integer bitsets over a ground set {0, ..., n-1}."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_points(mask: int) -> list[int]:
    return list(bits(mask))


def from_points(points, n: int) -> int:
    mask = 0
    for pt in points:
        if not 0 <= pt < n:
            raise ValueError(f"point {pt} out of range 0..{n - 1}")
        mask |= 1 << pt
    return mask


def preimage(f, mask: int) -> int:
    """The points ``y`` whose image ``f[y]`` lies in ``mask``."""
    return sum(1 << y for y, fy in enumerate(f) if mask >> fy & 1)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
