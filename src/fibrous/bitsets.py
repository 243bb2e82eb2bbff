"""Point sets as integer bitsets over a ground set {0, ..., n-1}."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


# _BYTE_BITS[b]: the set bit positions of the byte ``b``, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of the non-negative ``mask``, ascending.

    One table lookup for a mask below 256, one per byte above."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        for i in _BYTE_BITS[byte]:
            out.append(base + i)
        base += 8
    return tuple(out)


def to_points(mask: int) -> list[int]:
    return list(bits(mask))


def first_outside(values, n: int) -> int | None:
    """The index of the first of ``values`` outside ``range(n)``, or
    ``None``; a bitset over ``0..nB-1`` is a value in ``range(1 << nB)``.
    One ``min`` and one ``max`` pass in C; the values are walked only to
    name the failing one."""
    if values and not (0 <= min(values) and max(values) < n):
        for i, v in enumerate(values):
            if not 0 <= v < n:
                return i
    return None


def from_points(points, n: int) -> int:
    mask = 0
    for pt in points:
        if not 0 <= pt < n:
            raise ValueError(f"point {pt} out of range 0..{n - 1}")
        mask |= 1 << pt
    return mask


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
