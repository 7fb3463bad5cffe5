"""Permutation arithmetic on 0-based points.

A permutation of degree n is an image tuple p with p[i] = image of point i.
The composition convention is fixed once and used everywhere:

    compose(p, q)(x) = p(q(x))

i.e. q acts first.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence


def validate_perm(images: Iterable[int]) -> tuple[int, ...]:
    """Return images as a tuple, raising if it is not a bijection."""
    p = tuple(images)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a bijection on 0..{len(p) - 1}: {list(p)!r}")
    return p


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Product p∘q: apply q first, then p."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    if len(q) < 2:  # itemgetter of one index returns a scalar, of none raises
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    """p^-1, holding the int objects p holds: inv[p[x]] = x for each x in p."""
    inv = [0] * len(p)
    for x in p:
        inv[p[x]] = x
    return tuple(inv)


def cycle_lengths(p: Sequence[int]) -> list[int]:
    """Lengths of the cycles of p, including fixed points."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return lengths


def perm_order(p: Sequence[int]) -> int:
    return lcm(*cycle_lengths(p)) if len(p) else 1

