"""Permutation arithmetic on 0-based points.

A permutation of degree n is an image tuple p with p[i] = image of point i.
The composition convention is fixed once and used everywhere:

    compose(p, q)(x) = p(q(x))

i.e. q acts first.

Beyond the arithmetic: the order of a generated group by the Schreier-Sims
algorithm, and every permutation of a given cycle type.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import lcm, prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


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


def order_divides(p: Sequence[int], n: int) -> bool:
    """Whether p^n is the identity: whether every cycle's length divides n,
    each cycle measured from its least point."""
    for start in range(len(p)):
        x, length = p[start], 1
        while x > start:
            x, length = p[x], length + 1
        if x == start and n % length:
            return False
    return True


def group_order(degree: int, generators: Iterable[Sequence[int]]) -> int:
    """|<generators>| by the deterministic Schreier-Sims algorithm (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.4), in
    Knuth's form (Efficient representation of perm groups, 1991).

    Level i holds a base point b_i, the strong generators added at it, which
    fix b_0..b_{i-1} and generate G_i, and u, u^-1 with u(b_i) = x for each
    x in b_i's orbit. An element g of G_i that does not sift to the identity
    joins level i's generators; the orbit grows by t = s u for each generator
    s and each u, and each t that reaches a known x gives the Schreier
    generator u_x^-1 t of G_{i+1}, to be added in turn. Every such pair
    (s, u) is formed once, and once no element is left to add, G_{i+1} is
    the stabilizer of b_i in G_i at every level: |G| is the product of the
    orbit lengths."""
    identity = identity_perm(degree)
    levels: list[tuple] = []  # (b_i, generators, {x: (u, u^-1)})
    todo = [(0, tuple(g)) for g in generators]
    while todo:
        level, g = todo.pop()
        h = g
        for b, _, orbit in levels[level:]:
            known = orbit.get(h[b])
            if known is None:
                break
            h = compose(known[1], h)
        else:
            if h == identity:  # g lies in G_level already
                continue
        if level == len(levels):
            b = next(x for x in range(degree) if g[x] != x)
            levels.append((b, [], {b: (identity, identity)}))
        b, gens, orbit = levels[level]
        gens.append(g)
        pending = [compose(g, u) for u, _ in orbit.values()]
        while pending:
            t = pending.pop()
            known = orbit.get(t[b])
            if known is not None:
                todo.append((level + 1, compose(known[1], t)))
            else:
                orbit[t[b]] = t, inverse(t)
                pending += [compose(s, t) for s in gens]
    return prod(len(orbit) for _, _, orbit in levels)


def perms_of_cycle_type(degree: int, lengths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each permutation of 0..degree-1 whose cycle lengths, fixed points
    included, are `lengths`, once: the least point not yet placed starts the
    next cycle, of each length still to place, through every arrangement of
    that many more of the points after it."""
    image = list(range(degree))
    todo = Counter(lengths)

    def place(points: list) -> Iterator[tuple[int, ...]]:
        if todo[1] == len(points):  # only fixed points are left
            for x in points:
                image[x] = x
            yield tuple(image)
            return
        first, rest = points[0], points[1:]
        for length in [n for n, count in todo.items() if count]:
            todo[length] -= 1
            for tail in itertools.permutations(rest, length - 1):
                image[first] = first  # then first -> tail[-1] -> ... -> tail[0] -> first
                for x in tail:
                    image[x], image[first] = image[first], x
                yield from place([x for x in rest if x not in tail])
            todo[length] += 1

    return place(list(range(degree)))
