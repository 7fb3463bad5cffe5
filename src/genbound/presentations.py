"""Finite presentations: named generators plus relator words.

A relator word is a tuple of (generator index, nonzero exponent) pairs.
Free products are disjoint unions: no shared generators, concatenated
relator lists.
"""

from __future__ import annotations

import re
from typing import Sequence

from .numtheory import factorize
from .records import immutable, record_eq, record_hash, record_repr, set_fields

Word = tuple[tuple[int, int], ...]

# Longest relator word `parse_word` expands, in syllables: "(a*b)^n" is
# stored as 2n syllables, so a short input could otherwise fill memory.
MAX_WORD_SYLLABLES = 10**6


class Presentation:
    """Generator names and relator words; `name` overrides `describe`.
    Construction rejects duplicate generator names, relators that name an
    undeclared generator and zero exponents."""

    __slots__ = _fields = ("generators", "relators", "name")
    __setattr__ = __delattr__ = immutable
    __repr__, __eq__, __hash__ = record_repr, record_eq, record_hash

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...], name: str = ""):
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        for word in relators:
            for idx, exp in word:
                if not (0 <= idx < len(generators)):
                    raise ValueError(f"relator references undeclared generator {idx}")
                if exp == 0:
                    raise ValueError("zero exponent in relator word")
        set_fields(self, generators=generators, relators=relators, name=name)

    def describe(self) -> str:
        if self.name:
            return self.name
        rels = ", ".join(render_word(w, self.generators) for w in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"


def cyclic_presentation(m: int, gen: str = "g") -> Presentation:
    """The cyclic group of order m as a one-relator presentation."""
    if m < 1:
        raise ValueError("order must be >= 1")
    return Presentation((gen,), (((0, m),),), name=f"C{m}")


def free_product(factors: Sequence[Presentation]) -> Presentation:
    """Disjoint union of presentations; generator names are qualified on clash."""
    if not factors:
        raise ValueError("need at least one factor")
    all_names = [g for f in factors for g in f.generators]
    clash = len(set(all_names)) != len(all_names)
    names: list[str] = []
    relators: list[Word] = []
    for i, f in enumerate(factors):
        offset = len(names)
        for g in f.generators:
            names.append(f"f{i + 1}_{g}" if clash else g)
        for word in f.relators:
            relators.append(tuple((idx + offset, exp) for idx, exp in word))
    name = " * ".join(f.describe() for f in factors)
    return Presentation(tuple(names), tuple(relators), name=name)


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\^|-?\d+|\(|\)|\*)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at position {pos} in word {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse a word like "a^2" or "(a*b)^5" into (index, exponent) pairs.

    Grammar: word := power ("*" power)* ; power := atom ("^" int)? ;
    atom := generator | "(" word ")". Exponents may be negative; the
    expansion repeats (or inverts) the inner word accordingly. A word that
    would expand past MAX_WORD_SYLLABLES raises ValueError before it is
    expanded.
    """
    tokens = _tokenize(text)
    index = {g: i for i, g in enumerate(generators)}
    pos = 0

    def check_length(n: int) -> None:
        if n > MAX_WORD_SYLLABLES:
            raise ValueError(
                f"word {text!r} expands to {n} syllables, more than the bound "
                f"{MAX_WORD_SYLLABLES}"
            )

    def parse_power() -> list[tuple[int, int]]:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of word {text!r}")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            inner = parse_sequence()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError(f"unbalanced parenthesis in word {text!r}")
            pos += 1
        elif tok in index:
            inner = [(index[tok], 1)]
            pos += 1
        else:
            raise ValueError(f"unknown generator {tok!r} in word {text!r}")
        if pos < len(tokens) and tokens[pos] == "^":
            pos += 1
            if pos >= len(tokens) or not re.fullmatch(r"-?\d+", tokens[pos]):
                raise ValueError(f"missing exponent in word {text!r}")
            exp = int(tokens[pos])
            pos += 1
            if exp == 0:
                raise ValueError("zero exponent in relator word")
            if len(inner) > 1:
                check_length(len(inner) * abs(exp))
            inner = _repeat_word(inner, exp)
        return inner

    def parse_sequence() -> list[tuple[int, int]]:
        nonlocal pos
        out = parse_power()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            part = parse_power()
            check_length(len(out) + len(part))
            out.extend(part)
        return out

    pairs = parse_sequence()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in word {text!r}")
    return _merge_pairs(pairs)


def _repeat_word(pairs: list[tuple[int, int]], exp: int) -> list[tuple[int, int]]:
    if len(pairs) == 1:  # a power of one syllable stays one syllable
        return [(pairs[0][0], pairs[0][1] * exp)]
    if exp > 0:
        return pairs * exp
    return list(inverse_word(pairs)) * (-exp)


def inverse_word(word: Sequence[tuple[int, int]]) -> Word:
    return tuple((idx, -exp) for idx, exp in reversed(word))


def _merge_pairs(pairs: Sequence[tuple[int, int]]) -> Word:
    merged: list[tuple[int, int]] = []
    for idx, exp in pairs:
        if merged and merged[-1][0] == idx:
            total = merged[-1][1] + exp
            if total == 0:
                merged.pop()
            else:
                merged[-1] = (idx, total)
        else:
            merged.append((idx, exp))
    return tuple(merged)


def _reduce_cyclically(word: Sequence[tuple[int, int]]) -> Word:
    """The free and cyclic reduction of a word, in O(length): the middle
    left once matching end syllables are merged or cancelled."""
    w = _merge_pairs(word)
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0]:
        total = w[i][1] + w[j][1]
        if total:  # merged: the next syllable in from j differs from w[i]
            return ((w[i][0], total),) + w[i + 1 : j]
        i, j = i + 1, j - 1
    return w[i : j + 1]


def cyclic_root(word: Sequence[tuple[int, int]]) -> tuple[Word, int]:
    """The root s and exponent n with s^n the free and cyclic reduction of
    the word, s not itself a proper power; ((), 1) when it reduces away.

    A relator then holds iff s^n does, so it can be evaluated as a power
    of s. Found in O(length * number of prime factors of the length): the
    periods of s^n that divide its length are the multiples of |s|.
    """
    w = _reduce_cyclically(word)
    if not w:
        return (), 1
    period = len(w)
    for q, _ in factorize(period):
        while period % q == 0 and w[period // q :] == w[: len(w) - period // q]:
            period //= q
    return w[:period], len(w) // period


def canonical_relator(word: Sequence[tuple[int, int]]) -> Word:
    """One representative of a relator's class under free and cyclic
    reduction, rotation and inversion; () when the word reduces away.

    The representative has the fewest negative syllables (each costs an
    inversion when evaluated), starts with a positive exponent, and is the
    lexicographically least such rotation.
    """
    w = _reduce_cyclically(word)
    best = None
    for form in (w, inverse_word(w)):
        negatives = sum(exp < 0 for _, exp in form)
        for r, (_, exp) in enumerate(form):
            if exp > 0:
                key = (negatives, form[r:] + form[:r])
                if best is None or key < best:
                    best = key
    return best[1] if best else ()


def render_word(word: Word, generators: Sequence[str]) -> str:
    parts = []
    for idx, exp in word:
        name = generators[idx]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def presentation_from_words(
    generators: Sequence[str], words: Sequence[str], name: str = ""
) -> Presentation:
    gens = tuple(generators)
    relators = tuple(parse_word(w, gens) for w in words)
    return Presentation(gens, relators, name=name)
