import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.presentations import (
    MAX_WORD_SYLLABLES,
    Presentation,
    canonical_relator,
    cyclic_presentation,
    cyclic_root,
    free_product,
    parse_word,
    presentation_from_words,
    render_word,
)

from helpers import free_presentation


def test_parse_simple_power():
    assert parse_word("a^2", ("a", "b")) == ((0, 2),)


def test_parse_product_power():
    assert parse_word("(a*b)^5", ("a", "b")) == ((0, 1), (1, 1)) * 5


def test_parse_negative_exponent():
    assert parse_word("a^-2", ("a",)) == ((0, -2),)
    # (a*b)^-1 = b^-1 * a^-1
    assert parse_word("(a*b)^-1", ("a", "b")) == ((1, -1), (0, -1))


def test_parse_merges_adjacent_runs():
    assert parse_word("a*a*a", ("a",)) == ((0, 3),)
    assert parse_word("a*a^-1", ("a",)) == ()


def test_parse_nested():
    word = parse_word("((a*b)^2*a)^2", ("a", "b"))
    flat = []
    for idx, exp in word:
        flat.extend([idx] * exp)
    assert flat == [0, 1, 0, 1, 0, 0, 1, 0, 1, 0]


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown generator"):
        parse_word("c^2", ("a", "b"))
    with pytest.raises(ValueError, match="unbalanced"):
        parse_word("(a*b", ("a", "b"))
    with pytest.raises(ValueError, match="zero exponent"):
        parse_word("a^0", ("a",))
    with pytest.raises(ValueError, match="bad character"):
        parse_word("a+b", ("a", "b"))


def test_parse_bounds_the_expanded_length_before_expanding():
    gens = ("a", "b")
    with pytest.raises(ValueError, match=f"bound {MAX_WORD_SYLLABLES}"):
        parse_word("(a*b)^1000000000", gens)
    half = MAX_WORD_SYLLABLES // 2
    with pytest.raises(ValueError, match="bound"):
        parse_word(f"(a*b)^{half}*(a*b)^{half}*a*b", gens)
    with pytest.raises(ValueError, match="bound"):
        parse_word(f"((a*b)^{half // 10})^-11", gens)
    # a power of one syllable is never expanded
    assert parse_word("a^1000000000*(b^2)^-3", gens) == ((0, 10**9), (1, -6))


def test_render_round_trip():
    gens = ("a", "b")
    for text in ["a^2", "(a*b)^5", "a*b^-1*a^2", "b^3"]:
        word = parse_word(text, gens)
        assert parse_word(render_word(word, gens), gens) == word


def test_presentation_validates_indices():
    with pytest.raises(ValueError, match="undeclared"):
        Presentation(("a",), (((1, 2),),))
    with pytest.raises(ValueError, match="duplicate"):
        Presentation(("a", "a"), ())


def test_cyclic_and_free():
    c4 = cyclic_presentation(4)
    assert c4.relators == (((0, 4),),)
    f2 = free_presentation(2)
    assert f2.relators == ()
    assert len(f2.generators) == 2


def test_free_product_disjoint_union():
    c2 = cyclic_presentation(2, "a")
    c3 = cyclic_presentation(3, "b")
    combined = free_product([c2, c3])
    assert combined.generators == ("a", "b")
    assert combined.relators == (((0, 2),), ((1, 3),))


def test_free_product_renames_on_clash():
    c2 = cyclic_presentation(2, "g")
    c3 = cyclic_presentation(3, "g")
    combined = free_product([c2, c3])
    assert combined.generators == ("f1_g", "f2_g")
    assert combined.relators == (((0, 2),), ((1, 3),))


def test_presentation_from_words():
    p = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^5"])
    assert len(p.relators) == 3
    assert p.relators[2] == ((0, 1), (1, 1)) * 5


syllables = st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool))


@given(st.lists(syllables, max_size=8), st.integers(0, 7))
def test_canonical_relator_is_invariant_under_rotation_and_inversion(word, shift):
    word = tuple(word)
    canonical = canonical_relator(word)
    r = shift % len(word) if word else 0
    rotated = word[r:] + word[:r]
    inverse = tuple((idx, -exp) for idx, exp in reversed(word))
    assert canonical_relator(rotated) == canonical
    assert canonical_relator(inverse) == canonical
    assert canonical_relator(canonical) == canonical
    assert not canonical or canonical[0][1] > 0


def test_canonical_relator_reduces_conjugates_and_prefers_positive_syllables():
    a, b = 0, 1
    assert canonical_relator(((a, 1), (b, 2), (a, -1))) == ((b, 2),)
    assert canonical_relator(((b, -1), (a, -1))) == ((a, 1), (b, 1))
    assert canonical_relator(((a, 1), (a, -1))) == ()


@given(st.lists(syllables, max_size=6), st.integers(1, 5), st.lists(syllables, max_size=4))
def test_cyclic_root_of_a_conjugated_power(root, n, conjugator):
    """u r^n u^-1 reduces to a primitive s to the power m, s^m in the
    cyclic class of r^n; m is n times r's own exponent unless r reduces to
    a single syllable, which merges (a^2 is one syllable, not a^1 twice)."""
    conjugator, root = tuple(conjugator), tuple(root)
    word = conjugator + root * n + tuple((idx, -exp) for idx, exp in reversed(conjugator))
    s, m = cyclic_root(word)
    inner, k = cyclic_root(root)
    assert canonical_relator(s * m) == canonical_relator(root * n)
    assert cyclic_root(s) == (s, 1)
    if len(inner) > 1:
        assert len(s) == len(inner) and m == k * n


def test_cyclic_root_finds_rotated_powers():
    g = ("a", "b", "c", "d")
    a, b = 0, 1
    assert cyclic_root(parse_word("(a*b)^5", g)) == (((a, 1), (b, 1)), 5)
    # rotated: the reduction reads (b*a)^7
    assert cyclic_root(parse_word("b^-1*(a*b)^7*b", g)) == (((b, 1), (a, 1)), 7)
    assert cyclic_root(parse_word("a*b^5*a^-1", g)) == (((b, 5),), 1)
    assert cyclic_root(parse_word("a^6", g)) == (((a, 6),), 1)
    # the ends merge into a^4, so the reduction is no longer a proper power
    assert cyclic_root(parse_word("(a^2*b)^3*a^2", g)) == (((a, 4),) + ((b, 1), (a, 2)) * 2 + ((b, 1),), 1)
    assert cyclic_root(parse_word("(a*b*a^-1*b^-1)^4", g))[1] == 4
    assert cyclic_root(()) == ((), 1)


def test_cyclic_root_is_linear_in_the_word_length():
    """A power conjugated by a long word reduces without a quadratic step:
    50,000 matching end syllables cancel in one pass."""
    g = ("a", "b", "c", "d")
    word = parse_word("(c*d)^25000*b^-1*(a*b)^60005*b*(c*d)^-25000", g)
    start = time.perf_counter()
    root, n = cyclic_root(word)
    assert (root, n) == (((1, 1), (0, 1)), 60005)
    assert time.perf_counter() - start < 1.0
