import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.presentations import (
    MAX_WORD_SYLLABLES,
    Presentation,
    canonical_relator,
    cyclic_presentation,
    free_presentation,
    free_product,
    parse_word,
    presentation_from_words,
    render_word,
)


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
