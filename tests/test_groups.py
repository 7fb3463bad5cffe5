import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound import groups
from genbound.constructions import semidirect_target
from genbound.groups import (
    CayleyGroup,
    ClosureOverflowError,
    GeneratedGroup,
    MatrixGroup,
    PermGroup,
    ProductGroup,
)
from genbound.modules import ModuleAction, general_linear_group
from genbound.presentations import cyclic_presentation
from helpers import (
    alternating_group_5,
    closure,
    cyclic_group,
    perm_parity,
    quaternion_group,
    sym_elements,
    symmetric_group,
)


def test_closure_full_symmetric_group():
    # <5-cycle, transposition> is all of Sym(5)
    s5 = PermGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    assert s5.order == 120


def test_closure_single_involution():
    g = PermGroup(4, [(1, 0, 3, 2)])
    assert g.order == 2


def test_closure_alternating_group_against_even_perm_oracle():
    a5 = alternating_group_5()
    evens = {p for p in sym_elements(5) if perm_parity(p) == 0}
    assert set(a5.elements) == evens
    assert a5.order == 60


def test_closure_is_idempotent():
    a5 = alternating_group_5()
    again = closure(list(a5.elements), a5.mul, a5.identity)
    assert set(again) == set(a5.elements)


def test_closure_divides_degree_factorial():
    import math

    for gens, degree in [
        ([(1, 2, 0, 3)], 4),
        ([(1, 0, 2, 3), (0, 2, 1, 3)], 4),
        ([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], 5),
    ]:
        g = PermGroup(degree, gens)
        assert math.factorial(degree) % g.order == 0


def test_closure_overflow_is_an_error_not_truncation(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 50)
    s5 = PermGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    with pytest.raises(ClosureOverflowError, match="closure overflow"):
        s5.elements


def test_cayley_group_identity_and_inverse():
    c6 = cyclic_group(6)
    assert c6.order == 6
    assert c6.identity == 0
    assert c6.mul(2, 5) == 1
    assert c6.inv(2) == 4
    assert c6.element_order(1) == 6


def test_cayley_rejects_bad_tables():
    with pytest.raises(ValueError, match="identity"):
        CayleyGroup([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="identity"):
        CayleyGroup([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="inverse|bijection"):
        CayleyGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_cayley_rejects_a_latin_square_with_a_far_intercalate_swapped():
    # C_68 with the 2 x 2 subsquare at rows 20, 54 and columns 30, 64
    # swapped: still a Latin square with identity 0 and inverses, but 1,040
    # triples are not associative, none of them with (a, c) both below 16
    n = 68
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a in (20, 54):
        table[a][30], table[a][64] = table[a][64], table[a][30]
    bad = sum(
        table[table[a][b]][c] != table[a][table[b][c]]
        for a, b, c in itertools.product(range(n), repeat=3)
    )
    assert bad == 1040
    with pytest.raises(ValueError, match="not associative"):
        CayleyGroup(table)


def test_cayley_identity_need_not_be_index_zero():
    c2 = CayleyGroup([[1, 0], [0, 1]])
    assert c2.identity == 1
    assert c2.order == 2


def test_matrix_group_quaternion():
    q8 = quaternion_group()
    assert q8.order == 8
    i = q8.generators[0]
    assert q8.element_order(i) == 4
    assert q8.power(i, 2) == q8.power(q8.generators[1], 2)  # common -1


def test_matrix_group_rejects_singular_generator():
    with pytest.raises(ValueError, match="singular"):
        MatrixGroup(3, 2, [((1, 1), (1, 1))])


def _units_target(p: int, unit: int, order: int, m: int):
    """F_p^m : <unit>, the unit acting on each copy of F_p by multiplication:
    the target V^m : R of the one-dimensional module of C_order it gives."""
    module = ModuleAction(p, 1, (((unit,),),), cyclic_presentation(order))
    return semidirect_target([module], m)[0]


def _affine(v: int, a: int):
    """x -> a x + v on F_p as the matrix [[a, v], [0, 1]]."""
    return ((a, v), (0, 1))


def test_affine_semidirect_order_and_multiplication_rule():
    # holomorph of C_7: translations extended by the full unit group
    target = _units_target(7, 3, 6, 1)
    h = target.group
    assert target.point_group.order == 6
    assert h.order == target.order == 42
    assert h.generators == (_affine(1, 1), _affine(0, 3))
    # (v1, a1) * (v2, a2) = (v1 + a1 v2, a1 a2)
    assert h.mul(_affine(2, 3), _affine(4, 2)) == _affine((2 + 3 * 4) % 7, 6)
    x = _affine(5, 4)
    assert h.mul(x, h.inv(x)) == h.identity
    assert h.mul(h.inv(x), x) == h.identity


def test_affine_semidirect_enumeration_matches_generator_closure():
    h = _units_target(5, 2, 4, 1).group
    enumerated = set(h.elements)
    generated = set(closure(list(h.generators), h.mul, h.identity))
    assert enumerated == generated
    assert len(enumerated) == 20


def test_affine_semidirect_respects_element_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 100)
    target = _units_target(7, 3, 6, 2)
    with pytest.raises(ClosureOverflowError):
        target.group.elements
    assert target.order == 294  # order is known without enumeration


def test_product_group_and_power():
    s3 = symmetric_group(3)
    sq = ProductGroup([s3] * 2)
    assert sq.order == 36
    assert len(sq.elements) == 36
    a = (s3.generators[0], s3.identity)
    b = (s3.identity, s3.generators[1])
    assert sq.mul(a, b) == (s3.generators[0], s3.generators[1])
    assert sq.inv(sq.mul(a, b)) == sq.mul(sq.inv(b), sq.inv(a))


def test_generated_group_never_enumerates_ambient():
    s3 = symmetric_group(3)
    wide = ProductGroup([s3] * 12)  # ~2e9 elements; must stay lazy
    diag = tuple(s3.generators[1] for _ in range(12))  # diagonal transposition
    sub = GeneratedGroup(wide, [diag])
    assert sub.order == 2


def test_compiled_preserves_structure():
    s3 = symmetric_group(3)
    table, index = s3.compiled, s3.element_index
    assert table.order == 6
    for a in s3.elements:
        for b in s3.elements:
            assert table.mul(index(a), index(b)) == index(s3.mul(a, b))


def test_conjugacy_classes_partition():
    s4 = symmetric_group(4)
    classes = s4.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24


@given(st.permutations(list(range(6))).map(tuple), st.integers(-40, 40))
def test_power_matches_repeated_multiplication(x, n):
    group = symmetric_group(6)
    base = x if n >= 0 else group.inv(x)
    expected = group.identity
    for _ in range(abs(n)):
        expected = group.mul(expected, base)
    assert group.power(x, n) == expected


@pytest.mark.parametrize("p,dim", [(3, 2), (2, 3)])
def test_walk_read_part_way_meets_the_elements_in_enumeration_order(p, dim):
    # the one-generator module search reads GL(d, p) through this walk and
    # stops at its first hit, so the module it reports is the first one in
    # `elements` order
    gl = general_linear_group(p, dim)
    walk = groups._bfs(gl._steps(), gl.identity, [], [[] for _ in gl.generators])
    first = list(itertools.islice(walk, 5))
    assert first == list(gl.elements[:5])
    assert first + list(walk) == list(gl.elements)
    assert closure(gl.generators, gl.mul, gl.identity) == list(gl.elements)


def test_failed_enumeration_fails_again_on_the_next_read(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 10)
    group = symmetric_group(4)
    for _ in range(2):
        with pytest.raises(ClosureOverflowError):
            group.elements
    # nothing of the failed reads is kept: the next read starts afresh
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 24)
    assert group.elements == symmetric_group(4).elements
    assert group.compiled.right == symmetric_group(4).compiled.right
