import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound import subgroups
from genbound.groups import PermGroup, walk
from genbound.subgroups import (
    SubgroupHandle,
    abelian_invariants,
    d_min_generators,
    derived_subgroup,
    largest_normal_p_subgroup,
    orbits,
    quotient_group,
)

from helpers import (
    affine_group,
    alternating_group_4,
    alternating_group_5,
    brute_centralizer_order,
    centralizer_order_transitive,
    brute_derived_subgroup,
    brute_largest_normal_p_subgroups,
    closure,
    cyclic_group,
    cyclic_perm_group,
    dihedral_group,
    klein_group,
    quaternion_group,
    regular_perm_group,
    subgroup_from_generators,
    symmetric_group,
    unpruned_d_min_generators,
)


def agl_3_2() -> PermGroup:
    """AGL(3,2) on F_2^3, points as 3-bit integers: translation by e1, the
    transvection e2 -> e2 + e1 and the cyclic shift of coordinates."""
    return PermGroup(
        8, [(1, 0, 3, 2, 5, 4, 7, 6), (0, 1, 3, 2, 4, 5, 7, 6), (0, 2, 4, 6, 1, 3, 5, 7)]
    )


def sym4_wr_c2() -> PermGroup:
    """Sym(4) on each block of {0..3} | {4..7}, plus the block swap."""
    return PermGroup(
        8, [(1, 2, 3, 0, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)]
    )


# -- subgroup handles ---------------------------------------------------------


def test_handle_checks_lagrange_and_closure():
    s3 = symmetric_group(3)
    with pytest.raises(ValueError, match="Lagrange|closed|identity"):
        SubgroupHandle(s3, (s3.identity, (1, 2, 0), (1, 0, 2), (0, 2, 1)))


def test_subgroup_from_generators():
    s4 = symmetric_group(4)
    h = subgroup_from_generators(s4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert h.order == 4
    assert h.is_normal()
    assert s4.order % h.order == 0


# -- derived subgroups --------------------------------------------------------


def test_derived_subgroup_abelian_is_trivial():
    c6 = cyclic_group(6)
    assert derived_subgroup(c6).order == 1


def test_derived_subgroup_sym3():
    s3 = symmetric_group(3)
    d = derived_subgroup(s3)
    assert d.order == 3
    assert set(d.elements) == brute_derived_subgroup(s3)


@pytest.mark.parametrize(
    "group_factory",
    [symmetric_group, lambda n=4: alternating_group_4(), lambda n=0: dihedral_group(4)],
    ids=["sym4", "alt4", "dih4"],
)
def test_derived_subgroup_matches_all_pairs_oracle(group_factory):
    g = group_factory(4) if group_factory is symmetric_group else group_factory()
    assert set(derived_subgroup(g).elements) == brute_derived_subgroup(g)


def test_derived_subgroup_is_normal_and_quotient_abelian():
    for g in [symmetric_group(4), dihedral_group(6), quaternion_group()]:
        d = derived_subgroup(g)
        assert d.is_normal()
        q, _ = quotient_group(g, d)
        assert q.is_abelian()


def test_derived_subgroup_of_coprime_family_group_is_translations():
    # the order-21 witness group on F_7: derived subgroup = the 7 translations
    g = affine_group(7, 2)  # 2 has multiplicative order 3 mod 7
    assert g.order == 21
    d = derived_subgroup(g)
    assert d.order == 7
    assert set(d.elements) == brute_derived_subgroup(g)


# -- quotients ----------------------------------------------------------------


def test_quotient_sym3_by_alt3():
    s3 = symmetric_group(3)
    q, proj = quotient_group(s3, derived_subgroup(s3))
    assert q.order == 2
    assert abelian_invariants(q) == [2]
    assert len(set(proj.values())) == 2


def test_quotient_rejects_non_normal():
    s3 = symmetric_group(3)
    h = subgroup_from_generators(s3, [(1, 0, 2)])  # a point stabilizer
    with pytest.raises(ValueError, match="not normal"):
        quotient_group(s3, h)


# -- abelian invariants -------------------------------------------------------


def test_abelian_invariants_examples():
    assert abelian_invariants(cyclic_group(6)) == [6]
    assert abelian_invariants(klein_group()) == [2, 2]
    assert abelian_invariants(cyclic_group(1)) == []
    assert abelian_invariants(cyclic_group(12)) == [12]


def test_abelian_invariants_divisibility_and_product():
    from genbound.groups import ProductGroup

    cases = [
        ([2, 4], [2, 4]),
        ([2, 2, 2], [2, 2, 2]),
        ([6, 4], [2, 12]),
        ([3, 9], [3, 9]),
        ([2, 3], [6]),
        ([4, 6, 10], [2, 2, 60]),
    ]
    for orders, expected in cases:
        g = ProductGroup([cyclic_group(n) for n in orders])
        inv = abelian_invariants(g)
        assert inv == expected
        prod = 1
        for d in inv:
            prod *= d
        assert prod == g.order
        assert all(a % b == 0 for a, b in zip(inv[1:], inv))


def test_abelian_invariants_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        abelian_invariants(symmetric_group(3))


# -- minimal generators -------------------------------------------------------


def test_d_min_cyclic_is_one():
    for n in (2, 5, 12):
        result = d_min_generators(cyclic_perm_group(n))
        assert result.value == 1 and result.exact


def test_d_min_klein_is_two():
    result = d_min_generators(klein_group())
    assert result.value == 2 and result.exact
    assert result.witness is not None


def test_d_min_witness_generates():
    g = symmetric_group(4)
    result = d_min_generators(g)
    assert result.value == 2
    assert len(closure(list(result.witness), g.mul, g.identity)) == 24


def test_d_min_iff_element_of_full_order():
    for g in [cyclic_group(8), klein_group(), symmetric_group(3)]:
        has_full = any(g.element_order(x) == g.order for x in g.elements)
        assert (d_min_generators(g).value == 1) == has_full


def test_d_min_budget_reports_lower_bound():
    from genbound.groups import ProductGroup

    g = ProductGroup([cyclic_group(2)] * 3)  # needs 3 generators
    result = d_min_generators(g, budget=10)
    assert not result.exact
    assert result.value == 2  # noncyclic: proven lower bound
    assert result.witness is None


def test_d_min_elementary_abelian_rank_three():
    from genbound.groups import ProductGroup

    g = ProductGroup([cyclic_group(2)] * 3)
    assert d_min_generators(g).value == 3


# -- largest normal p-subgroups ------------------------------------------------


def test_largest_normal_p_subgroup_sym4():
    o2 = largest_normal_p_subgroup(symmetric_group(4), 2)
    assert o2.order == 4
    double_transpositions = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    assert set(o2.elements) == double_transpositions


def test_largest_normal_p_subgroup_simple_group_trivial():
    a5 = alternating_group_5()
    for p in (2, 3, 5):
        assert largest_normal_p_subgroup(a5, p).order == 1


def test_largest_normal_p_subgroup_whole_group():
    c3 = cyclic_perm_group(3)
    assert largest_normal_p_subgroup(c3, 3).order == 3


def test_largest_normal_p_subgroup_skips_small_closures_of_other_orders():
    # in Sym(3) x C4 the transpositions have order 2 and normal closure
    # Sym(3), of order 6 below the 2-part 8 of 24, yet no 2-group:
    # O_2 is the C4 alone
    g = PermGroup(7, [(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 4, 5, 6, 3)])
    assert g.order == 24
    o2 = largest_normal_p_subgroup(g, 2)
    assert o2.order == 4
    assert set(o2.elements) == brute_largest_normal_p_subgroups(g)[2]


def test_largest_normal_p_subgroup_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        largest_normal_p_subgroup(symmetric_group(3), 4)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: cyclic_group(6),
        lambda: symmetric_group(3),
        lambda: klein_group(),
        lambda: dihedral_group(4),
        lambda: quaternion_group(),
        lambda: alternating_group_4(),
        lambda: symmetric_group(4),
        lambda: affine_group(7, 2),
        lambda: dihedral_group(6),
        lambda: cyclic_group(12),
    ],
    ids=["c6", "sym3", "klein", "dih4", "q8", "alt4", "sym4", "aff7-21", "dih6", "c12"],
)
def test_normal_core_matches_lattice_oracle(factory):
    g = factory()
    for p, oracle in brute_largest_normal_p_subgroups(g).items():
        assert set(largest_normal_p_subgroup(g, p).elements) == oracle


# -- orbits and centralizers --------------------------------------------------


def test_orbits_transitive_and_trivial():
    assert orbits(symmetric_group(4)) == [[0, 1, 2, 3]]
    assert orbits(PermGroup(4, [(0, 1, 2, 3)])) == [[0], [1], [2], [3]]


def test_orbits_blocks():
    # one 3-cycle and an independent 2-cycle
    g = PermGroup(5, [(1, 2, 0, 4, 3)])
    assert orbits(g) == [[0, 1, 2], [3, 4]]


def test_centralizer_regular_abelian_is_itself():
    assert centralizer_order_transitive(cyclic_perm_group(3)) == 3
    assert centralizer_order_transitive(klein_group()) == 4


def test_centralizer_affine_examples():
    assert centralizer_order_transitive(affine_group(7, 3)) == 1
    assert centralizer_order_transitive(symmetric_group(4)) == 1


def test_centralizer_rejects_intransitive():
    g = PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError, match="not transitive"):
        centralizer_order_transitive(g)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: cyclic_perm_group(3),
        lambda: symmetric_group(3),
        lambda: cyclic_perm_group(4),
        lambda: klein_group(),
        lambda: dihedral_group(4),
        lambda: alternating_group_4(),
        lambda: symmetric_group(4),
        lambda: cyclic_perm_group(5),
        lambda: dihedral_group(5),
        lambda: affine_group(5, 2),
        lambda: cyclic_perm_group(7),
        lambda: affine_group(7, 3),
        lambda: affine_group(7, 2),
        lambda: cyclic_perm_group(8),
        lambda: regular_perm_group(quaternion_group()),
    ],
    ids=[
        "c3", "sym3", "c4", "klein", "dih4", "alt4", "sym4",
        "c5", "dih5", "aff5", "c7", "aff7", "aff7-21", "c8", "q8-regular",
    ],
)
def test_centralizer_matches_brute_force(factory):
    g = factory()
    assert centralizer_order_transitive(g) == brute_centralizer_order(g)


# -- the d = 2 prune of the minimal-generator search ----------------------------

D_MIN_BUDGETS = [1, 7, 60, 500, 200_000]

perm_groups_to_degree_6 = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(n))).map(tuple), min_size=2, max_size=3
    ).map(lambda gens: PermGroup(n, gens))
)

# Sym(3), Alt(4), the dihedral group of order 8 and Sym(4)
NONABELIAN_ON_3_OR_4_POINTS = [
    [(1, 2, 0), (1, 0, 2)],
    [(1, 2, 0, 3), (0, 2, 3, 1)],
    [(1, 2, 3, 0), (3, 2, 1, 0)],
    [(1, 2, 3, 0), (1, 0, 2, 3)],
]


@st.composite
def products_led_by_a_factor(draw):
    """A x B on disjoint points, degree <= 6, A nonabelian, with B's
    generators first. The normal closure of an element of B lies in B and
    misses G' = A' x B', so the search starts with classes it skips."""
    a = draw(st.sampled_from(NONABELIAN_ON_3_OR_4_POINTS))
    k = len(a[0])
    m = draw(st.integers(2, 6 - k))
    moving = st.permutations(list(range(m))).filter(lambda g: g != list(range(m)))
    b = draw(st.lists(moving, min_size=1, max_size=2))
    gens = [tuple(range(k)) + tuple(k + x for x in g) for g in b]
    gens += [g + tuple(range(k, k + m)) for g in a]
    return PermGroup(k + m, gens)


def check_d_min_matches_the_unpruned_search(group):
    # the same value, witness and exactness as closing every candidate
    # tuple, at budgets that stop both searches early and late
    for budget in D_MIN_BUDGETS:
        expected = unpruned_d_min_generators(group, budget=budget)
        assert d_min_generators(group, budget=budget) == expected


@given(st.one_of(perm_groups_to_degree_6, products_led_by_a_factor()))
@settings(max_examples=60, deadline=None)
def test_d_min_matches_the_unpruned_search(group):
    check_d_min_matches_the_unpruned_search(group)


@pytest.mark.parametrize("factory", [agl_3_2, sym4_wr_c2, lambda: symmetric_group(4)])
def test_d_min_matches_the_unpruned_search_where_the_prune_fires(factory):
    group = factory()
    check_d_min_matches_the_unpruned_search(group)
    # the least budget at which the unpruned search finds a generating
    # pair: a skipped class counts all its pairs, so the same budget holds
    low, high = 1, D_MIN_BUDGETS[-1]
    while low < high:
        mid = (low + high) // 2
        if unpruned_d_min_generators(group, budget=mid).exact:
            high = mid
        else:
            low = mid + 1
    assert d_min_generators(group, budget=low).exact
    assert not d_min_generators(group, budget=low - 1).exact


def test_d_min_on_agl_3_2_closes_few_tuples(monkeypatch):
    # AGL(3,2) is perfect and its translations form its only proper
    # nontrivial normal subgroup, so the translation class is skipped
    # without closing its 1,343 pairs
    calls = []

    def counting_walk(*args, **kwargs):
        # a tuple closure is a walk d_min_generators starts itself; the
        # normal closures that skip a first element start theirs elsewhere
        if sys._getframe(1).f_code is d_min_generators.__code__:
            calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(subgroups, "walk", counting_walk)
    result = d_min_generators(agl_3_2())
    assert result.value == 2 and result.exact
    assert 0 < len(calls) <= 60
