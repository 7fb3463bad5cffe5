import itertools
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound import modules
from genbound.groups import MatrixGroup
from genbound.homcount import group_presentation
from genbound.linalg import (
    block_diag,
    has_no_joint_fixed_vector,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_vec,
    spin_dimension,
)
from genbound.modules import (
    ModuleAction,
    cyclic_modules,
    find_simple_module,
    general_linear_group,
    general_linear_order,
    is_irreducible,
)
from genbound.numtheory import (
    irreducible_polynomial,
    is_irreducible_poly,
    poly_mulmod,
    root_of_unity,
)
from genbound.presentations import cyclic_presentation, presentation_from_words

from helpers import (
    alternating_group_5,
    brute_is_irreducible,
    cyclic_perm_group,
    brute_reducible_polynomials,
    eager_find_simple_module,
    klein_group,
    symmetric_group,
)

C2 = cyclic_presentation(2)
C3 = cyclic_presentation(3)
C4 = cyclic_presentation(4)
C5 = cyclic_presentation(5)


def test_linalg_inverse_and_power():
    a = ((1, 1), (0, 1))
    group = MatrixGroup(5, 2, [a])
    assert mat_mul(a, mat_inv(a, 5), 5) == mat_identity(2)
    assert group.power(a, 5) == mat_identity(2)
    assert group.power(a, -1) == mat_inv(a, 5)


# (p, vector, matrices): one to three dim x dim matrices over F_p, dim <= 3
small_spaces = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3)).flatmap(
    lambda pd: st.tuples(
        st.just(pd[0]),
        st.tuples(*[st.integers(0, pd[0] - 1)] * pd[1]),
        st.lists(
            st.tuples(*[st.tuples(*[st.integers(0, pd[0] - 1)] * pd[1])] * pd[1]),
            min_size=1,
            max_size=3,
        ),
    )
)


@given(small_spaces)
def test_row_reduction_ranks_match_enumerated_subspaces(case):
    p, v, matrices = case
    dim = len(v)
    # the spin of v, grown as a set: each vector joins with all its
    # multiples added to the span so far, and queues its images
    span, queue = {(0,) * dim}, [v]
    while queue:
        w = queue.pop()
        if w not in span:
            span = {
                tuple((a + c * b) % p for a, b in zip(s, w)) for s in span for c in range(p)
            }
            queue.extend(mat_vec(m, w, p) for m in matrices)
    assert p ** spin_dimension(v, matrices, p) == len(span)
    fixed = [
        u for u in itertools.product(range(p), repeat=dim)
        if any(u) and all(mat_vec(m, u, p) == u for m in matrices)
    ]
    assert has_no_joint_fixed_vector(matrices, p) == (not fixed)


def test_module_action_validation():
    with pytest.raises(ValueError, match="trivial"):
        ModuleAction(3, 2, (mat_identity(2),), cyclic_presentation(1))
    with pytest.raises(ValueError, match="relators"):
        ModuleAction(3, 1, (((2,),),), C3)  # 2 has order 2 mod 3, not 3
    with pytest.raises(ValueError, match="singular"):
        ModuleAction(2, 2, (((1, 1), (1, 1)),), C2)


def test_dim_one_always_irreducible():
    action = ModuleAction(3, 1, (((2,),),), C2)
    assert is_irreducible(action)


def test_rotation_module_over_f2_is_irreducible():
    action = ModuleAction(2, 2, (((0, 1), (1, 1)),), C3)
    assert is_irreducible(action)


def test_transvection_module_is_reducible():
    action = ModuleAction(2, 2, (((1, 1), (0, 1)),), C2)
    assert not is_irreducible(action)


IRREDUCIBILITY_CASES = [
    # (p, dim, matrices, source) with p^dim <= 64
    (2, 2, (((0, 1), (1, 1)),), C3),
    (2, 2, (((1, 1), (0, 1)),), C2),
    (3, 1, (((2,),),), C2),
    (5, 1, (((2,),),), C4),
    (3, 2, (((0, 2), (1, 0)),), C4),  # x^2+1 irreducible mod 3
    (5, 2, (((0, 4), (1, 0)),), C4),  # x^2+1 splits mod 5
    (7, 1, (((3,),),), cyclic_presentation(6)),
    (2, 3, (block_diag([((0, 1), (1, 1)), ((1,),)]),), C3),  # 2+1 split
    (2, 4, (((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),), C5),
    (2, 6, (block_diag([((0, 1), (1, 1))] * 3),), C3),  # three copies
    (2, 5, (block_diag([((0, 1), (1, 1)), mat_identity(3)]),), C3),
]


@pytest.mark.parametrize("p,dim,mats,source", IRREDUCIBILITY_CASES)
def test_irreducibility_matches_all_subspaces_oracle(p, dim, mats, source):
    assert p**dim <= 64
    action = ModuleAction(p, dim, mats, source)
    assert is_irreducible(action) == brute_is_irreducible(p, dim, action.matrices)


def test_general_linear_orders():
    for p, dim in [(2, 1), (2, 2), (3, 2), (2, 3), (5, 2)]:
        group = general_linear_group(p, dim)
        assert group.order == general_linear_order(p, dim)


def test_find_simple_module_c2_mod3():
    search = find_simple_module(C2, 3)
    assert search.found is not None
    assert search.found.dim == 1
    assert search.found.matrices == (((2,),),)  # the unit -1


def test_find_simple_module_c3_mod2_needs_dim_two():
    search = find_simple_module(C3, 2)
    assert search.found is not None
    assert search.found.dim == 2
    assert is_irreducible(search.found)
    assert 1 in search.searched_dims  # dimension one was tried and exhausted


def test_find_simple_module_c2_mod2_inconclusive():
    # every dimension within the GL cap is searched, then the first past it
    # is reported: |GL(5, 2)| = 9,999,360
    search = find_simple_module(C2, 2)
    assert search.found is None
    assert search.searched_dims == (1, 2, 3, 4)
    assert search.skipped == ((5, "matrix group order 9999360 exceeds cap 25000"),)


def test_find_simple_module_from_concrete_group():
    s3 = symmetric_group(3)
    search = find_simple_module(group_presentation(s3), 5)
    assert search.found is not None
    assert search.found.dim == 1  # sign action: the unit -1 mod 5


def test_module_action_on_concrete_source_checks_its_relators():
    source = find_simple_module(group_presentation(symmetric_group(3)), 5).found.source
    assert source.relators
    # the generators are the 3-cycle and the transposition; 2 has order 4
    # mod 5, so it cannot be the image of the transposition
    with pytest.raises(ValueError, match="relators"):
        ModuleAction(5, 1, (((1,),), ((2,),)), source)


def test_find_simple_module_reports_skipped_dimensions(monkeypatch):
    # |GL(1, 7)| = 6 already exceeds the cap, and |GL(d, p)| grows with d
    monkeypatch.setattr(modules, "DEFAULT_GL_ORDER_CAP", 5)
    search = find_simple_module(C2, 7)
    assert search.found is None
    assert search.searched_dims == ()
    assert search.skipped == ((1, "matrix group order 6 exceeds cap 5"),)


def test_every_dimension_within_the_gl_cap_is_within_the_space_cap():
    # the search skips dimensions by |GL(d, p)| alone, and is_irreducible
    # raises above SPACE_CAP: p = |GL(1, p)| + 1 and p^d <= |GL(d, p)| for d >= 2
    assert modules.DEFAULT_GL_ORDER_CAP < modules.SPACE_CAP
    for p in (2, 3, 5, 7, 11, 101):
        for d in range(1, 8):
            if general_linear_order(p, d) <= modules.DEFAULT_GL_ORDER_CAP:
                assert p**d <= modules.SPACE_CAP


def search_up_to(monkeypatch, p: int, dim: int):
    """Lower the GL cap so that the module search over F_p stops after
    dimension `dim`, or where the default cap stops it if that is earlier."""
    cap = min(general_linear_order(p, dim), modules.DEFAULT_GL_ORDER_CAP)
    monkeypatch.setattr(modules, "DEFAULT_GL_ORDER_CAP", cap)


def test_find_simple_module_inconclusive_for_a5_at_small_dims(monkeypatch):
    # nontrivial actions of Alt(5) over F_2 first appear in dimension 4;
    # a search capped below that is inconclusive, not a disproof
    search_up_to(monkeypatch, 2, 3)
    search = find_simple_module(group_presentation(alternating_group_5()), 2)
    assert search.found is None
    assert search.searched_dims == (1, 2, 3)
    assert [d for d, _ in search.skipped] == [4]


# -- the streamed search against the eager one -----------------------------

TWO_GENERATOR_SYM3 = presentation_from_words(("a", "b"), ("a^2", "b^3", "(a*b)^2"))
# (source, p, the largest dimension searched, unless the default cap stops earlier)
STREAM_CORPUS = [
    *((cyclic_presentation(n), p, 3) for p in (2, 3, 5, 7) for n in range(2, 14)),
    (group_presentation(symmetric_group(3)), 5, 2),
    (group_presentation(klein_group()), 3, 2),
    (TWO_GENERATOR_SYM3, 7, 2),
    (group_presentation(alternating_group_5()), 2, 2),  # inconclusive
]


@pytest.mark.parametrize(
    "source,p,dim", STREAM_CORPUS, ids=lambda x: x.describe() if hasattr(x, "describe") else x
)
def test_streamed_search_matches_eager_search(monkeypatch, source, p, dim):
    search_up_to(monkeypatch, p, dim)
    streamed = find_simple_module(source, p)
    eager = eager_find_simple_module(source, p)
    assert streamed.found == eager.found
    assert streamed.searched_dims == eager.searched_dims
    assert streamed.skipped == eager.skipped


def test_module_search_stops_at_the_first_irreducible_action(monkeypatch):
    # enumerating GL(3,3) and powering each element costs over 100,000
    # products; reading it up to the first irreducible action, under 1,000
    calls = 0
    mul = MatrixGroup.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(MatrixGroup, "mul", counted)
    search = find_simple_module(cyclic_presentation(13), 3)
    assert search.found.matrices == (((1, 1, 1), (0, 1, 1), (1, 0, 1)),)
    assert calls <= 2000


def test_module_search_skips_matrix_groups_of_coprime_order(monkeypatch):
    # |GL(d, 2)| is 1, 6, 168 and 20,160 for d <= 4, all prime to 13, so
    # C13 has only the trivial action there; reading GL(4,2) alone costs
    # over 200,000 products
    calls = 0
    mul = MatrixGroup.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(MatrixGroup, "mul", counted)
    search = find_simple_module(cyclic_presentation(13), 2)
    assert search.found is None
    assert search.searched_dims == (1, 2, 3, 4) and [d for d, _ in search.skipped] == [5]
    assert calls == 0
    # an order bound sharing a factor with |GL(2,2)| = 6 is still searched
    assert find_simple_module(cyclic_presentation(39), 2).found.dim == 2
    assert calls > 0


def test_generator_without_order_bound_blocks_the_coprime_skip():
    free_and_c13 = presentation_from_words(("a", "b"), ("a^13",))
    search = find_simple_module(free_and_c13, 2)
    assert search.found is not None and search.found.matrices[0] == ((1, 0), (0, 1))


@pytest.mark.parametrize("m,p,dim", [(2, 2, 4), (4, 2, 4), (9, 3, 3)])
def test_module_search_skips_cyclic_sources_of_p_power_order(monkeypatch, m, p, dim):
    # the image of a p-element is unipotent and fixes a nonzero vector, so
    # C_m has no nontrivial simple module over F_p; reading GL(4, 2) alone
    # costs over 200,000 products
    calls = 0
    mul = MatrixGroup.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(MatrixGroup, "mul", counted)
    # `dim` is the last dimension within the default GL cap
    search = find_simple_module(cyclic_presentation(m), p)
    assert search.found is None
    assert search.searched_dims == tuple(range(1, dim + 1))
    assert [d for d, _ in search.skipped] == [dim + 1]
    assert calls == 0


# -- closed-form modules of cyclic sources ------------------------------------


def _powers(p: int, bound: int) -> set[int]:
    return {p**a for a in range(bound.bit_length()) if p**a <= bound}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_matches_the_module_search(monkeypatch, p):
    # where the GL(d, p) search finds a module of C_m in dimension <= 3, the
    # closed-form summand has that dimension and is irreducible; where it
    # finds none, the closed form's dimension is one it did not search
    search_up_to(monkeypatch, p, 3)
    for m in sorted(set(range(2, 61)) - _powers(p, 60)):
        p_free = m // max(q for q in _powers(p, m) if m % q == 0)
        if all(gcd(p_free, general_linear_order(p, d)) == 1 for d in (1, 2, 3)):
            # every image is a p-element, and a cyclic p-group fixes a
            # nonzero vector: the search, which would read all of each
            # GL(d, p) that shares a factor with m, can find no module
            continue
        search = find_simple_module(cyclic_presentation(m), p)
        (action,), (dim,), r = cyclic_modules([cyclic_presentation(m)], p)
        assert action.dim == dim and m % r == 0, m  # one factor: l is its own dimension
        if search.found is None:
            assert dim not in search.searched_dims, m
        else:
            assert dim == search.found.dim, m
            assert is_irreducible(action), m


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_rejects_orders_that_are_powers_of_p(p):
    for m in sorted(_powers(p, 60)):
        with pytest.raises(ValueError, match=f"its order {m} is a power of {p}"):
            cyclic_modules([cyclic_presentation(m)], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_test_matches_brute_force_factorisation(p):
    for n in range(1, 5):
        reducible = brute_reducible_polynomials(p, n)
        for lower in itertools.product(range(p), repeat=n):
            f = lower + (1,)
            assert is_irreducible_poly(f, p) == (f not in reducible), f
        first = irreducible_polynomial(p, n)
        assert tuple(first) not in reducible


def test_roots_of_unity_have_exact_order():
    f = irreducible_polynomial(2, 12)  # F_4096: its units have order 4095 = 3^2 * 5 * 7 * 13
    one = [1] + [0] * 11
    for e in (3, 5, 7, 9, 13, 35, 4095):
        zeta = root_of_unity(f, 2, e)
        powers = [one]
        for _ in range(e):
            powers.append(poly_mulmod(powers[-1], zeta, f, 2))
        assert powers[e] == one and one not in powers[1:e]
    with pytest.raises(ValueError, match="divide"):
        root_of_unity(f, 2, 11)


def test_closed_form_for_several_factors_shares_one_field():
    sources = [cyclic_presentation(5), cyclic_presentation(7), cyclic_presentation(5)]
    actions, dims, r = cyclic_modules(sources, 2)
    assert dims == [4, 3, 4] and r == 35
    assert all(action.dim == 12 for action in actions)  # l = ord_35(2)
    assert actions[0] is actions[2]
    # the action on F_2^12 is a sum of simple summands, not itself simple
    assert not is_irreducible(actions[0])


def test_closed_form_needs_cyclic_sources():
    assert cyclic_modules([], 2) is None
    assert cyclic_modules([group_presentation(symmetric_group(3))], 5) is None
    assert cyclic_modules([presentation_from_words(("a",), ())], 5) is None  # infinite cyclic
    _, dims, r = cyclic_modules([group_presentation(cyclic_perm_group(3))], 2)
    assert dims == [2] and r == 3
    with pytest.raises(ValueError, match="not prime"):
        cyclic_modules([C3], 4)


def test_closed_form_caps_the_field_degree():
    # ord_131(2) = 130: a field of degree 130 is refused before it is built
    with pytest.raises(ValueError, match="field degree 130 = ord_131"):
        cyclic_modules([cyclic_presentation(131)], 2)
    # a prime order near 10^9 is refused as fast
    with pytest.raises(ValueError, match="exceeds cap"):
        cyclic_modules([cyclic_presentation(1_000_000_007)], 2)
