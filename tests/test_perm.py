import itertools
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.groups import PermGroup
from genbound.perm import (
    compose,
    cycle_lengths,
    identity_perm,
    inverse,
    order_divides,
    perm_order,
    perms_of_cycle_type,
    validate_perm,
)

from helpers import partitions

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(tuple)


def test_validate_rejects_non_bijection():
    with pytest.raises(ValueError, match="not a bijection"):
        validate_perm([0, 0, 1])


def test_compose_convention_right_factor_acts_first():
    # (0 1) after (1 2): 0 -> 1, 1 -> 2, 2 -> 0
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 2, 0)
    # cross-check against an explicit image-table composition
    table = tuple(p[q[x]] for x in range(3))
    assert compose(p, q) == table


def test_compose_identity_and_inverse():
    p = (2, 0, 3, 1)
    e = identity_perm(4)
    assert compose(e, p) == p
    assert compose(p, e) == p
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((1, 0), (1, 2, 0))


@given(st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(n)))), st.data())
def test_compose_matches_the_image_table_at_every_degree(p, data):
    # degrees 0 and 1 included: compose returns a tuple there too
    n = len(p)
    q = data.draw(st.permutations(list(range(n))))
    for a, b in [(tuple(p), tuple(q)), (p, q)]:
        product = compose(a, b)
        assert type(product) is tuple
        assert product == tuple(a[x] for x in b)
    m = data.draw(st.integers(0, 9).filter(lambda m: m != n))
    with pytest.raises(ValueError, match="degree mismatch"):
        compose(tuple(p), tuple(range(m)))


@given(perms, st.data())
def test_compose_associative(p, data):
    n = len(p)
    q = tuple(data.draw(st.permutations(list(range(n)))))
    r = tuple(data.draw(st.permutations(list(range(n)))))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_inverse_is_two_sided(p):
    e = identity_perm(len(p))
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e


@given(perms)
def test_order_matches_iterated_powers(p):
    group = PermGroup(len(p), [p])
    n = perm_order(p)
    assert group.power(p, n) == identity_perm(len(p))
    for k in range(1, n):
        assert group.power(p, k) != identity_perm(len(p))


def test_cycle_lengths():
    assert sorted(cycle_lengths((1, 0, 3, 4, 2))) == [2, 3]
    assert cycle_lengths(identity_perm(3)) == [1, 1, 1]


def test_negative_power():
    p = (1, 2, 3, 0)
    group = PermGroup(4, [p])
    assert group.power(p, -1) == inverse(p)
    assert group.power(p, -3) == group.power(inverse(p), 3)


@pytest.mark.parametrize("n", range(8))
def test_perms_of_each_cycle_type_are_its_class_once(n):
    seen = []
    for lengths in partitions(n):
        members = list(perms_of_cycle_type(n, lengths))
        z = prod(d**k * factorial(k) for d, k in Counter(lengths).items())
        assert len(members) == len(set(members)) == factorial(n) // z
        assert all(sorted(cycle_lengths(p), reverse=True) == list(lengths) for p in members)
        seen += members
    assert sorted(seen) == list(itertools.permutations(range(n)))


@given(st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(n)))), st.integers(1, 30))
def test_order_divides_reads_the_cycle_lengths(p, n):
    assert order_divides(tuple(p), n) == (n % perm_order(p) == 0)
