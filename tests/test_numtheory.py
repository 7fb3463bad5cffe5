from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound import numtheory
from genbound.numtheory import (
    SearchCapError,
    common_subset_sum,
    crt_solve,
    dirichlet_prime,
    factorize,
    first_odd_primes,
    is_prime,
    largest_prime_factor,
    least_primitive_root,
    multiplicative_order,
    primes_in_progression,
    unit_of_order,
)

from helpers import brute_common_subset_sum


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1) == []
    assert largest_prime_factor(12) == 3


def test_first_odd_primes():
    assert first_odd_primes(4) == [3, 5, 7, 11]


def test_dirichlet_prime_examples():
    assert dirichlet_prime(1, 6) == 7
    assert dirichlet_prime(2, 3) == 2
    assert dirichlet_prime(7, 15) == 7
    assert dirichlet_prime(1, 15) == 31  # 16 is composite


def test_dirichlet_prime_cap_and_gcd(monkeypatch):
    # the cap counts candidates: 16 is composite, 31 the second candidate
    monkeypatch.setattr(numtheory, "DIRICHLET_CANDIDATE_CAP", 1)
    with pytest.raises(SearchCapError, match="first 1 candidates"):
        dirichlet_prime(1, 15)
    monkeypatch.setattr(numtheory, "DIRICHLET_CANDIDATE_CAP", 2)
    assert dirichlet_prime(1, 15) == 31
    with pytest.raises(ValueError, match="gcd"):
        dirichlet_prime(3, 6)


@given(st.integers(2, 200), st.integers(1, 50))
def test_dirichlet_prime_is_least_in_progression(modulus, a):
    if gcd(a, modulus) != 1:
        return
    p = dirichlet_prime(a, modulus)  # within the default 10^4 candidates
    assert is_prime(p) and p % modulus == a % modulus
    assert not any(
        is_prime(x) for x in range(2, p) if x % modulus == a % modulus
    )


def test_primes_in_progression():
    assert primes_in_progression(7, 15, 100) == [7, 37, 67, 97]


def test_crt_examples():
    assert crt_solve([1, 2], [3, 5]) == 7
    assert crt_solve([2, 1], [3, 5]) == 11
    assert crt_solve([1, 1, 1], [3, 5, 7]) == 1
    assert crt_solve([2], [7]) == 2
    assert crt_solve([0], [4]) == 4  # normalized into {1..D}


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        crt_solve([1, 2], [4, 6])


@given(st.data())
@settings(max_examples=60)
def test_crt_satisfies_all_congruences(data):
    moduli = []
    pool = [3, 4, 5, 7, 11, 13]
    for m in pool:
        if data.draw(st.booleans()) and all(gcd(m, n) == 1 for n in moduli):
            moduli.append(m)
    if not moduli:
        moduli = [5]
    residues = [data.draw(st.integers(0, m - 1)) for m in moduli]
    x = crt_solve(residues, moduli)
    total = 1
    for m in moduli:
        total *= m
    assert 1 <= x <= total
    for r, m in zip(residues, moduli):
        assert x % m == r % m


def test_primitive_roots():
    assert least_primitive_root(7) == 3
    assert least_primitive_root(31) == 3
    assert multiplicative_order(3, 7) == 6


def test_multiplicative_order_matches_repeated_multiplication():
    for modulus in range(1, 120):
        for a in range(1, modulus + 1):
            if gcd(a, modulus) != 1:
                continue
            order, x = 1, a % modulus
            while x != 1 % modulus:
                x, order = x * a % modulus, order + 1
            assert multiplicative_order(a, modulus) == order, (a, modulus)
    assert unit_of_order(7, 2) == 6
    assert unit_of_order(7, 3) == 2
    with pytest.raises(ValueError):
        unit_of_order(7, 4)


def test_common_subset_sum_single_set():
    assert common_subset_sum([[2, 3]], 10) == (2, [[2]])


def test_common_subset_sum_not_found():
    assert common_subset_sum([[10], [3]], 9) is None
    assert common_subset_sum([[10], [3]], 100) is None  # disjoint sums never meet


def test_common_subset_sum_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        common_subset_sum([[2, 3], [3, 5]], 10)


def test_common_subset_sum_two_sets():
    result = common_subset_sum([[1, 4, 9], [2, 3]], 20)
    assert result is not None
    k, decomps = result
    assert k == 5
    assert sum(decomps[0]) == 5 and sum(decomps[1]) == 5
    assert set(decomps[0]) <= {1, 4, 9} and set(decomps[1]) <= {2, 3}


def test_common_subset_sum_for_sieved_progressions():
    s1 = primes_in_progression(7, 15, 2000)
    s2 = primes_in_progression(11, 15, 2000)
    result = common_subset_sum([s1, s2], 10**4)
    assert result is not None
    k, decomps = result
    assert k == 224
    assert all(sum(d) == 224 for d in decomps)
    assert brute_common_subset_sum([s1[:8], s2[:8]], 300) == 224


@given(st.data())
@settings(max_examples=40)
def test_common_subset_sum_matches_powerset_oracle(data):
    a = data.draw(st.sets(st.integers(1, 25), min_size=1, max_size=5))
    b_pool = st.sets(st.integers(1, 25), min_size=1, max_size=5)
    b = data.draw(b_pool.filter(lambda s: not (s & a)))
    cap = 80
    expected = brute_common_subset_sum([sorted(a), sorted(b)], cap)
    actual = common_subset_sum([sorted(a), sorted(b)], cap)
    if expected is None:
        assert actual is None
    else:
        k, decomps = actual
        assert k == expected
        for d, source in zip(decomps, [a, b]):
            assert sum(d) == k
            assert len(set(d)) == len(d)
            assert set(d) <= source
