"""Desk-scale number theory: trial-division primality, primes in arithmetic
progressions, CRT, primitive roots, common subset sums with decomposition
recovery, and the finite fields F_p[x]/(f) with f found by Rabin's test.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Sequence


class SearchCapError(RuntimeError):
    """A bounded numeric search hit its cap without an answer."""


# a prime or order read from input must lie below this before `is_prime` or
# `factorize` runs on it: trial division then takes at most 2^16 steps
INPUT_INTEGER_BOUND = 2**32


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def largest_prime_factor(n: int) -> int:
    factors = factorize(n)
    if not factors:
        raise ValueError("1 has no prime factors")
    return factors[-1][0]


def first_odd_primes(n: int, product_bound: int | None = None) -> list[int]:
    """The first n odd primes, ended early by the first one that takes
    their product past `product_bound`."""
    out, product = [], 1
    candidate = 3
    while len(out) < n and (product_bound is None or product <= product_bound):
        if is_prime(candidate):
            out.append(candidate)
            product *= candidate
        candidate += 2
    return out


def multiplicative_order(a: int, modulus: int) -> int:
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    # the order divides phi(modulus): drop each prime while the power stays 1
    order = prod((q - 1) * q ** (e - 1) for q, e in factorize(modulus))
    for q, _ in factorize(order):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def least_primitive_root(p: int) -> int:
    """Smallest generator of the unit group mod a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    prime_divisors = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divisors):
            return g
    raise AssertionError("no primitive root found (unreachable for prime p)")


def unit_of_order(p: int, order: int) -> int:
    """A unit of exact multiplicative order `order` mod prime p,
    chosen as g^((p-1)/order) for the least primitive root g."""
    if (p - 1) % order:
        raise ValueError(f"no unit of order {order} mod {p}")
    g = least_primitive_root(p)
    u = pow(g, (p - 1) // order, p)
    assert multiplicative_order(u, p) == order
    return u


# candidates a + j*modulus that `dirichlet_prime` tests before giving up
DIRICHLET_CANDIDATE_CAP = 10**4


def dirichlet_prime(a: int, modulus: int) -> int:
    """Least prime congruent to a mod modulus among the first
    DIRICHLET_CANDIDATE_CAP candidates of the progression."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, modulus) != 1:
        raise ValueError(f"gcd({a}, {modulus}) != 1: progression holds no primes")
    cap = DIRICHLET_CANDIDATE_CAP
    x = a % modulus
    while x < 2:
        x += modulus
    for _ in range(cap):
        if is_prime(x):
            return x
        x += modulus
    raise SearchCapError(
        f"no prime = {a} (mod {modulus}) among the first {cap} candidates"
    )


def primes_in_progression(residue: int, modulus: int, bound: int) -> list[int]:
    """All primes p <= bound with p = residue (mod modulus), read off the
    progression itself."""
    return [p for p in range(residue % modulus, bound + 1, modulus) if is_prime(p)]


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Unique solution of the congruence system in {1, ..., prod(moduli)}."""
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli differ in length")
    if not moduli:
        raise ValueError("empty congruence system")
    for i, a in enumerate(moduli):
        if a < 1:
            raise ValueError("moduli must be positive")
        for b in moduli[i + 1 :]:
            if gcd(a, b) != 1:
                raise ValueError(f"moduli {a} and {b} are not coprime")
    total = prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        partial = total // m
        x += r * partial * pow(partial, -1, m)
    x %= total
    if x == 0:
        x = total
    for r, m in zip(residues, moduli):
        assert x % m == r % m
    return x


def _reachable_sums(values: Sequence[int], cap: int) -> list[int]:
    """Prefix bitmasks of sums of distinct elements, bounded by cap.

    prefix[i] has bit s set iff s is a sum of distinct elements among the
    first i values; bit 0 (the empty sum) is always set.
    """
    mask = (1 << (cap + 1)) - 1
    bits = 1
    prefixes = [bits]
    for v in values:
        bits = (bits | (bits << v)) & mask
        prefixes.append(bits)
    return prefixes


def _recover_decomposition(values: Sequence[int], prefixes: Sequence[int], s: int) -> list[int]:
    used = []
    for i in range(len(values), 0, -1):
        if (prefixes[i - 1] >> s) & 1:
            continue
        used.append(values[i - 1])
        s -= values[i - 1]
    assert s == 0
    return sorted(used)


def common_subset_sum(
    sets: Sequence[Sequence[int]], cap: int
) -> tuple[int, list[list[int]]] | None:
    """Least positive k that is a sum of distinct elements of every set.

    Sets must be pairwise disjoint sets of positive integers. Returns
    (k, one decomposition per set), or None if no such k <= cap exists
    (cap exhaustion is an outcome, not an error). Dynamic programming over
    achievable sums, with deterministic decomposition recovery.
    """
    if not sets:
        raise ValueError("need at least one set")
    ordered = [sorted(set(s)) for s in sets]
    for values in ordered:
        if any(v < 1 for v in values):
            raise ValueError("set elements must be positive")
    for i, a in enumerate(ordered):
        sa = set(a)
        for b in ordered[i + 1 :]:
            overlap = sa & set(b)
            if overlap:
                raise ValueError(f"sets are not disjoint: share {sorted(overlap)}")
    all_prefixes = [_reachable_sums(values, cap) for values in ordered]
    common = all_prefixes[0][-1]
    for prefixes in all_prefixes[1:]:
        common &= prefixes[-1]
    common &= ~1  # empty sum does not count
    if common == 0:
        return None
    k = (common & -common).bit_length() - 1
    decomps = [
        _recover_decomposition(values, prefixes, k)
        for values, prefixes in zip(ordered, all_prefixes)
    ]
    return k, decomps


# -- F_p[x]/(f): polynomials as coefficient lists, constant term first -------


def _digits(t: int, p: int, n: int) -> list[int]:
    return [t // p**i % p for i in range(n)]


def poly_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a*b modulo the monic f of degree n, as n coefficients."""
    n = len(f) - 1
    out = [0] * (len(a) + len(b) + n)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        if c := out[k] % p:
            for j in range(n):
                out[k - n + j] -= c * f[j]
    return [x % p for x in out[:n]]


def _poly_powmod(a: list[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = _digits(1, p, len(f) - 1)
    for bit in bin(e)[2:]:
        result = poly_mulmod(result, result, f, p)
        if bit == "1":
            result = poly_mulmod(result, a, f, p)
    return result


def _poly_gcd_degree(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p by Euclid's algorithm (b nonzero)."""
    a, b = list(a), list(b)
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a := a mod b, one top coefficient a round
            c = a.pop() * inv % p
            for j, y in enumerate(b[:-1], len(a) - len(b) + 1):
                a[j] = (a[j] - c * y) % p
        a, b = b, a
    return len(a) - 1


def is_irreducible_poly(f: Sequence[int], p: int) -> bool:
    """Rabin's test (Probabilistic algorithms in finite fields, 1980): the
    monic f of degree n >= 1 is irreducible over F_p iff x^(p^n) = x mod f
    and gcd(x^(p^(n/q)) - x, f) = 1 for every prime q | n. The gcd is taken
    at every k <= n/2, covering each n/q, so a factor of small degree d
    (which divides x^(p^d) - x) rejects f after d steps."""
    n = len(f) - 1
    x = y = poly_mulmod([0, 1], [1], f, p)
    for k in range(1, n + 1):
        y = _poly_powmod(y, p, f, p)  # x^(p^k) mod f
        if 2 * k <= n and _poly_gcd_degree([(a - b) % p for a, b in zip(y, x)], f, p):
            return False
    return y == x


def irreducible_polynomial(p: int, n: int) -> list[int]:
    """The first monic degree-n polynomial over F_p that passes Rabin's
    test, its lower coefficients the base-p digits of 0, 1, 2, ..."""
    return next(f for t in range(p**n) if is_irreducible_poly(f := _digits(t, p, n) + [1], p))


def root_of_unity(f: Sequence[int], p: int, e: int) -> list[int]:
    """The first zeta = gamma^((p^n - 1)/e) of exact order e in the field
    F_p[x]/(f), f irreducible of degree n, for gamma the base-p digits of
    1, 2, ...: zeta^e = 1 holds in the field, and zeta^(e/q) != 1 is
    checked for each prime q | e."""
    n, size = len(f) - 1, p ** (len(f) - 1)
    if (size - 1) % e:
        raise ValueError(f"{e} does not divide {p}^{n} - 1")
    one, prime_divisors = _digits(1, p, n), [q for q, _ in factorize(e)]
    for t in range(1, size):
        zeta = _poly_powmod(_digits(t, p, n), (size - 1) // e, f, p)
        if all(_poly_powmod(zeta, e // q, f, p) != one for q in prime_divisors):
            return zeta
    raise AssertionError("the unit group of a finite field is cyclic")
