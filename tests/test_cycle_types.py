"""Counts into symmetric and alternating groups, read from their cycle types
without enumerating them, against Frobenius's class-sum formula and against
the same count on the enumerated kernel (`target.compiled`, which is not a
permutation group, so it is counted on its own classes)."""

import math
import random
import time
import tracemalloc

import pytest

from genbound import perm
from genbound.groups import ClosureOverflowError, FiniteGroup, PermGroup
from genbound.homcount import HomCountResult, _BacktrackSearch, count_homs
from genbound.presentations import Presentation, presentation_from_words

from helpers import (
    affine_group,
    alternating_group,
    brute_count_homs,
    cyclic_perm_group,
    dihedral_group,
    frobenius_triangle_count,
    symmetric_group,
)

TRIPLES = [(a, b, c) for a in range(2, 8) for b in range(a, 8) for c in range(b, 8)]


def triangle(a: int, b: int, c: int):
    return presentation_from_words(["a", "b"], [f"a^{a}", f"b^{b}", f"(a*b)^{c}"])


@pytest.fixture
def unenumerable(monkeypatch):
    """Every enumeration of a group raises."""

    def refuse(group):
        raise AssertionError(f"{group.describe()} was enumerated")

    monkeypatch.setattr(FiniteGroup, "_generate", refuse)


@pytest.fixture
def orders_found(monkeypatch) -> list:
    """The degree of each group whose order Schreier-Sims finds."""
    found = []
    group_order = perm.group_order

    def counted(degree, generators):
        found.append(degree)
        return group_order(degree, generators)

    monkeypatch.setattr(perm, "group_order", counted)
    return found


@pytest.mark.parametrize("n", range(1, 7))
def test_count_into_sym_n_is_frobenius_formula(n, unenumerable):
    for a, b, c in TRIPLES:
        result = count_homs(triangle(a, b, c), symmetric_group(n))
        assert result.count == frobenius_triangle_count(a, b, c, n), (a, b, c)
        assert result.target_order == math.factorial(n)


@pytest.mark.parametrize("n, count", [(7, 10_081), (8, 120_961)])
def test_2_3_7_into_sym_7_and_8_is_frobenius_formula(n, count, unenumerable):
    assert frobenius_triangle_count(2, 3, 7, n) == count
    assert count_homs(triangle(2, 3, 7), symmetric_group(n)).count == count


def test_2_3_7_into_sym_9_and_10_never_enumerates(unenumerable):
    # Sym(10) has 3,628,800 elements, past the element cap; its Omega_3,
    # which b takes, has 31,041
    assert count_homs(triangle(2, 3, 7), symmetric_group(9)) == HomCountResult(1_088_641, 362_880)
    assert count_homs(triangle(2, 3, 7), symmetric_group(10)) == HomCountResult(
        6_652_801, 3_628_800
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_count_into_alt_n_matches_the_enumerated_kernel(n):
    target = alternating_group(n)
    routed = [count_homs(triangle(*t), target) for t in TRIPLES]
    assert target._elements is None
    assert routed == [count_homs(triangle(*t), target.compiled) for t in TRIPLES]
    assert {r.target_order for r in routed} == {math.factorial(n) // 2}
    if n == 7:
        assert routed[TRIPLES.index((3, 3, 4))].count == 35_631


@pytest.mark.parametrize("n", range(2, 8))
def test_count_into_sym_n_by_random_generators_matches_the_enumerated_kernel(n):
    rng = random.Random(n)
    while True:
        generators = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if perm.group_order(n, generators) == math.factorial(n):
            break
    target = PermGroup(n, generators)
    routed = [count_homs(triangle(*t), target) for t in TRIPLES]
    assert target._elements is None
    assert routed == [count_homs(triangle(*t), target.compiled) for t in TRIPLES]


def test_an_omega_past_the_element_cap_overflows_before_it_is_built(unenumerable):
    # an unbounded generator takes all of Sym(10), known from its order
    # before any element or cycle type is built
    for rank in [2, 1]:
        free = presentation_from_words(["a", "b"][:rank], [])
        tracemalloc.start()
        try:
            with pytest.raises(ClosureOverflowError):
                count_homs(free, symmetric_group(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_an_unbounded_generator_into_a_small_target_of_large_degree_is_at_once():
    # the 60-cycle has 966,467 cycle types of degree 60 but only 60 elements:
    # its order is read before any cycle type is listed
    target = cyclic_perm_group(60)
    free = presentation_from_words(["a"], [])
    abelian = presentation_from_words(["a", "b"], ["a*b*a^-1*b^-1"])
    start = time.perf_counter()
    assert count_homs(free, target) == HomCountResult(60, 60)
    assert count_homs(abelian, target) == HomCountResult(3600, 60)
    assert time.perf_counter() - start < 0.5


def test_schreier_sims_runs_only_when_the_route_could_serve_the_count(orders_found):
    # Omega_3 of Sym(13) has 4,874,013 elements, more than the cap, so a
    # degree-13 target is enumerated as before, and its order never computed
    target = dihedral_group(13)
    assert count_homs(triangle(2, 3, 7), target) == count_homs(triangle(2, 3, 7), target.compiled)
    assert orders_found == []
    # Omega_3 of Sym(12) has 776,601; a target that is neither Sym(n) nor
    # Alt(n) is enumerated once its order is known
    for target in [dihedral_group(12), affine_group(7, 3), dihedral_group(8)]:
        counted = count_homs(triangle(2, 3, 4), target)
        assert target._elements is not None
        assert counted == count_homs(triangle(2, 3, 4), target.compiled)
    assert orders_found == [12, 7, 8]


# b, the deepest generator into each target below, in roots that hold it two
# or more times with exponents +-1 and +-2, in one whose cyclic reduction
# loses it (a^2 must be e, whatever b is: one test for all of b's
# candidates), and in one that reduces to () with nothing left to test
A, B = 0, 1
CLASS_SOURCE_CASES = {
    "b-thrice": presentation_from_words(["a", "b"], ["a^2", "b^4", "a*b*a*b^-1*a*b^2"]),
    "b-squared-both-ways": presentation_from_words(
        ["a", "b"], ["a^3", "a*b^-2*a^-1*b^2*a*b*a*b^-1"]
    ),
    "root-loses-b": presentation_from_words(["a", "b"], ["a^6", "b^2*a^2*b^-2"]),
    "root-reduces-away": Presentation(
        ("a", "b"), (((A, 2),), ((B, 4),), ((A, -3), (A, 3), (B, -2), (B, 2)))
    ),
}


@pytest.mark.parametrize("pres", CLASS_SOURCE_CASES.values(), ids=CLASS_SOURCE_CASES.keys())
@pytest.mark.parametrize(
    "target", [lambda: symmetric_group(5), lambda: symmetric_group(6), lambda: alternating_group(6)],
    ids=["sym5", "sym6", "alt6"],
)
def test_cycle_type_count_matches_the_kernel_classes_and_brute_force(pres, target):
    by_cycle_type = count_homs(pres, fresh := target())
    assert fresh._elements is None  # read from cycle types, never enumerated
    search = _BacktrackSearch(pres, target(), 10**6)
    assert search.order[-1] == B
    assert by_cycle_type.count == search.run(None)
    brute = brute_count_homs(pres, target())
    assert brute in (by_cycle_type.count, None)
