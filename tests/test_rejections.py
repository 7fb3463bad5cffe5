"""Each input rejection of the library, by the exception type and message it
raises: one row a `raise`, each called with the least input that reaches it."""

import re

import pytest

from genbound.bounds import lower_bound_explicit
from genbound.cli import JobError, _parse_primes
from genbound.constructions import (
    abelianization_split,
    coprime_family,
    metabelian_target,
    min_m_for_conclusion,
    semidirect_target,
)
from genbound.groups import CayleyGroup, MatrixGroup, PermGroup, ProductGroup
from genbound.homcount import HomCountResult
from genbound.linalg import normalize_matrix
from genbound.modules import SPACE_CAP, ModuleAction, is_irreducible
from genbound.numtheory import (
    common_subset_sum,
    crt_solve,
    dirichlet_prime,
    factorize,
    largest_prime_factor,
    least_primitive_root,
    multiplicative_order,
)
from genbound.presentations import (
    Presentation,
    cyclic_presentation,
    free_product,
    parse_word,
)
from genbound.subgroups import SubgroupHandle, derived_subgroup, quotient_group

from helpers import symmetric_group

S3 = symmetric_group(3)
C2 = cyclic_presentation(2)
F1 = Presentation(("a",), ())


def _swap(dim: int) -> list:
    """The permutation matrix of dim x dim swapping the first two coordinates."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows[0], rows[1] = rows[1], rows[0]
    return rows


def _s3_ints(*perms) -> list:
    return [S3.element_index(x) for x in perms]


REJECTIONS = {
    # presentations
    "cyclic-order-0": (lambda: cyclic_presentation(0), ValueError, "order must be >= 1"),
    "free-product-empty": (lambda: free_product([]), ValueError, "need at least one factor"),
    "word-no-exponent": (
        lambda: parse_word("a^", ("a",)), ValueError, "missing exponent in word 'a^'"
    ),
    "word-dangling-product": (
        lambda: parse_word("a*", ("a",)), ValueError, "unexpected end of word 'a*'"
    ),
    "word-unopened-parenthesis": (
        lambda: parse_word("a)", ("a",)), ValueError, "trailing tokens in word 'a)'"
    ),
    # number theory
    "factorize-0": (lambda: factorize(0), ValueError, "factorize needs a positive integer"),
    "largest-prime-factor-1": (
        lambda: largest_prime_factor(1), ValueError, "1 has no prime factors"
    ),
    "order-of-a-non-unit": (
        lambda: multiplicative_order(2, 4), ValueError, "2 is not a unit mod 4"
    ),
    "primitive-root-mod-4": (lambda: least_primitive_root(4), ValueError, "4 is not prime"),
    "dirichlet-modulus-0": (lambda: dirichlet_prime(1, 0), ValueError, "modulus must be positive"),
    "crt-lengths": (
        lambda: crt_solve([1], [2, 3]), ValueError, "residues and moduli differ in length"
    ),
    "crt-empty": (lambda: crt_solve([], []), ValueError, "empty congruence system"),
    "crt-modulus-0": (lambda: crt_solve([1], [0]), ValueError, "moduli must be positive"),
    "subset-sum-no-sets": (
        lambda: common_subset_sum([], 10), ValueError, "need at least one set"
    ),
    "subset-sum-holds-0": (
        lambda: common_subset_sum([[0, 1]], 10), ValueError, "set elements must be positive"
    ),
    # groups
    "perm-degree-mismatch": (
        lambda: PermGroup(3, [(1, 0)]), ValueError, "generator degree 2 != 3"
    ),
    "table-not-square": (
        lambda: CayleyGroup([[0, 1]]), ValueError, "multiplication table is not square"
    ),
    "table-out-of-range": (
        lambda: CayleyGroup([[0, 2], [1, 0]]), ValueError, "table entry out of range"
    ),
    "table-not-bijective": (
        lambda: CayleyGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]]),
        ValueError,
        "row/column of 1 is not a bijection",
    ),
    "matrix-dimension-mismatch": (
        lambda: MatrixGroup(2, 2, [[[1]]]), ValueError, "generator dimension 1 != 2"
    ),
    "product-of-none": (lambda: ProductGroup([]), ValueError, "need at least one factor"),
    # constructions
    "semidirect-m-0": (
        lambda: semidirect_target([], m=0, p=2), ValueError, "m must be >= 1"
    ),
    "min-m-n-0": (
        lambda: min_m_for_conclusion(0, 2, 1, 1), ValueError, "need n, l >= 1, p >= 2, r >= 1"
    ),
    "metabelian-no-primes": (
        lambda: metabelian_target([]), ValueError, "need at least one prime"
    ),
    "split-no-factors": (
        lambda: abelianization_split([]), ValueError, "need at least one factor"
    ),
    "coprime-family-0": (lambda: coprime_family(0), ValueError, "n must be >= 1"),
    # modules
    "module-over-4": (
        lambda: ModuleAction(4, 1, ([[1]],), C2), ValueError, "4 is not prime"
    ),
    "module-matrix-count": (
        lambda: ModuleAction(2, 1, (), C2), ValueError, "one matrix per source generator required"
    ),
    "irreducible-past-space-cap": (
        lambda: is_irreducible(ModuleAction(2, 17, (_swap(17),), F1)),
        ValueError,
        f"space size 2^17 exceeds cap {SPACE_CAP}",
    ),
    # subgroups
    "handle-without-identity": (
        lambda: SubgroupHandle(S3, _s3_ints((1, 0, 2))),
        ValueError,
        "subgroup does not contain the identity",
    ),
    "handle-index-out-of-range": (
        lambda: SubgroupHandle(S3, [S3.compiled.identity, 6]),
        ValueError,
        "subgroup index outside 0..5",
    ),
    "handle-not-closed": (
        lambda: SubgroupHandle(S3, _s3_ints((0, 1, 2), (1, 0, 2), (0, 2, 1))),
        ValueError,
        "subgroup is not closed under products",
    ),
    "quotient-by-a-foreign-handle": (
        lambda: quotient_group(S3, derived_subgroup(symmetric_group(3))),
        ValueError,
        "subgroup does not belong to this group",
    ),
    # bounds and the command line
    "bound-no-factors": (
        lambda: lower_bound_explicit([], S3), ValueError, "need at least one factor"
    ),
    "hom-count-target-order-0": (
        lambda: HomCountResult(1, 0), ValueError, "target order must be >= 1"
    ),
    "matrix-not-square": (
        lambda: normalize_matrix([[1, 0]], 2), ValueError, "matrix is not square"
    ),
    "primes-not-integers": (
        lambda: _parse_primes("2,x"),
        JobError,
        "bad --primes value '2,x': invalid literal for int() with base 10: 'x'",
    ),
}


@pytest.mark.parametrize("call, kind, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_each_rejection_raises_its_type_and_message(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()
