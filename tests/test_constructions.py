import itertools

import pytest

import genbound.modules
from genbound import constructions
from genbound.bounds import certify_formula, check_certificate
from genbound.constructions import (
    ConstructionError,
    VerificationFailure,
    _block_centralizer_order,
    _block_commutator,
    abelianization_split,
    coprime_family,
    family_to_doc,
    metabelian_target,
    min_m_for_conclusion,
    reduce_cyclic_orders,
    semidirect_target,
    simple_modules,
)
from genbound.groups import GeneratedGroup, PermGroup
from genbound.homcount import count_homs
from genbound.modules import ModuleAction
from genbound.numtheory import is_prime, unit_of_order
from genbound.perm import perm_order
from genbound.presentations import cyclic_presentation, presentation_from_words
from genbound.subgroups import d_min_generators, derived_subgroup, orbits

from helpers import (
    alternating_group_5,
    centralizer_order_transitive,
    cyclic_perm_group,
    klein_group,
)


def dim1_module(p, order):
    return ModuleAction(p, 1, (((unit_of_order(p, order),),),), cyclic_presentation(order))


# -- semidirect power targets ---------------------------------------------------


def test_single_factor_order_six_target():
    target, contribs = semidirect_target([dim1_module(3, 2)], 1)
    assert target.order == 6  # isomorphic to Sym(3)
    assert (target.p, target.l, target.m, target.r) == (3, 1, 1, 2)
    count = count_homs(cyclic_presentation(2), target.group).count
    assert count == 4  # explicit h = log4/log6 beats the formula log3/log6
    assert count >= 3 ** (1 * 1)


def test_shared_prime_required():
    with pytest.raises(ValueError, match="share"):
        semidirect_target([dim1_module(3, 2), dim1_module(7, 3)], 1)


def test_order_294_instance_counts_beat_the_formula():
    modules = [dim1_module(7, 2), dim1_module(7, 3)]
    target, contribs = semidirect_target(modules, 2)
    assert target.order == 294
    assert (target.p, target.l, target.m, target.r) == (7, 1, 2, 6)
    for pres in [cyclic_presentation(2), cyclic_presentation(3)]:
        count = count_homs(pres, target.group).count
        assert count >= 7**2  # conjugate-count lower bound p^(lm)
    assert all(c.p == 7 and c.l == 1 and c.m == 2 and c.r == 6 for c in contribs)


def test_formula_never_exceeds_true_h_small_targets():
    cases = [
        ([dim1_module(3, 2)], 1, [cyclic_presentation(2)]),
        ([dim1_module(7, 2), dim1_module(7, 3)], 1, [cyclic_presentation(2), cyclic_presentation(3)]),
        ([dim1_module(5, 2), dim1_module(5, 4)], 2, [cyclic_presentation(2), cyclic_presentation(4)]),
    ]
    for modules, m, sources in cases:
        target, contribs = semidirect_target(modules, m)
        assert target.order <= 5000
        for pres, contrib in zip(sources, contribs):
            explicit = count_homs(pres, target.group)
            assert explicit.count >= target.p ** (target.l * target.m)
            assert explicit.h >= contrib.h - 1e-12


def _affine_perm_group(target) -> PermGroup:
    """V^m : R as permutations of the vectors of F_p^(lm), in
    `itertools.product` order: the lm unit translations, then each
    generator of R acting on every copy of V = F_p^l."""
    p, l, m = target.p, target.l, target.m
    vectors = list(itertools.product(range(p), repeat=l * m))
    index = {v: i for i, v in enumerate(vectors)}
    maps = [
        lambda v, i=i: v[:i] + ((v[i] + 1) % p,) + v[i + 1 :] for i in range(l * m)
    ] + [
        lambda v, g=g: tuple(
            sum(g[row][col] * v[b * l + col] for col in range(l)) % p
            for b in range(m)
            for row in range(l)
        )
        for g in target.point_group.generators
    ]
    return PermGroup(len(vectors), [[index[f(v)] for v in vectors] for f in maps])


def test_target_group_matches_its_affine_maps_on_the_vectors():
    s3 = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^2"], "S3")
    modules, _, _, failed = simple_modules([s3, cyclic_presentation(3)], 2)
    assert failed == []
    targets = [
        metabelian_target([2, 3], m=1).target,
        metabelian_target([3, 5], m=1).target,
        semidirect_target([dim1_module(7, 2), dim1_module(7, 3)], 2)[0],  # order 294
        semidirect_target(modules)[0],  # l = 2, m = 2
    ]
    assert [t.order for t in targets] == [42, 465, 294, 96]
    for target in targets:
        oracle = _affine_perm_group(target)
        assert target.group.order == oracle.order == target.order
        for pres in [cyclic_presentation(2), cyclic_presentation(3)]:
            assert count_homs(pres, target.group).count == count_homs(pres, oracle).count


def test_module_with_fixed_vector_rejected():
    # the C2-action fixing a coordinate: reducible, rejected before embedding
    bad = ModuleAction(3, 2, (((2, 0), (0, 1)),), cyclic_presentation(2))
    with pytest.raises(ValueError, match="irreducible"):
        semidirect_target([bad], 1)


def test_default_m_certifies_one_per_module_plus_the_residual_rank():
    modules = [dim1_module(7, 2), dim1_module(7, 3)]
    target, contribs = semidirect_target(modules)
    assert (target.m, [c.weight for c in contribs]) == (1, [1, 1])  # 7 > 6
    target, contribs = semidirect_target(modules, residual_rank=1)
    assert (target.m, [c.weight for c in contribs]) == (2, [1, 1, 1])  # 7^2 > 6^2
    assert certify_formula(["C2", "C3", "C7"], target.describe(), contribs).conclusion == 3


def test_target_without_modules_needs_the_prime():
    target, contribs = semidirect_target([], p=2, residual_rank=3)
    assert (target.p, target.l, target.m, target.r, target.order) == (2, 1, 1, 1, 2)
    assert [(c.r, c.weight) for c in contribs] == [(1, 3)]
    with pytest.raises(ValueError, match="prime"):
        semidirect_target([])
    with pytest.raises(ValueError, match="share"):
        semidirect_target([dim1_module(3, 2)], p=7)


def test_split_builds_r_once(r_builds):
    split = abelianization_split([klein_group(), cyclic_perm_group(3)])
    assert split.t == 1 and split.m == 2
    assert len(r_builds) == 1


def test_min_m_for_conclusion():
    assert min_m_for_conclusion(2, 7, 1, 6) == 1
    assert min_m_for_conclusion(3, 3, 1, 2) == 2
    assert min_m_for_conclusion(5, 2, 1, 1) == 1  # r = 1
    assert min_m_for_conclusion(3, 2, 2, 3) == 2  # 2^(2m) > 9 needs m = 2


# -- metabelian targets -----------------------------------------------------------


def test_metabelian_target_2_3():
    result = metabelian_target([2, 3], m=1)
    assert result.p == 7
    assert result.target.order == 42
    assert result.target.r == 6
    assert result.certificate.conclusion == 2
    assert (result.certificate.comparison.lhs, result.certificate.comparison.rhs) == (7, 6)
    assert result.metabelian is True
    check_certificate(result.certificate)


def test_metabelian_target_3_5_uses_dirichlet_31():
    result = metabelian_target([3, 5], m=1)
    assert result.p == 31
    assert result.target.order == 31 * 15
    assert result.certificate.conclusion == 2
    assert result.metabelian is True


def test_metabelian_target_single_prime():
    result = metabelian_target([2])
    assert result.p == 3
    assert result.target.order == 6
    assert result.certificate.conclusion == 1


@pytest.mark.parametrize("primes,m", [([2, 3], 1), ([2, 3], 2), ([3, 5], 1), ([2, 3, 5], 1)])
def test_metabelian_flag_verified_for_small_orders(primes, m):
    result = metabelian_target(primes, m=m)
    assert result.target.order <= 5000
    assert result.metabelian is True


def test_metabelian_default_m_reaches_full_conclusion():
    result = metabelian_target([2, 3, 5])
    assert result.certificate.conclusion == 3


def test_metabelian_rejects_duplicates_and_composites():
    with pytest.raises(ValueError, match="distinct"):
        metabelian_target([2, 2])
    with pytest.raises(ValueError, match="not prime"):
        metabelian_target([4])


def test_reduce_cyclic_orders():
    assert reduce_cyclic_orders([4, 9, 5]) == [2, 3, 5]
    assert reduce_cyclic_orders([12, 35]) == [3, 7]
    with pytest.raises(ValueError, match="distinct"):
        reduce_cyclic_orders([6, 3])  # both reduce to 3


def test_metabelian_witness_quotient_is_metabelian():
    # the image of the free product inside powers of a metabelian target
    # is metabelian again; check on the smallest instance
    from genbound.homcount import witness_quotient

    result = metabelian_target([2, 3], m=1)
    w = witness_quotient(
        [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")],
        result.target.group,
        width_cap=512,
        dedup_kernels=True,
    )
    first = derived_subgroup(w.group)
    second = derived_subgroup(GeneratedGroup(first.parent, first.generators))
    assert second.order == 1
    assert d_min_generators(w.group).value >= result.certificate.conclusion


# -- abelianization split ----------------------------------------------------------


def test_split_klein_and_c3():
    split = abelianization_split([klein_group(), cyclic_perm_group(3)], ["C2xC2", "C3"])
    assert split.s_prime == 2
    assert split.p == 2
    assert split.t == 1
    assert split.residual_rank == 2
    assert split.m == 2
    assert split.reduced_names[-1] == "C2^2"
    assert split.certificate.conclusion == 3  # s' + n - 1
    assert (split.certificate.comparison.lhs, split.certificate.comparison.rhs) == (16, 9)
    check_certificate(split.certificate)


def test_split_prime_cyclic_factors_concludes_n():
    split = abelianization_split([cyclic_perm_group(2), cyclic_perm_group(3)])
    assert split.s_prime == 1
    assert split.certificate.conclusion == 2
    check_certificate(split.certificate)


def test_split_with_perfect_factor_computes_s_prime(monkeypatch):
    # the GL cap admits GL(2, 2) and GL(3, 2), of orders 6 and 168, and
    # not GL(4, 2), where Alt(5)'s first nontrivial module over F_2 lies
    monkeypatch.setattr(genbound.modules, "DEFAULT_GL_ORDER_CAP", 200)
    split = abelianization_split([alternating_group_5(), cyclic_perm_group(2)])
    assert split.s_prime == 1  # Alt(5) abelianization is trivial, d = 0
    assert split.p == 2
    # Alt(5) is in the p-avoiding part but has no small module over F_2:
    # the bounded search is inconclusive, so the result is conditional
    assert split.conditional
    assert split.certificate is None
    assert split.missing
    assert split.s_prime + split.n - 1 == 2  # the bound a completed search would certify


def test_split_all_perfect_rejected():
    with pytest.raises(ValueError, match="trivial"):
        abelianization_split([alternating_group_5()])


def test_split_all_factors_divisible_by_p():
    # both abelianizations are 2-groups: t = 0, the target collapses to an
    # elementary abelian power and the conclusion is still s' + n - 1
    split = abelianization_split([klein_group(), cyclic_perm_group(2)])
    assert split.t == 0
    assert split.p == 2
    assert split.residual_rank == 3  # 2 + 2 - 0 - 1
    assert split.certificate.conclusion == 3
    check_certificate(split.certificate)


# -- block affine family groups ------------------------------------------------------


def _block(q: int, u: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """x -> x + 1 and x -> u x on F_q, as permutations of 0..q-1."""
    return tuple((x + 1) % q for x in range(q)), tuple(u * x % q for x in range(q))


def test_block_commutator_is_the_translation_by_u_inverse_minus_one():
    cases = 0
    for q in filter(is_prime, range(2, 62)):
        for u in range(1, q):
            w = (pow(u, -1, q) - 1) % q
            assert _block_commutator(*_block(q, u)) == tuple((x + w) % q for x in range(q))
            cases += 1
    assert cases == 483


def test_block_affine_element_orders():
    # blocks F_7 (u = 2) and F_13 (u = 3) of a p = 3 factor, on 20 points
    (t7, m7), (t13, m13) = _block(7, 2), _block(13, 3)
    v = t7 + tuple(7 + x for x in t13)
    u = m7 + tuple(7 + x for x in m13)
    assert perm_order(v) == 91
    assert perm_order(u) == 3
    assert PermGroup(20, [v, u]).order == 3 * 91
    for q, c in [(7, _block_commutator(t7, m7)), (13, _block_commutator(t13, m13))]:
        assert c[0] != 0 and perm_order(c) == q


def test_block_affine_rejects_wrong_multiplier_order(monkeypatch):
    import genbound.constructions as constructions

    monkeypatch.setattr(constructions, "unit_of_order", lambda q, order: q - 1)  # order 2
    with pytest.raises(VerificationFailure) as failure:
        coprime_family(1)
    assert failure.value.claim == "multiplier-order[0]"


# -- coprime family ------------------------------------------------------------------


def test_family_n1_with_exhaustive_cross_check():
    fam = coprime_family(1)
    assert fam.primes == (3,)
    assert fam.k == 7
    assert fam.decompositions == ((7,),)
    assert fam.orders == (21,)
    assert fam.certificate.conclusion == 2
    assert all(fam.flags.values())
    assert fam.cross_checked  # order 21: fully enumerated and re-verified
    check_certificate(fam.certificate)


def test_family_n1_group_structure():
    fam = coprime_family(1)
    g = fam.groups[0]
    assert g.degree == 7
    assert g.order == 21
    assert orbits(g) == [[0, 1, 2, 3, 4, 5, 6]]
    assert derived_subgroup(g).order == 7
    assert d_min_generators(g).value == 2


def test_block_centralizer_order_matches_the_stabilizer_oracle():
    # every block <x+1, ux> on F_q for q <= 61 prime, u = 1 (C_q, its own
    # centralizer) included
    cases = 0
    for q in filter(is_prime, range(62)):
        translate = tuple((x + 1) % q for x in range(q))
        for u in range(1, q):
            multiply = tuple((u * x) % q for x in range(q))
            expected = centralizer_order_transitive(PermGroup(q, [translate, multiply]))
            assert _block_centralizer_order(multiply) == expected
            assert expected == (q if u == 1 else 1)
            cases += 1
    assert cases == 483


def test_family_n2_reproduces_the_frozen_k():
    fam = coprime_family(2)
    assert fam.k == 224
    assert fam.primes == (3, 5)
    assert fam.residues == (7, 11)
    assert sorted(map(sum, fam.decompositions)) == [224, 224]
    assert all(all(fam.flags.values()) for _ in [0])
    assert fam.certificate.conclusion == 3
    assert fam.certificate.proof_kind == "symbolic-strict"


def test_family_is_deterministic():
    one = coprime_family(2)
    two = coprime_family(2)
    assert one.decompositions == two.decompositions
    assert one.multipliers == two.multipliers
    assert family_to_doc(one) == family_to_doc(two)


def test_family_stops_at_the_sieve_ceiling(monkeypatch):
    # n = 3 first finds a common sum at B = 64,000; a ceiling of 2^15 stops
    # the doubling after B = 32,000
    monkeypatch.setattr(constructions, "FAMILY_SIEVE_CEILING", 2**15)
    with pytest.raises(
        ConstructionError, match="no common subset sum up to 160000 of the primes up to 32000"
    ):
        coprime_family(3)


def test_family_rejects_n_whose_primes_multiply_past_the_ceiling():
    # 3 * 5 * 7 * 11 * 13 * 17 = 255,255 > 2^17: no residue is computed
    with pytest.raises(ConstructionError, match="the first 6 odd primes multiply to 255255"):
        coprime_family(10**6)


def test_verification_failure_names_the_claim():
    try:
        raise VerificationFailure("derived-subgroup-is-translations[0]")
    except VerificationFailure as exc:
        assert exc.claim == "derived-subgroup-is-translations[0]"
        assert "derived-subgroup" in str(exc)
