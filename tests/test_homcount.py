import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genbound import groups, homcount
from genbound.groups import (
    ClosureOverflowError,
    GeneratedGroup,
    PermGroup,
    ProductGroup,
)
from genbound.homcount import (
    HomCountResult,
    HomSearchBudgetError,
    WitnessWidthError,
    _BacktrackSearch,
    count_homs,
    enumerate_homs,
    evaluate_word,
    group_presentation,
    witness_quotient,
)
from genbound.modules import general_linear_group
from genbound.presentations import (
    Presentation,
    cyclic_presentation,
    free_product,
    presentation_from_words,
)
from genbound.subgroups import d_min_generators, largest_normal_p_subgroup

from helpers import (
    affine_group,
    alternating_group_5,
    brute_homs_group,
    count_homs_group,
    cyclic_group,
    cyclic_perm_group,
    dihedral_group,
    free_presentation,
    kernels_equal,
    klein_group,
    oracle_power_count,
    power_target_count,
    quaternion_group,
    symmetric_group,
)


def a5_presentation():
    return presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^5"], name="A5")


# -- basic counts -------------------------------------------------------------


def test_trivial_source_has_one_hom():
    c1 = cyclic_presentation(1)
    for target in [symmetric_group(4), cyclic_group(7)]:
        result = count_homs(c1, target)
        assert result.count == 1
        assert result.h == 0.0


def test_count_into_trivial_target():
    result = count_homs(cyclic_presentation(6), cyclic_group(1))
    assert result.count == 1 and result.h == 0.0


def test_free_group_count_is_order_power():
    s3 = symmetric_group(3)
    for d in (1, 2):
        result = count_homs(free_presentation(d), s3)
        assert result.count == s3.order**d  # exact pair, so h is exactly d


def test_cyclic_counts_against_element_scan_oracle():
    s4 = symmetric_group(4)
    for m in range(1, 13):
        pres_count = count_homs(cyclic_presentation(m), s4).count
        assert pres_count == oracle_power_count(s4, m)


@pytest.mark.parametrize(
    "target",
    [symmetric_group(4), affine_group(7, 3), general_linear_group(3, 2)],
    ids=["sym4", "agl-1-7", "gl-2-3"],
)
def test_one_generator_searches_read_the_classes_and_power_nothing(target, monkeypatch):
    sources = {m: cyclic_presentation(m) for m in range(1, 13)}
    sources[0] = presentation_from_words(("a",), ())  # <a | >, every element
    expected = {
        m: [(x,) for x in target.elements if target.power(x, m) == target.identity]
        for m in sources
    }
    oracle = {m: oracle_power_count(target, m) for m in sources}
    powered = 0
    power = groups.FiniteGroup.power

    def counted(self, a, n):
        nonlocal powered
        powered += 1
        return power(self, a, n)

    monkeypatch.setattr(groups.FiniteGroup, "power", counted)
    for m, source in sources.items():
        assert count_homs(source, target).count == len(expected[m]) == oracle[m], m
        assert enumerate_homs(source, target) == expected[m], m  # in element order
    assert powered == 0


def test_known_counts():
    s4 = symmetric_group(4)
    assert count_homs(cyclic_presentation(2), s4).count == 10
    assert count_homs(cyclic_presentation(3), s4).count == 9
    s3 = symmetric_group(3)
    assert count_homs(cyclic_presentation(2), s3).count == 4


def test_a5_self_hom_count():
    result = count_homs(a5_presentation(), alternating_group_5())
    assert result.count == 121
    assert abs(result.h - math.log(121) / math.log(60)) < 1e-15


def test_count_is_deterministic():
    s4 = symmetric_group(4)
    pres = free_product([cyclic_presentation(2, "a"), cyclic_presentation(3, "b")])
    homs1 = enumerate_homs(pres, s4)
    homs2 = enumerate_homs(pres, s4)
    assert homs1 == homs2
    assert len(homs1) == 90


def test_budget_exceeded_is_an_error_not_partial():
    with pytest.raises(HomSearchBudgetError):
        count_homs(free_presentation(3), symmetric_group(4), node_budget=100)


def test_budget_error_reports_nodes_and_depth():
    # the 5 class representatives of the first generator each try all 24
    # images of the second, 125 nodes in all: under a budget of 130, node
    # 131 is the 4th image of the third generator under the 6th of the
    # second, with all three assigned before it
    with pytest.raises(HomSearchBudgetError) as caught:
        count_homs(free_presentation(3), symmetric_group(4), node_budget=130)
    assert (caught.value.nodes, caught.value.depth) == (131, 3)
    assert "visited 131, deepest level 3 of 3 generators" in str(caught.value)


def test_budget_error_on_the_planned_nodes_builds_no_candidate(monkeypatch):
    # the same 125 nodes, read off the class table, exceed a budget of 2
    # before any Omega is built; a visiting search may stop early, so it
    # plans nothing and stops at its first hom, on node 3
    built = []
    search = _BacktrackSearch(free_presentation(3), symmetric_group(4), 2)
    omega = search._omega
    monkeypatch.setattr(search, "_omega", lambda m: built.append(m) or omega(m))
    with pytest.raises(HomSearchBudgetError) as caught:
        search.run(None)
    assert (caught.value.nodes, caught.value.depth, built) == (125, 0, [])
    assert str(caught.value) == (
        "search exceeded 2 nodes: planned 125, deepest level 0 of 3 generators"
    )
    search = _BacktrackSearch(free_presentation(3), symmetric_group(4), 3)
    assert search.run(lambda hom: True) == 1 and search.nodes == 3


def test_result_rejects_zero_count():
    with pytest.raises(ValueError):
        HomCountResult(0, 6)


# -- multiplicativity over free products ---------------------------------------


@pytest.mark.parametrize("orders", [(2, 3), (2, 4), (3, 3), (2, 2, 3)])
@pytest.mark.parametrize("target_factory", [lambda: symmetric_group(3), lambda: symmetric_group(4), lambda: cyclic_group(6)])
def test_multiplicativity(orders, target_factory):
    target = target_factory()
    factors = [cyclic_presentation(m, f"g{i}") for i, m in enumerate(orders)]
    combined = count_homs(free_product(factors), target).count
    product = 1
    for f in factors:
        product *= count_homs(f, target).count
    assert combined == product


def test_combined_sym4_count_is_90():
    pres = presentation_from_words(["a", "b"], ["a^2", "b^3"])
    assert count_homs(pres, symmetric_group(4)).count == 90


# -- power targets --------------------------------------------------------------


def test_power_invariance_explicit():
    s3 = symmetric_group(3)
    result = power_target_count(cyclic_presentation(2), s3, 2, verify_explicit=True)
    assert result.count == 16
    assert result.target_order == 36
    base = count_homs(cyclic_presentation(2), s3)
    assert result.count == base.count**2
    assert abs(result.h - base.h) < 1e-12


def test_power_invariance_analytic_matches_explicit():
    c3 = cyclic_presentation(3)
    target = symmetric_group(3)
    for n in (1, 2, 3):
        analytic = power_target_count(c3, target, n)
        explicit = count_homs(c3, ProductGroup([target] * n))
        assert analytic.count == explicit.count
        assert analytic.target_order == explicit.target_order


# -- concrete-group sources -----------------------------------------------------


def test_count_homs_group_matches_presentation_route():
    s3 = symmetric_group(3)
    c6 = cyclic_group(6)
    assert count_homs_group(c6, s3).count == count_homs(cyclic_presentation(6), s3).count


def test_count_homs_group_endomorphisms_of_sym3():
    s3 = symmetric_group(3)
    # endomorphisms of Sym(3): 1 trivial + 3 onto C2 + 6 automorphisms
    assert count_homs_group(s3, s3).count == 10


def _witness_c2_c3_sym3():
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    return witness_quotient(factors, symmetric_group(3)).group


CONCRETE_SOURCES = {
    "C6": lambda: cyclic_group(6),
    "Sym3": lambda: symmetric_group(3),
    "Sym4": lambda: symmetric_group(4),
    "Alt5": alternating_group_5,
    "Klein": klein_group,
    "C13": lambda: cyclic_perm_group(13),
    "Q8": quaternion_group,
    "D4": lambda: dihedral_group(4),
    "witness-C2*C3-Sym3": _witness_c2_c3_sym3,
}


@pytest.mark.parametrize("name", sorted(CONCRETE_SOURCES))
def test_schreier_presentation_homs_match_brute_force(name):
    source = CONCRETE_SOURCES[name]()
    pres = group_presentation(source)
    targets = [
        symmetric_group(3),
        symmetric_group(4),
        alternating_group_5(),
        general_linear_group(2, 2),
        general_linear_group(3, 2),
        general_linear_group(2, 3),
    ]
    for target in targets:
        homs = enumerate_homs(pres, target)
        assert len(set(homs)) == len(homs)
        assert set(homs) == brute_homs_group(source, target)


small_perm_groups = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(n))).map(tuple), min_size=1, max_size=2
    ).map(lambda gens: PermGroup(n, gens))
)


@given(small_perm_groups)
@settings(max_examples=40, deadline=None)
def test_schreier_relators_hold_in_source_and_count_endomorphisms(group):
    pres = group_presentation(group)
    assert pres.generators == ("g1", "g2")[: len(group.generators)]
    for word in pres.relators:
        assert evaluate_word(word, group.generators, group) == group.identity
    assert count_homs(pres, group).count == len(brute_homs_group(group, group))


def test_schreier_presentation_of_cyclic_group_is_one_relator():
    pres = group_presentation(cyclic_perm_group(13))
    assert pres.relators == (((0, 13),),)


# -- witness quotients ------------------------------------------------------------


def test_witness_c2_into_c2():
    w = witness_quotient([cyclic_presentation(2)], cyclic_group(2))
    assert w.group.order == 2
    assert w.hom_count_used == 2


def test_witness_c6_into_c2():
    w = witness_quotient([cyclic_presentation(6)], cyclic_group(2))
    assert w.group.order == 2


def test_witness_c2_c3_into_sym3():
    s3 = symmetric_group(3)
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    w = witness_quotient(factors, s3)
    assert w.hom_count_used == 12
    assert w.width_used == 12
    assert w.group.order == 18
    # the witness realizes the full hom count of the free product
    assert count_homs_group(w.group, s3).count == 12
    # and its generator number bounds the certified conclusion from above
    assert d_min_generators(w.group).value == 2


def test_witness_dedup_by_kernel_preserves_count():
    s3 = symmetric_group(3)
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    with pytest.raises(WitnessWidthError, match="kernel"):
        witness_quotient(factors, s3, width_cap=5)
    w = witness_quotient(factors, s3, width_cap=5, dedup_kernels=True)
    assert w.deduplicated
    assert w.width_used == 4  # kernels: whole group, C2, C3, Sym(3)
    assert w.group.order == 18
    assert count_homs_group(w.group, s3).count == 12


def test_kernels_equal():
    s3 = symmetric_group(3)
    transpositions = [x for x in s3.elements if s3.element_order(x) == 2]
    # two embeddings of C2 with different images have equal kernels
    assert kernels_equal(s3, (transpositions[0],), (transpositions[1],))
    # the trivial hom and an embedding do not
    assert not kernels_equal(s3, (s3.identity,), (transpositions[0],))


def test_quotient_monotonicity():
    # C2 is a quotient of C6: its counts can never exceed those of C6
    for target in [symmetric_group(3), symmetric_group(4)]:
        c2 = count_homs(cyclic_presentation(2), target).count
        c6 = count_homs(cyclic_presentation(6), target).count
        assert c2 <= c6


@pytest.mark.parametrize(
    "pres,target",
    [
        (cyclic_presentation(3), symmetric_group(4)),
        (presentation_from_words(("a", "b"), ("a^2", "b^3", "(a*b)^3")), symmetric_group(4)),
    ],
)
def test_search_stops_when_visit_returns_true(pres, target):
    full = _BacktrackSearch(pres, target, 10**6)
    homs = []
    assert full.run(homs.append) == len(homs) > 1
    seen = []
    search = _BacktrackSearch(pres, target, 10**6)
    assert search.run(lambda images: seen.append(images) or True) == 1
    assert seen == homs[:1]
    assert 0 < search.nodes < full.nodes


def test_witness_dedup_keeps_the_homs_of_the_pairwise_kernel_check():
    target = affine_group(7, 3)
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    full = witness_quotient(factors, target)
    homs = [tuple(g[i] for g in full.group.generators) for i in range(full.width_used)]
    kept = []
    for hom in homs:
        if not any(kernels_equal(target, hom, other) for other in kept):
            kept.append(hom)
    w = witness_quotient(factors, target, width_cap=64, dedup_kernels=True)
    assert w.group.generators == tuple(zip(*kept))
    assert w.width_used == len(kept) == 6 and w.group.order == 294



def check_witness_is_the_realization_bfs(witness, target):
    # the int enumeration records the realization BFS's generator action
    # before any full-width tuple is formed; the tuples it then fills along
    # its tree are the realization BFS's elements in its order
    ambient = ProductGroup([target] * witness.width_used)
    reference = GeneratedGroup(ambient, witness.group.generators)
    assert witness.group._elements is None
    assert witness.group.compiled.identity == reference.compiled.identity
    assert witness.group.compiled.right == reference.compiled.right
    assert witness.group._elements is None
    assert witness.group.elements == reference.elements


C2_C3 = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]


@pytest.mark.parametrize(
    "target,dedup,width",
    [
        (symmetric_group(4), False, 90),
        (affine_group(7, 3), False, 120),
        (affine_group(7, 3), True, 6),
    ],
    ids=["sym4", "agl-1-7", "agl-1-7-dedup"],
)
def test_witness_group_is_the_realization_bfs(target, dedup, width):
    witness = witness_quotient(C2_C3, target, width_cap=64 if dedup else 512, dedup_kernels=dedup)
    assert witness.width_used == width
    check_witness_is_the_realization_bfs(witness, target)


@st.composite
def witness_cases(draw):
    n = draw(st.integers(3, 5))
    gens = draw(st.lists(st.permutations(list(range(n))).map(tuple), min_size=2, max_size=2))
    orders = draw(st.lists(st.integers(2, 4), min_size=2, max_size=2))
    factors = [cyclic_presentation(m, f"g{i}") for i, m in enumerate(orders)]
    return factors, PermGroup(n, gens), draw(st.booleans())


@given(witness_cases())
@settings(max_examples=40, deadline=None)
def test_witness_group_is_the_realization_bfs_on_random_targets(case):
    factors, target, dedup = case
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "DEFAULT_ELEMENT_CAP", 5000)
            witness = witness_quotient(
                factors, target, width_cap=8 if dedup else 512, dedup_kernels=dedup
            )
    except (WitnessWidthError, ClosureOverflowError):
        assume(False)
    assume(witness.group.order * witness.width_used <= 50_000)
    check_witness_is_the_realization_bfs(witness, target)


def test_witness_element_cap_is_the_realization_cap(monkeypatch):
    # the realization BFS overflows once it holds more than
    # `DEFAULT_ELEMENT_CAP` elements; so does the int enumeration
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 287)
    with pytest.raises(ClosureOverflowError):
        witness_quotient(C2_C3, symmetric_group(4))
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 288)
    assert witness_quotient(C2_C3, symmetric_group(4)).group.order == 288


two_generator_perm_groups = st.integers(3, 4).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(n))).map(tuple), min_size=2, max_size=2
    ).map(lambda gens: PermGroup(n, gens))
)


@given(two_generator_perm_groups, st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_witness_dedup_keeps_the_homs_of_the_pairwise_kernel_check_on_random_targets(
    target, orders
):
    factors = [cyclic_presentation(m, f"g{i}") for i, m in enumerate(orders)]
    per_factor = [enumerate_homs(f, target) for f in factors]
    kept = []
    for combo in itertools.product(*per_factor):
        hom = tuple(x for part in combo for x in part)
        if not any(kernels_equal(target, hom, other) for other in kept):
            kept.append(hom)
    w = witness_quotient(factors, target, width_cap=len(kept), dedup_kernels=True)
    assert w.width_used == len(kept)
    assert w.group.generators == tuple(zip(*kept))


# <a, b | a^2, b^3, (ab)^3>, the tetrahedral group: a factor that is not cyclic
TETRAHEDRAL = presentation_from_words(("a", "b"), ("a^2", "b^3", "(a*b)^3"))


@st.composite
def orbit_cases(draw):
    n = draw(st.integers(3, 5))
    gens = draw(st.lists(st.permutations(list(range(n))).map(tuple), min_size=2, max_size=2))
    orders = draw(st.lists(st.integers(2, 4), min_size=2, max_size=2))
    factors = [cyclic_presentation(m, f"g{i}") for i, m in enumerate(orders)]
    if draw(st.booleans()):
        factors[0] = TETRAHEDRAL
    return factors, PermGroup(n, gens)


@given(orbit_cases())
@settings(max_examples=40, deadline=None)
def test_witness_on_conjugacy_orbit_representatives_keeps_every_homs_answer(case):
    # the witness is enumerated, and kernels are compared, on one hom per
    # conjugacy orbit of the target; the oracles read every hom
    factors, target = case
    per_factor = [enumerate_homs(f, target) for f in factors]
    homs = [tuple(x for part in combo for x in part) for combo in itertools.product(*per_factor)]
    assume(len(homs) <= 200)
    kept = []
    for hom in homs:
        if not any(kernels_equal(target, hom, other) for other in kept):
            kept.append(hom)
    w = witness_quotient(factors, target, width_cap=len(kept), dedup_kernels=True)
    assert w.width_used == len(kept)
    assert w.group.generators == tuple(zip(*kept))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "DEFAULT_ELEMENT_CAP", 5000)
            full = witness_quotient(factors, target)
    except ClosureOverflowError:
        return
    assert full.width_used == len(homs)
    if full.group.order * len(homs) <= 50_000:
        check_witness_is_the_realization_bfs(full, target)


def test_witness_of_the_trivial_hom_alone_is_one_wide():
    target = cyclic_group(5)
    witness = witness_quotient(C2_C3, target)
    assert witness.width_used == 1
    check_witness_is_the_realization_bfs(witness, target)
    assert witness.group.elements == ((target.identity,),)


@pytest.mark.parametrize(
    "target,dedup,order",
    [
        (symmetric_group(4), False, 288),
        (affine_group(7, 3), False, 294),
        (affine_group(7, 3), True, 294),
        (alternating_group_5(), False, 4320),
    ],
    ids=["sym4", "agl-1-7", "agl-1-7-dedup", "alt5"],
)
def test_witness_quotient_forms_no_full_width_tuple(monkeypatch, target, dedup, order):
    # the witness is compiled on its representatives' coordinates; its
    # order and kernel are read without the full-width fill
    def refuse(self):
        raise AssertionError("full-width witness tuples formed")

    monkeypatch.setattr(homcount._WitnessGroup, "_generate", refuse)
    witness = witness_quotient(C2_C3, target, width_cap=64 if dedup else 512, dedup_kernels=dedup)
    assert witness.group.order == witness.group.compiled.order == order
    with pytest.raises(AssertionError, match="full-width"):
        witness.group.elements


@pytest.mark.parametrize(
    "target,calls", [(affine_group(7, 3), 8), (symmetric_group(4), 7)], ids=["agl-1-7", "sym4"]
)
def test_witness_dedup_walks_one_hom_per_conjugacy_orbit(monkeypatch, target, calls):
    # AGL(1,7) has 120 homs from C2*C3 in 8 conjugacy orbits, Sym(4) 90 in
    # 7: one image enumeration per orbit, keyed by its action table
    keyed = []

    def counted(*args):
        keyed.append(args)
        return image_key(*args)

    image_key = homcount._image_key
    monkeypatch.setattr(homcount, "_image_key", counted)
    witness = witness_quotient(C2_C3, target, width_cap=64, dedup_kernels=True)
    assert witness.width_used == 6
    assert len(keyed) == calls


def test_witness_partitions_its_target_into_classes_once(monkeypatch):
    # each factor's search reads the class table of AGL(1,7), and d_min and
    # O_p read its classes too: the kernel keeps the one partition of its
    # ints under conjugation that the first of them walks
    target = affine_group(7, 3)
    partitions = []

    def counted(n, maps):
        if maps is target.compiled.conjugations:
            partitions.append(n)
        return orbit_partition(n, maps)

    orbit_partition = groups.orbit_partition
    monkeypatch.setattr(groups, "orbit_partition", counted)
    monkeypatch.setattr(homcount, "orbit_partition", counted)
    witness = witness_quotient(C2_C3, target)
    assert witness.width_used == 120
    assert d_min_generators(target).value == 2
    assert largest_normal_p_subgroup(target, 7).order == 7
    assert len(target.conjugacy_classes()) == 7
    assert partitions == [42]


# -- class-representative counts and power relators ------------------------------

# |Hom| of the benchmark's triangle groups, with the nodes the search may
# visit: at most a tenth of those it visits when the first generator takes
# every image (6,232, 19,532, 6,642 and 81,664), and into Alt(5), where the
# identity and the 15 involutions form 2 classes, 44 of 352
TRIANGLE_CORPUS = [
    (("a^2", "b^3", "(a*b)^5"), lambda: symmetric_group(6), 1441, 623),
    (("a^2", "b^4", "(a*b)^5"), lambda: symmetric_group(6), 3676, 1953),
    (("a^3", "b^3", "(a*b)^4"), lambda: symmetric_group(6), 2241, 664),
    (("a^2", "b^3", "(a*b)^7"), lambda: symmetric_group(7), 10081, 8166),
    (("a^2", "b^3", "(a*b)^605"), alternating_group_5, 121, 44),
]


@pytest.mark.parametrize("relators,target,count,max_nodes", TRIANGLE_CORPUS, ids=lambda x: str(x))
def test_triangle_corpus_counts(relators, target, count, max_nodes):
    search = _BacktrackSearch(presentation_from_words(["a", "b"], relators), target(), 10**6)
    assert search.run(None) == count
    assert search.nodes <= max_nodes


def test_triangle_2_3_7_into_sym8_counts_within_budget():
    start = time.perf_counter()
    pres = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^7"])
    search = _BacktrackSearch(pres, symmetric_group(8), 10**6)
    assert search.run(None) == 120_961
    assert search.nodes <= 10_000
    assert time.perf_counter() - start < 5.0


def test_count_weights_class_representatives_and_enumeration_does_not():
    pres = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^5"])
    s6 = symmetric_group(6)
    counted = _BacktrackSearch(pres, s6, 10**6)
    listed = _BacktrackSearch(pres, s6, 10**6)
    homs = []
    assert counted.run(None) == listed.run(homs.append) == len(homs) == 1441
    # the count tries 4 class representatives for a's image, the listing
    # all 76 elements x with x^2 = e
    assert (counted.nodes, listed.nodes) == (328, 6232)


def test_power_relator_is_evaluated_by_its_root():
    start = time.perf_counter()
    pres = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^60005"])
    assert count_homs(pres, alternating_group_5()).count == 121
    assert time.perf_counter() - start < 2.0


def test_rotated_power_relator_is_found_and_placed_as_given():
    a, b = 0, 1
    rotated = presentation_from_words(["a", "b"], ["a^2", "b^3", "b^-1*(a*b)^7*b"])
    search = _BacktrackSearch(rotated, symmetric_group(7), 10**6)
    assert search.checks[1] == [(((b, 1), (a, 1)), 7)]
    assert search.run(None) == 10081
    # a*b^5*a^-1 reduces to b^5, which no order bound covers: it is still
    # checked once both generators are assigned
    conjugated = presentation_from_words(["a", "b"], ["a^2", "a*b^5*a^-1"])
    search = _BacktrackSearch(conjugated, symmetric_group(5), 10**6)
    assert search.checks[1] == [(((b, 5),), 1)]
    s5 = symmetric_group(5)
    involutions = sum(1 for x in s5.elements if s5.power(x, 2) == s5.identity)
    fifth_roots = sum(1 for x in s5.elements if s5.power(x, 5) == s5.identity)
    assert search.run(None) == involutions * fifth_roots


def _relator(draw, k):
    """A word mentioning at least two of the k generators, as a power of a
    short word, conjugated by another."""
    syllable = st.tuples(st.integers(0, k - 1), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    base = draw(st.lists(syllable, min_size=2, max_size=4))
    if len({idx for idx, _ in base}) < 2:
        base.append(((base[0][0] + 1) % k, 1))
    conjugator = draw(st.lists(syllable, max_size=2))
    inverse = [(idx, -exp) for idx, exp in reversed(conjugator)]
    return tuple(conjugator + base * draw(st.integers(1, 4)) + inverse)


def _perm_groups(max_degree):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))).map(tuple), min_size=1, max_size=2
        ).map(lambda gens: PermGroup(n, gens))
    )


@st.composite
def sources_and_targets(draw):
    """Two generators into perm groups of degree <= 5, three into degree
    <= 4 (at most 24^3 assignments), or into a power of Sym(2) or Sym(3)."""
    k = draw(st.integers(2, 3))
    orders = [((g, draw(st.integers(1, 6))),) for g in range(k) if draw(st.booleans())]
    pres = Presentation(tuple("abc"[:k]), tuple(orders) + (_relator(draw, k),))
    powers = st.sampled_from([(2, 2), (3, 2), (2, 3)]).map(
        lambda nk: ProductGroup([symmetric_group(nk[0])] * nk[1])
    )
    return pres, draw(st.one_of(_perm_groups(7 - k), powers))


@given(sources_and_targets())
@settings(max_examples=50, deadline=None)
def test_reduced_count_matches_enumeration(source_and_target):
    pres, target = source_and_target
    homs = enumerate_homs(pres, target)
    assert count_homs(pres, target).count == len(homs)
    # each enumerated hom satisfies every relator evaluated as written
    for hom in homs:
        assert all(evaluate_word(w, hom, target) == target.identity for w in pres.relators)
    # and, on small targets, they are the brute-force solutions in search
    # order: generators in `order`, each one's images in element order
    k = len(pres.generators)
    if target.order**k <= 2000:
        order = _BacktrackSearch(pres, target, 10**6).order
        brute = []
        for assigned in itertools.product(target.elements, repeat=k):
            images = [None] * k
            for g, x in zip(order, assigned):
                images[g] = x
            if all(evaluate_word(w, images, target) == target.identity for w in pres.relators):
                brute.append(tuple(images))
        assert brute == homs


@pytest.mark.parametrize(
    "generators,relators", [(["a"], ["a^2"]), (["a", "b"], ["a^2", "b^3", "(a*b)^4"])]
)
def test_search_frees_the_target_without_the_cycle_collector(generators, relators):
    # the recursive search closure must not keep the target alive in a cycle
    import gc
    import weakref

    pres = presentation_from_words(generators, relators)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for search in (count_homs, enumerate_homs):
            target = PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
            alive = weakref.ref(target)
            search(pres, target)
            del target
            assert alive() is None, search.__name__
    finally:
        if enabled:
            gc.enable()
