"""The integer group kernel (`FiniteGroup.compiled`) against the realizations
it is compiled from, and the structure algorithms that run on it against
the brute-force oracles in `helpers`."""

import gc
import itertools
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound import groups
from genbound.groups import (
    CayleyGroup,
    ClosureOverflowError,
    GeneratedGroup,
    PermGroup,
    ProductGroup,
    orbit_partition,
    walk,
)
from genbound.homcount import (
    _BacktrackSearch,
    _image_key,
    count_homs,
    enumerate_homs,
    witness_quotient,
)
from genbound.modules import general_linear_group
from genbound.perm import compose, group_order, inverse
from genbound.presentations import cyclic_presentation, presentation_from_words
from genbound.subgroups import (
    SubgroupHandle,
    _normal_closure,
    d_min_generators,
    derived_subgroup,
    largest_normal_p_subgroup,
    quotient_group,
)

from helpers import (
    affine_group,
    all_normal_subgroups,
    alternating_group_5,
    brute_conjugacy_classes,
    brute_conjugations,
    brute_derived_subgroup,
    brute_largest_normal_p_subgroups,
    closure,
    cyclic_group,
    cyclic_perm_group,
    dihedral_group,
    kernels_equal,
    quaternion_group,
    regular_perm_group,
    set_orbit_partition,
    subgroup_from_generators,
    symmetric_group,
    unpruned_d_min_generators,
)

NONABELIAN_CORPUS = [
    symmetric_group(4),
    alternating_group_5(),
    affine_group(7, 3),
    dihedral_group(12),
    dihedral_group(5),
    regular_perm_group(quaternion_group()),
]


def relabelled(group: PermGroup, sigma: tuple) -> PermGroup:
    """The conjugate of `group` by sigma: the same group on relabelled points."""
    return PermGroup(
        group.degree, [compose(sigma, compose(g, inverse(sigma))) for g in group.generators]
    )


# random generators on up to five points mostly give small abelian groups,
# so nonabelian corpus groups on shuffled points are drawn alongside
small_perm_groups = st.one_of(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))).map(tuple), min_size=1, max_size=3
        ).map(lambda gens: PermGroup(n, gens))
    ),
    st.sampled_from(NONABELIAN_CORPUS).flatmap(
        lambda group: st.permutations(list(range(group.degree))).map(
            lambda sigma: relabelled(group, tuple(sigma))
        )
    ),
)


def check_kernel_matches_realization(group):
    kernel = group.compiled
    elems = group.elements
    assert kernel.order == group.order
    assert elems[kernel.identity] == group.identity
    assert [elems[g] for g in kernel.generators] == list(group.generators)
    for i, a in enumerate(elems):
        assert elems[kernel.inv(i)] == group.inv(a)
        for j, b in enumerate(elems):
            assert elems[kernel.mul(i, j)] == group.mul(a, b)


def check_conjugation_maps_and_orbits(group):
    kernel = group.compiled
    conjugations = kernel.conjugations
    assert conjugations == brute_conjugations(kernel)
    assert orbit_partition(kernel.order, conjugations) == set_orbit_partition(
        kernel.order, conjugations
    )
    if isinstance(group, PermGroup):
        assert orbit_partition(group.degree, group.generators) == set_orbit_partition(
            group.degree, group.generators
        )


def check_class_wise_structure(group):
    # d_min's d = 1 check and O_p read element orders once per class, and
    # O_p walks one normal closure per class of p-power order; the unpruned
    # search and the lattice read every element
    assert d_min_generators(group) == unpruned_d_min_generators(group)
    for p, oracle in brute_largest_normal_p_subgroups(group).items():
        assert set(largest_normal_p_subgroup(group, p).elements) == oracle


def check_d_min_is_minimal(group):
    result = d_min_generators(group)
    assert result.exact
    generated = closure(list(result.witness), group.mul, group.identity)
    assert len(generated) == group.order
    if result.value:
        for fewer in itertools.combinations(group.elements, result.value - 1):
            assert len(closure(list(fewer), group.mul, group.identity)) < group.order


@given(small_perm_groups)
@settings(max_examples=40, deadline=None)
def test_kernel_and_classes_match_realization_on_random_perm_groups(group):
    check_kernel_matches_realization(group)
    check_conjugation_maps_and_orbits(group)
    assert group.conjugacy_classes() == brute_conjugacy_classes(group)
    assert set(derived_subgroup(group).elements) == brute_derived_subgroup(group)
    check_class_wise_structure(group)
    check_d_min_is_minimal(group)


def test_kernel_and_classes_match_realization_on_gl_2_3():
    gl = general_linear_group(3, 2)
    assert gl.order == 48
    check_kernel_matches_realization(gl)
    check_conjugation_maps_and_orbits(gl)
    assert gl.conjugacy_classes() == brute_conjugacy_classes(gl)
    assert set(derived_subgroup(gl).elements) == brute_derived_subgroup(gl)
    check_class_wise_structure(gl)
    check_d_min_is_minimal(gl)


def test_table_group_with_identity_away_from_zero():
    # Sym(3) relabelled so that the identity is element 4
    s3 = symmetric_group(3)
    label = [4, 0, 5, 1, 3, 2]
    table = [[0] * 6 for _ in range(6)]
    for i, a in enumerate(s3.elements):
        for j, b in enumerate(s3.elements):
            table[label[i]][label[j]] = label[s3.element_index(s3.mul(a, b))]
    group = CayleyGroup(table)
    assert group.identity == 4
    assert group.table == tuple(map(tuple, table))
    check_kernel_matches_realization(group)
    check_conjugation_maps_and_orbits(group)
    check_class_wise_structure(group)
    assert group.conjugacy_classes() == brute_conjugacy_classes(group)
    derived = derived_subgroup(group)
    assert set(derived.elements) == brute_derived_subgroup(group)
    quotient = quotient_group(group, derived)
    # cosets are numbered by first element: the identity 4 shares 0's iff 0 is in A3
    assert quotient.order == 2 and quotient.identity == (0 if 0 in derived.elements else 1)
    assert largest_normal_p_subgroup(group, 3).order == 3
    assert largest_normal_p_subgroup(group, 2).order == 1
    assert d_min_generators(group).value == 2


def test_sym6_as_a_table_is_held_by_few_generators():
    # each generator is the least int outside the subgroup the earlier ones
    # generate, so each at least doubles it: at most log2(720) < 10 of them
    sym6 = symmetric_group(6)
    group = CayleyGroup(sym6.compiled.table)
    assert len(group.generators) <= 9
    assert group.table == sym6.compiled.table
    triangle = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^5"])
    assert count_homs(triangle, group).count == 1441
    result = d_min_generators(group)
    assert (result.value, result.exact) == (2, True)
    assert derived_subgroup(group).order == 360


@pytest.mark.parametrize(
    "factory",
    [
        lambda: cyclic_perm_group(12),
        lambda: cyclic_group(9),
        lambda: ProductGroup([cyclic_group(4), cyclic_group(3), cyclic_group(5)]),
        lambda: PermGroup(5, [(1, 0, 3, 4, 2)]),
        lambda: PermGroup(7, [(1, 0, 2, 3, 4, 5, 6), (0, 1, 3, 4, 5, 6, 2)]),
    ],
    ids=["c12-perm", "c9-table", "c4xc3xc5", "c6-one-generator", "c10-two-generators"],
)
def test_d_min_finds_the_first_element_of_full_order_on_cyclic_groups(factory):
    # in an abelian group every element leads its class, so the class-wise
    # d = 1 check reports the same least int of order |G| as a full scan
    group = factory()
    n = group.order
    kernel = group.compiled
    first = next(x for x in range(n) if kernel.element_order(x) == n)
    result = d_min_generators(group)
    assert result == unpruned_d_min_generators(group)
    assert result.witness == (group.elements[first],)
    check_conjugation_maps_and_orbits(group)


def test_non_generating_cayley_group_is_rejected():
    # one transposition's right action on Sym(3) reaches only the 2 elements of <t>
    s3 = symmetric_group(3)
    kernel = s3.compiled
    t = s3.element_index((1, 0, 2))
    only_t = [kernel.mul(x, t) for x in range(6)]
    with pytest.raises(ValueError, match="reach 2 of 6"):
        CayleyGroup.from_action(6, kernel.identity, [only_t])


def test_a_kernel_is_freed_without_the_cycle_collector():
    # classes, d_min and O_p read `kernel.compiled`; a kernel holding
    # itself there would live until the cyclic garbage collector ran
    kernel = symmetric_group(4).compiled
    assert kernel.compiled is kernel
    d_min_generators(kernel)
    largest_normal_p_subgroup(kernel, 2)
    ref = weakref.ref(kernel)
    gc.disable()
    try:
        del kernel
        assert ref() is None
    finally:
        gc.enable()


def test_from_action_checks_generation():
    c6 = CayleyGroup.from_action(6, 0, [[(i + 1) % 6 for i in range(6)]])
    assert c6.order == 6 and c6.inv(1) == 5 and c6.mul(4, 5) == 3
    with pytest.raises(ValueError, match="do not generate"):
        CayleyGroup.from_action(6, 0, [[(i + 2) % 6 for i in range(6)]])


def check_kernel_is_the_walked_kernel(group):
    # `compiled` holds the BFS tree the enumeration recorded; walking the
    # same action from the identity must give the same tree, and so the
    # same words, conjugation maps and table
    fast = group.compiled
    slow = CayleyGroup.from_action(fast.order, 0, fast.right)
    assert [list(part) for part in fast._tree] == [list(part) for part in slow._tree]
    assert fast.words() == slow.words()
    assert fast.conjugations == slow.conjugations
    assert fast.table == slow.table
    if fast.order > 1:  # no generators reach only the identity
        with pytest.raises(ValueError, match="reach 1 of"):
            CayleyGroup.from_action(fast.order, 0, [])


@given(small_perm_groups)
@settings(max_examples=40, deadline=None)
def test_enumeration_tree_is_the_walked_tree_on_random_perm_groups(group):
    check_kernel_is_the_walked_kernel(group)


WIDE = PermGroup(2, [(0, 1)] * 256 + [(1, 0)])  # generator 256 reaches the second element


@pytest.mark.parametrize(
    "group",
    [
        general_linear_group(3, 2),
        ProductGroup([symmetric_group(3), cyclic_perm_group(4)]),
        witness_quotient(
            [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")], symmetric_group(3)
        ).group,
        WIDE,
    ],
    ids=["gl-3-2", "product", "witness", "257-generators"],
)
def test_enumeration_tree_is_the_walked_tree(group):
    check_kernel_is_the_walked_kernel(group)


def test_enumeration_tree_stores_generator_positions_past_255():
    moves = WIDE.compiled._tree[2]
    assert moves.typecode == "i" and list(moves) == [256]
    assert symmetric_group(5).compiled._tree[2].typecode == "B"


def test_compiled_sym8_keeps_its_tree_in_c_arrays():
    # Sym(8) traces at a 7.32 MiB peak, set by the enumeration's position
    # dict, and holds 6.24 MiB with the tree's parents and generator
    # positions in C arrays read after the BFS. Recorded during the BFS as
    # lists of int objects it traced at 8.82 and 7.54 MiB, and read after
    # it as lists at 7.99 and 7.66 MiB: each fails a bound
    tracemalloc.start()
    try:
        group = symmetric_group(8)
        group.compiled
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 40320
    assert peak < 7.6 * 2**20 and held < 6.6 * 2**20


def test_compiling_past_the_element_cap_overflows(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 23)
    with pytest.raises(ClosureOverflowError):
        PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)]).compiled
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 35)
    with pytest.raises(ClosureOverflowError):
        ProductGroup([symmetric_group(3)] * 2).compiled


class CountingPermGroup(PermGroup):
    calls = 0

    def mul(self, a, b):
        CountingPermGroup.calls += 1
        return super().mul(a, b)

    def inv(self, a):
        CountingPermGroup.calls += 1
        return super().inv(a)

    def step(self, c):
        # a product formed by mapping a step counts as a call, and so does
        # building the step
        CountingPermGroup.calls += 1
        times_c = super().step(c)

        def counted(x):
            CountingPermGroup.calls += 1
            return times_c(x)

        return counted


def test_witness_structure_work_is_bounded_by_one_enumeration():
    # Compiling the order-288 witness quotient of C2*C3 in Sym(4) and
    # running conjugacy classes and d_min on it costs at most as many
    # realization calls as one pass of the generators over the elements.
    sym4 = CountingPermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    witness = witness_quotient(
        [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")], sym4
    )
    group = witness.group
    assert group.order == 288 and witness.width_used == 90
    CountingPermGroup.calls = 0
    group.compiled
    classes = group.conjugacy_classes()
    result = d_min_generators(group)
    bound = group.order * len(group.generators) * witness.width_used
    assert CountingPermGroup.calls <= bound
    assert sum(len(c) for c in classes) == 288
    assert result.value == 2 and result.exact


@pytest.mark.parametrize(
    "degree,gens,dedup",
    [
        (7, [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)], False),
        (7, [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)], True),
        (4, [(1, 2, 3, 0), (1, 0, 2, 3)], False),
    ],
    ids=["agl-1-7", "agl-1-7-dedup", "sym4"],
)
def test_witness_quotient_works_on_the_targets_ints(degree, gens, dedup):
    # Enumerating the target, finding the homs and filtering candidates by
    # order are the only realization products: pairing images and
    # enumerating, compiling and searching the witness group run on ints
    # (the realization BFS of the witness group makes 51,960 calls on
    # Sym(4) and over 70,000 on AGL(1,7))
    target = CountingPermGroup(degree, gens)
    CountingPermGroup.calls = 0
    witness = witness_quotient(
        [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")],
        target,
        width_cap=64 if dedup else 512,
        dedup_kernels=dedup,
    )
    witness.group.compiled
    result = d_min_generators(witness.group)
    assert result.value == 2 and result.exact
    assert CountingPermGroup.calls <= 1000


def test_class_filtered_count_makes_at_most_two_products_a_node():
    # Candidates and relator checks read the target's conjugacy classes on
    # its kernel, so no element is powered: the only realization products
    # are a's image, read once per entry to b's level as the step x -> x*a,
    # and that step mapped over b's candidates
    sym7 = CountingPermGroup(7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])
    pres = presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^7"])
    CountingPermGroup.calls = 0
    search = _BacktrackSearch(pres, sym7, 10**6)
    # the class table enumerates Sym(7) once, by the steps of its two
    # generators
    assert CountingPermGroup.calls == 2 + 2 * 5040
    CountingPermGroup.calls = 0
    assert search.run(None) == 10081
    assert CountingPermGroup.calls <= 2 * search.nodes
    # neither the element index nor the kernel's words were built
    assert sym7._index is None and sym7.compiled._words is None


# -- fast paths against their slow paths ---------------------------------------

# Sym(4) wr C2 (order 1152) and AGL(3, 2) (order 1344), as in the benchmark
SYM4_WR_C2 = PermGroup(
    8, [(1, 2, 3, 0, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)]
)
AGL_3_2 = PermGroup(
    8, [(1, 0, 3, 2, 5, 4, 7, 6), (0, 1, 3, 2, 4, 5, 7, 6), (0, 2, 4, 6, 1, 3, 5, 7)]
)


@given(small_perm_groups)
@settings(max_examples=100, deadline=None)
def test_schreier_sims_order_is_the_enumerated_order(group):
    assert group_order(group.degree, group.generators) == len(group.elements)


@pytest.mark.parametrize(
    "group, order", [(SYM4_WR_C2, 1152), (AGL_3_2, 1344)], ids=["sym4-wr-c2", "agl-3-2"]
)
def test_schreier_sims_order_of_the_benchmark_groups(group, order):
    # a Schreier-Sims that re-checks only the level it has just extended
    # finds 576 for Sym(4) wr C2
    assert group_order(group.degree, group.generators) == len(group.elements) == order


def test_schreier_sims_order_on_degrees_0_to_2_and_the_trivial_group():
    for n in range(3):
        points = list(itertools.permutations(range(n)))
        for k in range(3):
            for generators in itertools.product(points, repeat=k):
                order = len(PermGroup(n, generators).elements)
                assert group_order(n, generators) == order
    assert group_order(5, [tuple(range(5))]) == group_order(6, []) == 1


@pytest.mark.parametrize("group", NONABELIAN_CORPUS, ids=lambda g: f"order-{g.order}")
def test_walked_normal_closure_matches_the_normal_subgroup_lattice(group):
    kernel = group.compiled
    elems = group.elements
    normals = all_normal_subgroups(group)
    seeds = [[x] for x in range(kernel.order)] + [[1, kernel.order - 1], [], [kernel.identity]]
    for ints in seeds:
        members = {elems[x] for x in ints}
        smallest = frozenset.intersection(*(n for n in normals if members <= n))
        walked = list(_normal_closure(kernel, ints))
        assert len(walked) == len(set(walked))
        assert {elems[x] for x in walked} == smallest
    derived = derived_subgroup(group)
    assert set(derived.elements) == brute_derived_subgroup(group)
    # the handle keeps generators its closure check found, and they generate it
    assert set(GeneratedGroup(group, derived.generators).elements) == set(derived.elements)


@pytest.mark.parametrize(
    "degree,gens",
    [
        (4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
        (7, [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)]),
    ],
    ids=["sym4", "agl-1-7"],
)
def test_image_key_decides_kernel_equality_on_every_hom_pair(degree, gens):
    target = PermGroup(degree, gens)
    kernel = target.compiled
    homs = [
        a + b
        for a in enumerate_homs(cyclic_presentation(2, "a"), target)
        for b in enumerate_homs(cyclic_presentation(3, "b"), target)
    ]
    # right-multiplication rows read off the kernel's own product
    rows = {x: [kernel.mul(y, x) for y in range(kernel.order)] for x in range(kernel.order)}
    ints = [[target.element_index(x) for x in hom] for hom in homs]
    keys = [_image_key(kernel.identity, [rows[x] for x in hom]) for hom in ints]
    for hom, key in zip(homs, keys):
        # one action column per element of the image
        assert len(key[0]) == len(closure(list(hom), target.mul, target.identity))
    # the oracle closes the images in the target's multiplication table
    table = CayleyGroup(kernel.table)
    for i, j in itertools.combinations_with_replacement(range(len(homs)), 2):
        assert (keys[i] == keys[j]) == kernels_equal(table, ints[i], ints[j])


@pytest.mark.parametrize(
    "group", NONABELIAN_CORPUS + [SYM4_WR_C2, AGL_3_2], ids=lambda g: f"order-{g.order}"
)
def test_word_inverse_is_a_two_sided_inverse(group):
    kernel = group.compiled
    e = kernel.identity
    for x in range(kernel.order):
        y = kernel.inv(x)
        assert kernel.mul(x, y) == e == kernel.mul(y, x)


@pytest.mark.parametrize(
    "group",
    NONABELIAN_CORPUS + [symmetric_group(5), SYM4_WR_C2, AGL_3_2],
    ids=lambda g: f"order-{g.order}",
)
def test_lagrange_stop_keeps_d_min_value_and_witness(group):
    assert d_min_generators(group) == unpruned_d_min_generators(group)


@given(
    st.one_of(
        small_perm_groups,
        st.sampled_from([PermGroup(1, [(0,)]), PermGroup(2, [(1, 0)]), PermGroup(2, [(0, 1)])]),
    )
)
@settings(max_examples=40, deadline=None)
def test_itemgetter_enumeration_matches_closure_over_compose(group):
    gens = list(group.generators)
    expected = closure(gens, compose, group.identity)
    assert list(group.elements) == expected
    index = {x: i for i, x in enumerate(expected)}
    right = [[index[compose(x, g)] for x in expected] for g in gens]
    assert [list(row) for row in group.compiled.right] == right


@given(small_perm_groups, st.data())
@settings(max_examples=40, deadline=None)
def test_walks_and_table_picks_match_the_closure_oracle(group, data):
    kernel = group.compiled
    n, e = kernel.order, kernel.identity
    for _ in range(4):
        gens = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        seen = bytearray(n)
        seen[e] = 1
        walked = list(walk([kernel.step(x) for x in gens], [e], seen))
        assert walked == closure(gens, kernel.mul, e)
        assert sorted(walked) == [x for x in range(n) if seen[x]]
    # the same group as a table on relabelled ints, its identity moved too:
    # each pick is the least int outside the closure of the picks before
    sigma = data.draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(kernel.table):
        for b, c in enumerate(row):
            table[sigma[a]][sigma[b]] = sigma[c]
    greedy: list = []
    while len(reached := closure(greedy, lambda a, b: table[a][b], sigma[e])) < n:
        greedy.append(min(set(range(n)).difference(reached)))
    assert CayleyGroup(table).generators == tuple(greedy)
    # a tuple's walk stops once it passes |G|/2 ints, not at |G|/2
    assert d_min_generators(group) == unpruned_d_min_generators(group)


@pytest.mark.parametrize("group", NONABELIAN_CORPUS + [SYM4_WR_C2], ids=lambda g: f"order-{g.order}")
def test_extended_closures_match_closures_from_the_identity(group):
    kernel = group.compiled
    elems = group.elements
    order = group.order
    # a handle given no generators keeps those its closure check found: the
    # least int outside the closure of the ones before, closed afresh here
    members = closure([1, order - 1], kernel.mul, kernel.identity)
    handle = SubgroupHandle(group, members)
    greedy: list = []
    for x in sorted(members):
        if x not in closure(greedy, kernel.mul, kernel.identity):
            greedy.append(x)
    assert handle.generators == tuple(elems[i] for i in greedy)
    assert set(GeneratedGroup(group, handle.generators).elements) == set(handle.elements)
