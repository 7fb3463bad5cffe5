"""Shared corpus groups, small builders and counts that only the tests use,
and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: conjugacy
classes come from conjugating by every element, conjugation maps from
multiplying along element words, orbits from set differences, normal
subgroups from conjugacy-class joins, cyclic hom counts from solving
x^m = e element by element, centralizers from brute force over
the full symmetric group or, for transitive groups, from the Schreier
generators of a point stabilizer, irreducibility from enumerating all
subspaces, subset sums from explicit powerset search, homomorphisms from a
concrete group by extending every candidate tuple and checking it on every
element, hom counts from a presentation by multiplying out its relators
at every tuple of images, equal kernels from closing paired images in the
realization, the minimal generator count by closing every candidate tuple,
and triangle group counts into Sym(n) from Frobenius's class-sum formula
with Murnaghan-Nakayama characters.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from typing import Callable, Sequence

from genbound.groups import (
    DEFAULT_ELEMENT_CAP,
    CayleyGroup,
    ClosureOverflowError,
    FiniteGroup,
    MatrixGroup,
    PermGroup,
    ProductGroup,
)
from genbound.homcount import HomCountResult, count_homs, group_presentation
from genbound.perm import compose, identity_perm, inverse
from genbound.presentations import Presentation
from genbound.subgroups import MinGenResult, SubgroupHandle, orbits


# -- the closure oracle ------------------------------------------------------


def closure(
    generators: Sequence,
    mul: Callable,
    identity,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> list:
    """Smallest set containing the generators and closed under mul.

    In a finite group this is the generated subgroup (inverses arise as
    powers). Returns elements in deterministic BFS insertion order, with
    the identity first. Exceeding `cap` raises ClosureOverflowError;
    results are never silently truncated.
    """
    out = [identity]
    seen = {identity}
    for a in out:
        for g in generators:
            b = mul(a, g)
            if b not in seen:
                seen.add(b)
                out.append(b)
                if len(out) > cap:
                    raise ClosureOverflowError(cap)
    return out


# -- corpus groups -----------------------------------------------------------


def cyclic_perm_group(n: int) -> PermGroup:
    return PermGroup(n, [tuple((x + 1) % n for x in range(n))])


def symmetric_group(n: int) -> PermGroup:
    gens = [tuple((x + 1) % n for x in range(n))]
    if n >= 2:
        gens.append((1, 0) + tuple(range(2, n)))
    return PermGroup(n, gens)


def alternating_group(n: int) -> PermGroup:
    """Alt(n), n >= 3, by (0 1 2) and the n-cycle (n odd) or the
    (n-1)-cycle fixing 0 (n even), both even."""
    fixed = 1 - n % 2  # the points the long cycle fixes
    cycle = tuple(range(fixed)) + tuple(range(fixed + 1, n)) + (fixed,)
    return PermGroup(n, [(1, 2, 0) + tuple(range(3, n)), cycle])


def alternating_group_5() -> PermGroup:
    return PermGroup(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def alternating_group_4() -> PermGroup:
    return PermGroup(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def klein_group() -> PermGroup:
    return PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def dihedral_group(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points."""
    rotation = tuple((x + 1) % n for x in range(n))
    reflection = tuple((-x) % n for x in range(n))
    return PermGroup(n, [rotation, reflection])


def quaternion_group() -> MatrixGroup:
    """Quaternion group of order 8 as 2x2 matrices over F_3."""
    return MatrixGroup(3, 2, [((0, 2), (1, 0)), ((1, 1), (1, 2))])


def affine_group(p: int, unit: int) -> PermGroup:
    """<x+1, unit*x> acting on F_p."""
    translation = tuple((x + 1) % p for x in range(p))
    multiplication = tuple((unit * x) % p for x in range(p))
    return PermGroup(p, [translation, multiplication])


def regular_perm_group(G: FiniteGroup) -> PermGroup:
    """The left regular permutation action of G on itself."""
    elems = G.elements
    index = {e: i for i, e in enumerate(elems)}
    gens = [
        tuple(index[G.mul(g, x)] for x in elems) for g in (G.generators or elems)
    ]
    return PermGroup(len(elems), gens)


def cyclic_group(n: int) -> CayleyGroup:
    """Cyclic group of order n as a Cayley table (identity is 0), generated
    by 1."""
    return CayleyGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def free_presentation(rank: int, prefix: str = "x") -> Presentation:
    names = tuple(f"{prefix}{i + 1}" for i in range(rank))
    return Presentation(names, (), name=f"F{rank}")


def subgroup_from_generators(parent: FiniteGroup, generators: Sequence) -> SubgroupHandle:
    kernel = parent.compiled
    members = closure([parent.element_index(g) for g in generators], kernel.mul, kernel.identity)
    return SubgroupHandle(parent, tuple(parent.elements[i] for i in members), tuple(generators))


# -- counts ------------------------------------------------------------------


def count_homs_group(source: FiniteGroup, target: FiniteGroup) -> HomCountResult:
    """Exact |Hom(source, target)| for a concrete source group."""
    return count_homs(group_presentation(source), target)


def power_target_count(
    pres: Presentation, target: FiniteGroup, n: int, verify_explicit: bool = False
) -> HomCountResult:
    """Count into the n-th direct power of the target.

    Coordinatewise, homs into target^n are n-tuples of homs into target, so
    the count is count(target)^n at target order |target|^n. With
    verify_explicit the power group is built and counted directly and the
    two results are required to agree.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    base = count_homs(pres, target)
    analytic = HomCountResult(base.count**n, target.order**n)
    if verify_explicit:
        explicit = count_homs(pres, ProductGroup([target] * n))
        if explicit.count != analytic.count:
            raise AssertionError(
                f"explicit power count {explicit.count} != {analytic.count}"
            )
        return explicit
    return analytic


# -- oracles -----------------------------------------------------------------


def partitions(n: int, largest: int | None = None):
    """The partitions of n, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


@functools.lru_cache(maxsize=None)
def murnaghan_nakayama(beta: tuple, mu: tuple) -> int:
    """The irreducible character chi^lambda of Sym(n) at cycle type mu, by the
    Murnaghan-Nakayama rule on lambda's beta-set, the distinct numbers
    lambda_i + n - i (Sagan, The Symmetric Group, 4.10): removing a rim hook
    of length r moves a bead from b to an empty b - r, with the sign
    (-1)^(the beads between them)."""
    if not mu:
        return 1
    r, total = mu[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            sign = (-1) ** sum(1 for c in beta if b - r < c < b)
            moved = tuple(sorted(set(beta) - {b} | {b - r}))
            total += sign * murnaghan_nakayama(moved, mu[1:])
    return total


def frobenius_triangle_count(a: int, b: int, c: int, n: int) -> int:
    """|Hom(<x, y | x^a, y^b, (x*y)^c>, Sym(n))| by Frobenius's class-sum
    formula (Serre, Topics in Galois Theory, ch. 7): the solutions of
    x y z = 1 with x, y, z in classes C_1, C_2, C_3 number
    |C_1||C_2||C_3|/|G| * sum over chi of chi(C_1) chi(C_2) chi(C_3) / chi(1),
    summed over the classes whose orders divide a, b and c."""
    types = list(partitions(n))
    betas = [
        tuple(sorted(p + n - 1 - i for i, p in enumerate(lam + (0,) * (n - len(lam)))))
        for lam in types
    ]
    chars = [[murnaghan_nakayama(beta, mu) for mu in types] for beta in betas]
    sizes = [
        math.factorial(n) // math.prod(d**k * math.factorial(k) for d, k in Counter(mu).items())
        for mu in types
    ]
    orders = [math.lcm(*mu) for mu in types]

    def classes(m):
        return [i for i, order in enumerate(orders) if m % order == 0]

    degree = types.index((1,) * n)
    total = sum(
        sizes[i] * sizes[j] * sizes[k]
        * sum(Fraction(chi[i] * chi[j] * chi[k], chi[degree]) for chi in chars)
        for i in classes(a) for j in classes(b) for k in classes(c)
    ) / math.factorial(n)
    assert total.denominator == 1
    return int(total)


def oracle_power_count(group: FiniteGroup, m: int) -> int:
    """|Hom(C_m, group)|: the solutions of x^m = e, by scanning every element."""
    e = group.identity
    return sum(1 for x in group.elements if group.power(x, m) == e)


def brute_conjugations(kernel: CayleyGroup) -> tuple:
    """conjugations[j][i] = g i g^-1 for g = generators[j], each found by
    multiplying g by i g^-1 (the element that g's right action sends to i)."""
    return tuple(
        [kernel.mul(g, x) for x in sorted(kernel.elements, key=row.__getitem__)]
        for g, row in zip(kernel.generators, kernel.right)
    )


def set_orbit_partition(n: int, maps: Sequence[Sequence[int]]) -> list[list[int]]:
    """Orbits of 0..n-1 under the maps, grown by set differences, each
    sorted and listed by least point."""
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start not in seen:
            orbit = [start]
            seen.add(start)
            for x in orbit:
                for y in {m[x] for m in maps} - seen:
                    seen.add(y)
                    orbit.append(y)
            out.append(sorted(orbit))
    return out


def sym_elements(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(n))]


def perm_parity(p) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def brute_homs_group(source: FiniteGroup, target: FiniteGroup) -> set[tuple]:
    """Homomorphisms from a concrete group as generator-image tuples.

    Each tuple of images whose orders divide the generators' orders is
    extended along a BFS spanning tree and kept when phi(x g) = phi(x) phi(g)
    for every element x and generator g.
    """
    gens = list(source.generators)
    phi_parent = {source.identity: None}
    order = [source.identity]
    for x in order:
        for gi, g in enumerate(gens):
            y = source.mul(x, g)
            if y not in phi_parent:
                phi_parent[y] = (x, gi)
                order.append(y)
    assert len(order) == source.order, "generators do not generate the source"
    candidates = [
        [
            x
            for x in target.elements
            if source.element_order(g) % target.element_order(x) == 0
        ]
        for g in gens
    ]
    found = set()
    for images in itertools.product(*candidates):
        phi = {source.identity: target.identity}
        for x in order[1:]:
            px, gi = phi_parent[x]
            phi[x] = target.mul(phi[px], images[gi])
        if all(
            phi[source.mul(x, g)] == target.mul(phi[x], images[gi])
            for x in order
            for gi, g in enumerate(gens)
        ):
            found.add(images)
    return found


def brute_count_homs(pres: Presentation, target: FiniteGroup, cap: int = 60_000) -> int | None:
    """|Hom(P, target)| by multiplying out each relator as written, one
    letter at a time: each generator's images are the elements that satisfy
    its own one-generator relators, and every tuple of those is tried on the
    rest; None if there are more than `cap` tuples."""
    identity = target.identity
    inverse = {x: target.inv(x) for x in target.elements}

    def holds(word, images) -> bool:
        value = identity
        for idx, exp in word:
            letter = images[idx] if exp > 0 else inverse[images[idx]]
            for _ in range(abs(exp)):
                value = target.mul(value, letter)
        return value == identity

    mentions = [{idx for idx, _ in w} for w in pres.relators]
    rest = [w for w, used in zip(pres.relators, mentions) if len(used) != 1]
    candidates = [
        [
            x
            for x in target.elements
            if all(holds(w, {g: x}) for w, used in zip(pres.relators, mentions) if used == {g})
        ]
        for g in range(len(pres.generators))
    ]
    if math.prod(map(len, candidates)) > cap:
        return None
    return sum(all(holds(w, images) for w in rest) for images in itertools.product(*candidates))


def brute_conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    """Conjugacy classes by conjugating a representative by every element.

    Each class is a tuple in element enumeration order, and classes are
    listed by their first element.
    """
    remaining = dict.fromkeys(G.elements)
    classes = []
    elems = G.elements
    while remaining:
        x = next(iter(remaining))
        cls = {G.mul(G.mul(g, x), G.inv(g)) for g in elems}
        classes.append(tuple(e for e in elems if e in cls))
        for e in cls:
            remaining.pop(e, None)
    return classes


def brute_centralizer_order(G: PermGroup) -> int:
    """Centralizer order in Sym(degree) by checking every permutation."""
    count = 0
    for sigma in itertools.permutations(range(G.degree)):
        sigma = tuple(sigma)
        if all(compose(sigma, g) == compose(g, sigma) for g in G.generators):
            count += 1
    return count


def centralizer_order_transitive(G: PermGroup) -> int:
    """Order of the centralizer of a transitive G in the full symmetric group.

    For transitive G this equals the number of fixed points of a point
    stabilizer; the stabilizer is generated by Schreier generators from an
    orbit/transversal computation. Intransitive input is rejected.
    """
    if G.degree == 0:
        raise ValueError("empty point set")
    if len(orbits(G)) != 1:
        raise ValueError("group is not transitive; decompose into orbits first")
    base = 0
    transversal = {base: identity_perm(G.degree)}
    queue = [base]
    while queue:
        b = queue.pop(0)
        for g in G.generators:
            c = g[b]
            if c not in transversal:
                transversal[c] = compose(g, transversal[b])
                queue.append(c)
    fixed = set(range(G.degree))
    for b, t_b in transversal.items():
        for g in G.generators:
            c = g[b]
            schreier = compose(inverse(transversal[c]), compose(g, t_b))
            fixed = {x for x in fixed if schreier[x] == x}
    return len(fixed)


def kernels_equal(target: FiniteGroup, hom_a: Sequence, hom_b: Sequence) -> bool:
    """Whether two homomorphisms (generator-image tuples) share a kernel.

    ker a = ker b iff the subgroup of target x target generated by the
    paired images is the graph of an isomorphism between the two images,
    i.e. has the same order as both images.
    """
    e = target.identity
    pair = ProductGroup([target, target])
    order = len(closure(list(hom_a), target.mul, e))
    return order == len(closure(list(hom_b), target.mul, e)) == len(
        closure(list(zip(hom_a, hom_b)), pair.mul, pair.identity)
    )


class SearchBudgetError(RuntimeError):
    """The unpruned search found no generating tuple of size <= max_d."""


def unpruned_d_min_generators(
    G: FiniteGroup, max_d: int = 8, budget: int = 200_000
) -> MinGenResult:
    """The minimal-generator search with no pruning beyond fixing the first
    element up to conjugacy: every tuple is closed, in the order the library
    searches, so its result (value, witness, exactness) is the reference."""
    n = G.order
    if n == 1:
        return MinGenResult(0, (), True)
    kernel = G.compiled
    elems = G.elements
    for x in range(n):
        if kernel.element_order(x) == n:
            return MinGenResult(1, (elems[x],), True)
    e = kernel.identity
    reps = [c[0] for c in kernel.conjugacy_classes() if c[0] != e]
    others = [x for x in range(n) if x != e]
    tried = 0
    for d in range(2, max_d + 1):
        for first in reps:
            for rest in itertools.product(others[::-1], repeat=d - 1):
                tried += 1
                if tried > budget:
                    return MinGenResult(d, None, False)
                if len(closure((first, *rest), kernel.mul, e, n)) == n:
                    return MinGenResult(d, tuple(elems[x] for x in (first, *rest)), True)
    raise SearchBudgetError(f"no generating tuple of size <= {max_d} found")


def brute_derived_subgroup(G: FiniteGroup) -> frozenset:
    """Closure of all pairwise commutators; independent of normal closures."""
    elems = G.elements
    commutators = {G.commutator(a, b) for a in elems for b in elems}
    return frozenset(closure(sorted(commutators), G.mul, G.identity))


def all_normal_subgroups(G: FiniteGroup) -> set[frozenset]:
    """Every normal subgroup, as joins of normal closures of single elements.

    A normal subgroup is the join of the normal closures of its elements,
    and joins of normal closures are normal, so closing the atoms under
    pairwise joins yields the complete set. Conjugate elements share a
    normal closure, so there is one atom per conjugacy class.
    """
    elems = G.elements
    atoms = set()
    seen = set()
    for x in elems:
        if x in seen:
            continue
        conj_class = {G.mul(G.mul(g, x), G.inv(g)) for g in elems}
        seen |= conj_class
        atoms.add(frozenset(closure(sorted(conj_class), G.mul, G.identity)))
    lattice = {frozenset([G.identity])} | atoms
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(lattice, key=sorted), 2):
            if a <= b or b <= a:
                continue
            join = frozenset(closure(sorted(a | b), G.mul, G.identity))
            if join not in lattice:
                lattice.add(join)
                changed = True
    return lattice


def brute_largest_normal_p_subgroups(G: FiniteGroup) -> dict[int, frozenset]:
    """O_p for every prime p dividing |G|, from one normal-subgroup lattice:
    the unique maximal normal subgroup of p-power order."""
    normals = all_normal_subgroups(G)
    order = G.order
    primes = [q for q in range(2, order + 1) if order % q == 0 and all(q % d for d in range(2, q))]
    cores = {}
    for p in primes:
        p_normals = [n for n in normals if _is_p_power(len(n), p)]
        best = max(p_normals, key=len)
        for n in p_normals:
            assert n <= best, "normal p-subgroups do not have a unique maximum"
        cores[p] = best
    return cores


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def all_subspaces(p: int, dim: int) -> list[tuple]:
    """All subspaces of F_p^dim, each as a sorted tuple of its vectors.

    Grown incrementally: a closed subspace S extends by a vector v to
    {s + c*v for s in S, 0 <= c < p}, which is again closed.
    """
    vectors = list(itertools.product(range(p), repeat=dim))
    zero = frozenset([(0,) * dim])
    seen = {zero}
    frontier = [zero]
    while frontier:
        space = frontier.pop()
        for v in vectors:
            if v in space:
                continue
            bigger = set()
            for c in range(p):
                cv = tuple((c * x) % p for x in v)
                for s in space:
                    bigger.add(tuple((a + b) % p for a, b in zip(s, cv)))
            bigger = frozenset(bigger)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(tuple(sorted(s)) for s in seen)


def brute_is_irreducible(p: int, dim: int, matrices) -> bool:
    from genbound.linalg import mat_vec

    zero = (0,) * dim
    full = p**dim
    for subspace in all_subspaces(p, dim):
        size = len(subspace)
        if size in (1, full):
            continue
        points = set(subspace)
        if all(mat_vec(m, v, p) in points for m in matrices for v in subspace):
            return False
    return True


def brute_reducible_polynomials(p: int, n: int) -> set[tuple[int, ...]]:
    """Every monic degree-n polynomial over F_p (coefficients constant term
    first) that is the product of two monic ones of positive degree."""
    out = set()
    for d in range(1, n // 2 + 1):
        for g in itertools.product(range(p), repeat=d):
            for h in itertools.product(range(p), repeat=n - d):
                product = [0] * (n + 1)
                for i, x in enumerate(g + (1,)):
                    for j, y in enumerate(h + (1,)):
                        product[i + j] = (product[i + j] + x * y) % p
                out.add(tuple(product))
    return out


def brute_common_subset_sum(sets, cap):
    """Minimal common sum of distinct elements, by explicit powerset search."""
    achievable = []
    for values in sets:
        sums = set()
        for r in range(1, len(values) + 1):
            for combo in itertools.combinations(values, r):
                s = sum(combo)
                if s <= cap:
                    sums.add(s)
        achievable.append(sums)
    common = set.intersection(*achievable)
    return min(common) if common else None



@functools.cache
def enumerated_general_linear_group(p: int, dim: int) -> MatrixGroup:
    """GL(dim, p), fully enumerated once and shared by the tests."""
    from genbound.modules import general_linear_group

    gl = general_linear_group(p, dim)
    gl.elements
    return gl


def eager_find_simple_module(source, p: int):
    """The module search that collects first, with the same dimension rule:
    every homomorphism into a fully enumerated GL(d, p) for d = 1, 2, ...,
    in search order, then the first nontrivial irreducible one, up to the
    first d whose order exceeds the GL cap."""
    from genbound.homcount import enumerate_homs, group_presentation
    from genbound.modules import (
        DEFAULT_GL_ORDER_CAP,
        SPACE_CAP,
        ModuleAction,
        SimpleModuleSearch,
        general_linear_order,
        is_irreducible,
    )

    if isinstance(source, FiniteGroup):
        source = group_presentation(source)
    searched = []
    for dim in itertools.count(1):
        gl_order = general_linear_order(p, dim)
        if gl_order > DEFAULT_GL_ORDER_CAP:
            reason = f"matrix group order {gl_order} exceeds cap {DEFAULT_GL_ORDER_CAP}"
            return SimpleModuleSearch(None, tuple(searched), ((dim, reason),))
        assert p**dim <= SPACE_CAP
        gl = enumerated_general_linear_group(p, dim)
        searched.append(dim)
        homs = enumerate_homs(source, gl)
        for images in homs:
            if any(m != gl.identity for m in images):
                action = ModuleAction(p, dim, images, source)
                if is_irreducible(action):
                    return SimpleModuleSearch(action, tuple(searched), ())
