"""Subgroup computations: derived subgroups, quotients, abelian invariants,
minimal generator search, the largest normal p-subgroup O_p (read off the
conjugacy classes), and orbits. Structure work runs on the group's integer
kernel (`FiniteGroup.compiled`); results are mapped back. Every subgroup
closure is a `groups.walk`: a tuple's closure in `d_min_generators`, a
closure extended by one generator (`_extend`) and a normal closure.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .groups import CayleyGroup, FiniteGroup, PermGroup, orbit_partition, walk
from .numtheory import factorize, is_prime
from .records import immutable, record_repr, set_fields


class SubgroupHandle:
    """A subgroup of `parent` held as an explicit element tuple, sorted for
    determinism; `indices` holds their positions in the parent's kernel.
    Construction verifies the identity, Lagrange and closure under products.
    With no `generators` given, it keeps the ones its closure check found.
    """

    _fields = ("parent", "elements", "generators")
    __slots__ = _fields + ("indices",)
    __setattr__ = __delattr__ = immutable
    __repr__ = record_repr

    def __init__(self, parent: FiniteGroup, elements: tuple, generators: tuple = ()):
        elems = tuple(sorted(set(elements)))
        if parent.identity not in elems:
            raise ValueError("subgroup does not contain the identity")
        if parent.order % len(elems):
            raise ValueError(
                f"Lagrange violation: {len(elems)} does not divide {parent.order}"
            )
        indices = frozenset(parent.element_index(x) for x in elems)
        # closed iff some of its elements generate exactly it; each element
        # added at least doubles the closure
        kernel = parent.compiled
        gens, reached = {}, [kernel.identity]
        seen = bytearray(kernel.order)
        seen[kernel.identity] = 1
        for x in sorted(indices):
            if not seen[x]:
                start = len(reached)
                _extend(kernel, gens, x, reached, seen)
                if not indices.issuperset(reached[start:]):
                    raise ValueError("subgroup is not closed under products")
        if not generators:
            generators = tuple(parent.elements[i] for i in gens)
        set_fields(self, parent=parent, elements=elems, generators=generators, indices=indices)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        """Whether conjugation by each generator of the parent keeps it."""
        members = self.indices
        return all(c[x] in members for c in self.parent.compiled.conjugations for x in members)


def _handle(parent: FiniteGroup, indices) -> SubgroupHandle:
    """The subgroup with the given kernel indices, as parent elements."""
    elems = parent.elements
    return SubgroupHandle(parent, tuple(elems[i] for i in indices))


def _extend(kernel: CayleyGroup, gens: dict, g: int, members: list, seen: bytearray):
    """Grow `members`, the subgroup the kernel ints `gens` generate, to
    <gens, g>, adding g to `gens`, which maps each generator to its step:
    g meets each old member once, then the walk from the new members on
    meets every generator. The old members are closed under the old
    generators, so the result is closed under all."""
    old = len(members)
    step = gens[g] = kernel.step(g)
    for x in members[:old]:
        if not seen[y := step(x)]:
            seen[y] = 1
            members.append(y)
    for _ in walk(list(gens.values()), members, seen, old):
        pass


def _normal_closure(kernel: CayleyGroup, seeds: Sequence) -> Iterator[int]:
    """<S^G> for the kernel ints S = `seeds`, yielded as it is walked from
    the identity along x -> x s for each seed s and x -> g x g^-1 for each
    generator g (`CayleyGroup.conjugations`), each element meeting each
    seed and each map once. The set reached is closed under conjugation,
    so under x -> x (h s h^-1) = h ((h^-1 x h) s) h^-1 too: it is the
    subgroup the conjugates of the seeds generate. A reader may stop part
    way."""
    seen = bytearray(kernel.order)
    seen[kernel.identity] = 1
    steps = [kernel.step(s) for s in seeds] + [c.__getitem__ for c in kernel.conjugations]
    return walk(steps, [kernel.identity], seen)


def _reaches_all(points: Iterator, wanted) -> bool:
    """Whether `points` yields every element of `wanted`, read only until it has."""
    missing = set(wanted)
    for x in points:
        missing.discard(x)
        if not missing:
            return True
    return False


def _commutator_seeds(kernel: CayleyGroup) -> list:
    """The distinct nontrivial commutators of the generators: G' is their normal closure."""
    gens = kernel.generators
    commutators = (kernel.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :])
    return [c for c in dict.fromkeys(commutators) if c != kernel.identity]


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """Commutator subgroup, as the normal closure of generator commutators.

    The quotient by the result is verified to be abelian.
    """
    kernel = G.compiled
    seeds = _commutator_seeds(kernel)
    handle = _handle(G, list(_normal_closure(kernel, seeds)))
    if seeds and not quotient_group(G, handle)[0].is_abelian():
        raise AssertionError("derived subgroup quotient is not abelian")
    return handle


def quotient_group(G: FiniteGroup, N: SubgroupHandle) -> tuple[CayleyGroup, dict]:
    """Quotient G/N, built from the action of G's generators on the cosets
    (numbered by their first element in G's order), and the element ->
    coset index projection. N must be normal."""
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if not N.is_normal():
        raise ValueError("subgroup is not normal")
    kernel = G.compiled
    coset = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset[x] < 0:
            for n in N.indices:
                coset[kernel.mul(x, n)] = len(reps)
            reps.append(x)
    action: dict = {}
    for g, row in zip(kernel.generators, kernel.right):
        action.setdefault(coset[g], [coset[row[r]] for r in reps])
    quotient = CayleyGroup.from_action(len(reps), coset[kernel.identity], list(action.values()))
    return quotient, dict(zip(G.elements, coset))


def abelian_invariants(G: FiniteGroup) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an abelian group.

    The number of invariants is the minimal number of generators, and their
    product is |G|. Raises on non-abelian input.
    """
    if not G.is_abelian():
        raise ValueError("abelian_invariants requires an abelian group")
    n = G.order
    if n == 1:
        return []
    kernel = G.compiled
    orders = [kernel.element_order(x) for x in range(n)]
    # #{x : x^(p^k) = 1} is p^(sum over the p-parts p^e of min(k, e)), so its
    # growth from k-1 to k counts the p-parts with e >= k
    ranks: dict[int, list[int]] = {}
    for p, _ in factorize(n):
        below, k, ranks[p] = 1, 1, []
        while (count := sum(1 for o in orders if p**k % o == 0)) > below:
            ranks[p].append(_p_log(count // below, p))
            below, k = count, k + 1
    divisors = [
        prod(p ** sum(1 for r in rs if r > j) for p, rs in ranks.items())
        for j in reversed(range(max(rs[0] for rs in ranks.values())))
    ]
    assert prod(divisors) == n
    return divisors


def _p_log(n: int, p: int) -> int | None:
    """k with n = p^k, or None when n is not a power of p."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


class MinGenResult(NamedTuple):
    """Outcome of the minimal-generator search.

    When exact, `value` is d(G) and `witness` a generating tuple. When the
    budget ran out, `value` is a proven lower bound and `witness` is None.
    """

    value: int
    witness: tuple | None
    exact: bool


def d_min_generators(G: FiniteGroup, budget: int = 200_000) -> MinGenResult:
    """Smallest d such that some d-tuple generates G, by ascending search.

    Candidate tuples are pruned by fixing the first element up to conjugacy
    (generation is conjugation-invariant). At d = 2 a first element x whose
    normal closure misses G' is skipped: <x, y> = G makes G/<x^G> cyclic.
    As <x^G> is normal, it contains G' exactly when it contains the
    generators' commutators, whose normal closure G' is; its walk
    (`_normal_closure`) stops once it has met them all. A tuple's closure
    stops once it passes |G|/2 elements: by Lagrange a proper subgroup has
    at most |G|/2, so the tuple generates G.
    `budget` bounds the tuples tried, a skipped x counting its pairs; on
    exhaustion the best proven lower bound is reported instead (a
    noncyclic group has no element of order |G|, so d >= 2 is always
    available). The search ends: d(G) <= log2 |G|, as each element outside
    a proper subgroup at least doubles it.
    """
    n = G.order
    if n == 1:
        return MinGenResult(0, (), True)
    kernel = G.compiled
    elems = G.elements
    # element order is a class function and each class leads with its least int
    leaders = [c[0] for c in kernel.conjugacy_classes()]
    for x in leaders:
        if kernel.element_order(x) == n:
            return MinGenResult(1, (elems[x],), True)
    # d = 1 is exhausted: no element has order |G|
    e = kernel.identity
    reps = [x for x in leaders if x != e]
    others = [x for x in range(n) if x != e]
    commutators = _commutator_seeds(kernel)
    tried = 0
    for d in itertools.count(2):
        for first in reps:
            if d == 2 and not _reaches_all(_normal_closure(kernel, [first]), commutators):
                tried += len(others)
                if tried > budget:
                    return MinGenResult(d, None, False)
                continue
            # later elements first: the reported witness depends on this order
            for rest in itertools.product(others[::-1], repeat=d - 1):
                tried += 1
                if tried > budget:
                    return MinGenResult(d, None, False)
                seen = bytearray(n)
                seen[e] = 1
                reached = walk([kernel.step(x) for x in (first, *rest)], [e], seen)
                if next(itertools.islice(reached, n // 2, None), None) is not None:
                    return MinGenResult(d, tuple(elems[x] for x in (first, *rest)), True)


def largest_normal_p_subgroup(G: FiniteGroup, p: int) -> SubgroupHandle:
    """O_p(G), the union of the conjugacy classes whose normal closure is a
    p-group: each such closure is a normal p-subgroup, so lies in O_p, and
    each x in O_p has <x^G> <= O_p. Only the classes of p-power element
    order not in the union yet are walked, each closure stopping once it
    passes the p-part of |G|."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    kernel = G.compiled
    top = 1
    while kernel.order % (top * p) == 0:
        top *= p
    members = bytearray(kernel.order)
    for c in kernel.conjugacy_classes():
        if members[c[0]] or _p_log(kernel.element_order(c[0]), p) is None:
            continue
        closure = list(itertools.islice(_normal_closure(kernel, [c[0]]), top + 1))
        if len(closure) <= top and _p_log(len(closure), p) is not None:
            for x in closure:
                members[x] = 1
    handle = _handle(G, [x for x in range(kernel.order) if members[x]])
    assert handle.is_normal()
    return handle


def orbits(G: PermGroup) -> list[list[int]]:
    """Orbit partition of the points under the group action."""
    return orbit_partition(G.degree, G.generators)

