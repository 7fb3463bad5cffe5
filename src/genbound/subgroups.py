"""Subgroup computations: derived subgroups, quotients, abelian invariants,
minimal generator search, Sylow subgroups and their normal cores, orbits and
the transitive centralizer-order criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from . import perm
from .groups import (
    CayleyGroup,
    ClosureOverflowError,
    FiniteGroup,
    GeneratedGroup,
    PermGroup,
    closure,
)
from .numtheory import factorize, is_prime


class SearchBudgetError(RuntimeError):
    """A bounded search ran out of budget before reaching a conclusion."""


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of `parent` held as an explicit element tuple.

    Elements are stored sorted for determinism. Construction verifies the
    subset is closed, contains the identity, and satisfies Lagrange.
    """

    parent: FiniteGroup
    elements: tuple
    generators: tuple = ()

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        eset = set(elems)
        if self.parent.identity not in eset:
            raise ValueError("subgroup does not contain the identity")
        if self.parent.order % len(elems):
            raise ValueError(
                f"Lagrange violation: {len(elems)} does not divide {self.parent.order}"
            )
        for a in elems:
            if self.parent.inv(a) not in eset:
                raise ValueError("subgroup is not closed under inversion")
        if len(elems) <= 128:
            for a in elems:
                for b in elems:
                    if self.parent.mul(a, b) not in eset:
                        raise ValueError("subgroup is not closed under products")

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        eset = set(self.elements)
        gens = self.parent.generators or self.parent.elements
        return all(
            self.parent.conjugate(a, g) in eset for a in self.elements for g in gens
        )

    def as_group(self) -> GeneratedGroup:
        gens = self.generators or self.elements
        g = GeneratedGroup(self.parent, gens, element_cap=self.parent.element_cap)
        return g


def subgroup_from_generators(parent: FiniteGroup, generators: Sequence) -> SubgroupHandle:
    elems = closure(list(generators), parent.mul, parent.identity, parent.element_cap)
    return SubgroupHandle(parent, tuple(elems), tuple(generators))


def trivial_subgroup(parent: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(parent, (parent.identity,), ())


def normal_closure(parent: FiniteGroup, seeds: Sequence) -> SubgroupHandle:
    """Smallest normal subgroup of parent containing the seeds."""
    conjugators = parent.generators or parent.elements
    gens = list(dict.fromkeys(seeds))
    while True:
        elems = closure(gens, parent.mul, parent.identity, parent.element_cap)
        eset = set(elems)
        new = [
            c
            for a in elems
            for g in conjugators
            if (c := parent.conjugate(a, g)) not in eset
        ]
        if not new:
            return SubgroupHandle(parent, tuple(elems), tuple(gens))
        gens.extend(dict.fromkeys(new))


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """Commutator subgroup, as the normal closure of generator commutators.

    The quotient by the result is verified to be abelian.
    """
    gens = G.generators or G.elements
    seeds = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = G.commutator(a, b)
            if c != G.identity:
                seeds.append(c)
    if not seeds:
        return trivial_subgroup(G)
    handle = normal_closure(G, seeds)
    quotient, _ = quotient_group(G, handle)
    if not quotient.is_abelian():
        raise AssertionError("derived subgroup quotient is not abelian")
    return handle


def quotient_group(G: FiniteGroup, N: SubgroupHandle) -> tuple[CayleyGroup, dict]:
    """Quotient G/N as a Cayley table on coset representatives.

    Returns the quotient group and the element -> coset index projection.
    N must be normal.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if not N.is_normal():
        raise ValueError("subgroup is not normal")
    n_elems = N.elements
    coset_of: dict = {}
    reps: list = []
    for x in G.elements:
        if x in coset_of:
            continue
        idx = len(reps)
        reps.append(x)
        for n in n_elems:
            coset_of[G.mul(x, n)] = idx
    table = tuple(
        tuple(coset_of[G.mul(a, b)] for b in reps) for a in reps
    )
    gens = tuple(dict.fromkeys(coset_of[g] for g in (G.generators or G.elements)))
    return CayleyGroup(table, generators=gens, check=False), coset_of


def abelianization(G: FiniteGroup) -> CayleyGroup:
    quotient, _ = quotient_group(G, derived_subgroup(G))
    return quotient


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
    orders = [G.element_order(x) for x in G.elements]
    partitions: dict[int, list[int]] = {}
    for p, _ in factorize(n):
        # count elements of order dividing p^k to recover the p-type
        counts = []
        k = 1
        while True:
            pk = p**k
            m = sum(1 for o in orders if pk % o == 0)
            counts.append(m)
            if m == n or (counts[-1] == (counts[-2] if len(counts) > 1 else 0)):
                break
            k += 1
        exps = [0] + [_int_log(c, p) for c in counts]
        parts: list[int] = []
        for k, (lo, hi) in enumerate(zip(exps, exps[1:]), start=1):
            grew = hi - lo  # number of parts of size >= k
            while len(parts) < grew:
                parts.append(0)
            for i in range(grew):
                parts[i] = k
        if parts:
            partitions[p] = sorted(parts, reverse=True)
    rank = max(len(parts) for parts in partitions.values())
    divisors = []
    for j in range(rank):
        d = prod(p ** parts[j] for p, parts in partitions.items() if j < len(parts))
        divisors.append(d)
    divisors.reverse()  # ascending, each dividing the next
    assert prod(divisors) == n
    return divisors


def _int_log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


@dataclass(frozen=True)
class MinGenResult:
    """Outcome of the minimal-generator search.

    When exact, `value` is d(G) and `witness` a generating tuple. When the
    budget ran out, `value` is a proven lower bound and `witness` is None.
    """

    value: int
    witness: tuple | None
    exact: bool


def d_min_generators(
    G: FiniteGroup, max_d: int = 8, budget: int = 200_000
) -> MinGenResult:
    """Smallest d such that some d-tuple generates G, by ascending search.

    Candidate tuples are pruned by fixing the first element up to conjugacy
    (generation is conjugation-invariant). `budget` bounds the number of
    closures attempted; on exhaustion the best proven lower bound is
    reported instead (a noncyclic group has no element of order |G|, so
    d >= 2 is always available).
    """
    n = G.order
    if n == 1:
        return MinGenResult(0, (), True)
    for x in G.elements:
        if G.element_order(x) == n:
            return MinGenResult(1, (x,), True)
    # d = 1 is exhausted: no element has order |G|
    reps = [c[0] for c in G.conjugacy_classes() if c[0] != G.identity]
    others = [x for x in G.elements if x != G.identity]
    tried = 0
    for d in range(2, max_d + 1):
        for first in reps:
            stack = [(first,)]
            while stack:
                tup = stack.pop()
                if len(tup) < d:
                    for x in others:
                        stack.append(tup + (x,))
                    continue
                tried += 1
                if tried > budget:
                    return MinGenResult(d, None, False)
                try:
                    size = len(closure(list(tup), G.mul, G.identity, n))
                except ClosureOverflowError:
                    size = 0
                if size == n:
                    return MinGenResult(d, tup, True)
    raise SearchBudgetError(f"no generating tuple of size <= {max_d} found")


def sylow_subgroup(G: FiniteGroup, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup, grown by iterated normalizer extension."""
    n = G.order
    target = 1
    m = n
    while m % p == 0:
        m //= p
        target *= p
    if target == 1:
        return trivial_subgroup(G)
    # seed with an element of order p
    seed = None
    for x in G.elements:
        o = G.element_order(x)
        if o % p == 0:
            seed = G.power(x, o // p)
            break
    assert seed is not None  # Cauchy: p divides |G|
    current = subgroup_from_generators(G, [seed])
    while current.order < target:
        eset = set(current.elements)
        normalizer = [
            g
            for g in G.elements
            if all(G.conjugate(a, g) in eset for a in current.elements)
        ]
        extended = False
        for y in normalizer:
            if y in eset:
                continue
            # order of the coset yP in N/P
            k = 1
            z = y
            while z not in eset:
                z = G.mul(z, y)
                k += 1
            if k % p == 0:
                w = G.power(y, k // p)  # coset of order p
                if w not in eset:
                    current = subgroup_from_generators(
                        G, list(current.generators or current.elements) + [w]
                    )
                    extended = True
                    break
        if not extended:
            raise AssertionError("Sylow extension stalled below the full p-part")
    return current


def largest_normal_p_subgroup(G: FiniteGroup, p: int) -> SubgroupHandle:
    """O_p(G): the intersection of all conjugates of one Sylow p-subgroup."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    sylow = sylow_subgroup(G, p)
    if sylow.order == 1:
        return sylow
    core = set(sylow.elements)
    seen_conjugates = {frozenset(core)}
    for g in G.elements:
        conj = frozenset(G.conjugate(a, g) for a in sylow.elements)
        if conj in seen_conjugates:
            continue
        seen_conjugates.add(conj)
        core &= conj
        if len(core) == 1:
            break
    handle = SubgroupHandle(G, tuple(core))
    assert handle.is_normal()
    return handle


def orbits(G: PermGroup) -> list[list[int]]:
    """Orbit partition of the points under the group action."""
    degree = G.degree
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        queue = [start]
        while queue:
            x = queue.pop()
            for g in G.generators:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        out.append(sorted(orbit))
    return out


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
    transversal = {base: perm.identity_perm(G.degree)}
    queue = [base]
    while queue:
        b = queue.pop(0)
        for g in G.generators:
            c = g[b]
            if c not in transversal:
                transversal[c] = perm.compose(g, transversal[b])
                queue.append(c)
    fixed = set(range(G.degree))
    for b, t_b in transversal.items():
        for g in G.generators:
            c = g[b]
            schreier = perm.compose(
                perm.inverse(transversal[c]), perm.compose(g, t_b)
            )
            fixed = {x for x in fixed if schreier[x] == x}
    return len(fixed)
