"""Finite group realizations with uniform multiply / invert / enumerate.

Four concrete realizations are provided (permutation, Cayley table, matrix
over a prime field, affine semidirect product), plus direct products and
subgroups generated inside an ambient group. Elements are plain hashable
values (tuples or ints); every group value is immutable after construction
and enumeration caches are write-once.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Callable, Iterable, Sequence

from . import linalg, perm

DEFAULT_ELEMENT_CAP = 10**6


class ClosureOverflowError(RuntimeError):
    """Closure grew past the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure overflow: more than {cap} elements")
        self.cap = cap


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
    if not generators:
        return [identity]
    seen = {identity}
    out = [identity]
    frontier = [identity]
    while frontier:
        next_frontier = []
        for a in frontier:
            for g in generators:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    out.append(b)
                    next_frontier.append(b)
                    if len(out) > cap:
                        raise ClosureOverflowError(cap)
        frontier = next_frontier
    return out


class FiniteGroup:
    """Base class: mul/inv/identity plus cached element enumeration."""

    element_cap: int = DEFAULT_ELEMENT_CAP
    _elements: tuple | None = None
    _index: dict | None = None

    # -- realization interface -------------------------------------------

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    @property
    def generators(self) -> tuple:
        raise NotImplementedError

    def _enumerate(self) -> list:
        return closure(self.generators, self.mul, self.identity, self.element_cap)

    # -- derived, shared machinery ---------------------------------------

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(self._enumerate())
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, x) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index[x]

    def __contains__(self, x) -> bool:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return x in self._index

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv(a), -n)
        result = None
        while n:
            if n & 1:
                result = a if result is None else self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.identity if result is None else result

    def element_order(self, a) -> int:
        e = self.identity
        x = a
        n = 1
        while x != e:
            x = self.mul(x, a)
            n += 1
        return n

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def conjugate(self, a, g):
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def is_abelian(self) -> bool:
        elems = self.elements
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                if self.mul(a, b) != self.mul(b, a):
                    return False
        return True

    def conjugacy_classes(self) -> list[tuple]:
        """Conjugacy classes as tuples, each in element enumeration order."""
        remaining = dict.fromkeys(self.elements)
        classes = []
        elems = self.elements
        while remaining:
            x = next(iter(remaining))
            cls = {self.conjugate(x, g) for g in elems}
            classes.append(tuple(e for e in elems if e in cls))
            for e in cls:
                remaining.pop(e, None)
        return classes

    def to_cayley(self) -> tuple["CayleyGroup", dict]:
        """Cayley-table copy of this group plus the element -> index map."""
        elems = self.elements
        index = {e: i for i, e in enumerate(elems)}
        table = tuple(
            tuple(index[self.mul(a, b)] for b in elems) for a in elems
        )
        gens = tuple(index[g] for g in self.generators)
        return CayleyGroup(table, generators=gens, check=False), index

    def describe(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class PermGroup(FiniteGroup):
    """Permutation group on points 0..degree-1, elements are image tuples."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Sequence[int]],
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.degree = degree
        gens = []
        for g in generators:
            g = perm.validate_perm(g)
            if len(g) != degree:
                raise ValueError(f"generator degree {len(g)} != {degree}")
            gens.append(g)
        self._generators = tuple(gens)
        self.element_cap = element_cap

    @property
    def identity(self):
        return perm.identity_perm(self.degree)

    @property
    def generators(self):
        return self._generators

    def mul(self, a, b):
        return perm.compose(a, b)

    def inv(self, a):
        return perm.inverse(a)

    def element_order(self, a) -> int:
        return perm.perm_order(a)

    def describe(self) -> str:
        return f"perm-group(degree={self.degree}, generators={len(self._generators)})"


class CayleyGroup(FiniteGroup):
    """Group given by a full multiplication table; elements are 0..n-1."""

    # Full associativity is cubic in the order; above this it is spot-checked.
    FULL_ASSOCIATIVITY_LIMIT = 64

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        generators: Sequence[int] | None = None,
        check: bool = True,
    ):
        n = len(table)
        self.table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table is not square")
        if any(not (0 <= x < n) for row in self.table for x in row):
            raise ValueError("table entry out of range")
        identity = next(
            (e for e in range(n) if all(self.table[e][x] == x for x in range(n))),
            None,
        )
        if identity is None or any(self.table[x][identity] != x for x in range(n)):
            raise ValueError("table has no two-sided identity")
        self._identity = identity
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity and self.table[b][a] == identity:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no two-sided inverse")
        self._inv = tuple(inv)
        if check:
            self._check_structure(n)
        if generators is None:
            self._generators = tuple(range(n))
        else:
            self._generators = tuple(generators)
        self._elements = tuple(range(n))

    def _check_structure(self, n: int):
        for a in range(n):
            row = self.table[a]
            col = tuple(self.table[x][a] for x in range(n))
            if sorted(row) != list(range(n)) or sorted(col) != list(range(n)):
                raise ValueError(f"row/column of {a} is not a bijection")
        triples = (
            itertools.product(range(n), repeat=3)
            if n <= self.FULL_ASSOCIATIVITY_LIMIT
            else itertools.product(range(min(n, 16)), range(n), range(min(n, 16)))
        )
        for a, b, c in triples:
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise ValueError(f"table is not associative at ({a},{b},{c})")

    @property
    def identity(self):
        return self._identity

    @property
    def generators(self):
        return self._generators

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def describe(self) -> str:
        return f"cayley-group(order={self.order})"


def cyclic_group(n: int) -> CayleyGroup:
    """Cyclic group of order n as a Cayley table (identity is 0)."""
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return CayleyGroup(table, generators=(1 % n,), check=False)


class MatrixGroup(FiniteGroup):
    """Group of invertible dim x dim matrices over F_p, given by generators."""

    def __init__(
        self,
        p: int,
        dim: int,
        generators: Iterable[Sequence[Sequence[int]]],
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.p = p
        self.dim = dim
        gens = []
        for g in generators:
            m = linalg.normalize_matrix(g, p)
            if len(m) != dim:
                raise ValueError(f"generator dimension {len(m)} != {dim}")
            linalg.mat_inv(m, p)  # raises if singular
            gens.append(m)
        self._generators = tuple(gens)
        self.element_cap = element_cap

    @property
    def identity(self):
        return linalg.mat_identity(self.dim)

    @property
    def generators(self):
        return self._generators

    def mul(self, a, b):
        return linalg.mat_mul(a, b, self.p)

    def inv(self, a):
        return linalg.mat_inv(a, self.p)

    def describe(self) -> str:
        return f"matrix-group(p={self.p}, dim={self.dim})"


class AffineSemidirect(FiniteGroup):
    """Semidirect product of F_p^dim (translations) with a point group.

    Elements are pairs (v, a) with v in F_p^dim and a in the point group;
    the point group acts through `action`, mapping a point-group element to
    an invertible dim x dim matrix over F_p. Multiplication is

        (v1, a1) * (v2, a2) = (v1 + action(a1) v2, a1 a2)

    so the order is p^dim * |point group|.
    """

    def __init__(
        self,
        p: int,
        dim: int,
        point_group: FiniteGroup,
        action: Callable,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.p = p
        self.dim = dim
        self.point_group = point_group
        self._action_fn = action
        self._action_cache: dict = {}
        self.element_cap = element_cap

    def action(self, a) -> linalg.Matrix:
        m = self._action_cache.get(a)
        if m is None:
            m = linalg.normalize_matrix(self._action_fn(a), self.p)
            if len(m) != self.dim:
                raise ValueError("action matrix has wrong dimension")
            self._action_cache[a] = m
        return m

    @property
    def identity(self):
        return ((0,) * self.dim, self.point_group.identity)

    @property
    def generators(self):
        basis = tuple(
            (tuple(1 if i == j else 0 for j in range(self.dim)), self.point_group.identity)
            for i in range(self.dim)
        )
        points = tuple(((0,) * self.dim, g) for g in self.point_group.generators)
        return basis + points

    def mul(self, x, y):
        v1, a1 = x
        v2, a2 = y
        moved = linalg.mat_vec(self.action(a1), v2, self.p)
        return (linalg.vec_add(v1, moved, self.p), self.point_group.mul(a1, a2))

    def inv(self, x):
        v, a = x
        a_inv = self.point_group.inv(a)
        return (linalg.vec_neg(linalg.mat_vec(self.action(a_inv), v, self.p), self.p), a_inv)

    def _enumerate(self) -> list:
        total = self.p**self.dim * self.point_group.order
        if total > self.element_cap:
            raise ClosureOverflowError(self.element_cap)
        vectors = itertools.product(range(self.p), repeat=self.dim)
        return [
            (v, a) for v in vectors for a in self.point_group.elements
        ]

    @property
    def order(self) -> int:
        return self.p**self.dim * self.point_group.order

    def describe(self) -> str:
        return (
            f"affine-semidirect(p={self.p}, dim={self.dim}, "
            f"point={self.point_group.describe()})"
        )


class ProductGroup(FiniteGroup):
    """Direct product; elements are tuples of factor elements."""

    def __init__(self, factors: Sequence[FiniteGroup], element_cap: int = DEFAULT_ELEMENT_CAP):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)
        self.element_cap = element_cap

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    @property
    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators:
                gens.append(
                    tuple(g if j == i else h.identity for j, h in enumerate(self.factors))
                )
        return tuple(gens)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def _enumerate(self) -> list:
        total = prod(f.order for f in self.factors)
        if total > self.element_cap:
            raise ClosureOverflowError(self.element_cap)
        return list(itertools.product(*(f.elements for f in self.factors)))

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def describe(self) -> str:
        return "product(" + ", ".join(f.describe() for f in self.factors) + ")"


def power_group(base: FiniteGroup, n: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> ProductGroup:
    return ProductGroup([base] * n, element_cap=element_cap)


class GeneratedGroup(FiniteGroup):
    """Subgroup of an ambient group generated by given elements.

    Only the generated elements are ever enumerated; the ambient group
    supplies mul/inv and is never enumerated itself.
    """

    def __init__(
        self,
        ambient: FiniteGroup,
        generators: Sequence,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.ambient = ambient
        self._generators = tuple(generators)
        self.element_cap = element_cap

    @property
    def identity(self):
        return self.ambient.identity

    @property
    def generators(self):
        return self._generators

    def mul(self, a, b):
        return self.ambient.mul(a, b)

    def inv(self, a):
        return self.ambient.inv(a)

    def describe(self) -> str:
        return f"generated-subgroup(of {self.ambient.describe()})"
