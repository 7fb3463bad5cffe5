"""Finite group realizations with uniform multiply / invert / enumerate.

Two concrete realizations are provided, permutations and matrices over a
prime field, plus direct products and subgroups generated inside an
ambient group. Elements are plain hashable values (tuples or ints); every
group value is immutable after construction and enumeration caches are
write-once. `step(c)` is x -> x * c as a unary map (c's itemgetter on
permutations, which `map` calls with no Python frame). Each enumerates
once, on the first read of `elements`, by a BFS run to the end that forms
x * g by each generator's step and records their right action, then reads
the BFS tree off it and compiles the two, as it ends, to the one integer
kernel that structure work runs on: `FiniteGroup.compiled`, a `CayleyGroup`
on 0..n-1, whose words, table and conjugation maps are read from the tree.
`walk` is the one closure walk on kernel ints; it also picks the
generators that turn a Cayley table input into such a kernel.
"""

from __future__ import annotations

import itertools
from array import array
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import linalg, perm

# elements an enumeration may reach before it raises ClosureOverflowError
DEFAULT_ELEMENT_CAP = 10**6


class ClosureOverflowError(RuntimeError):
    """Closure grew past the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure overflow: more than {cap} elements")
        self.cap = cap


def walk(steps, points: list, seen: bytearray, start: int = 0) -> Iterator[int]:
    """The closure walk on kernel ints (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, 4.1): yields points[start:], then
    each int the unary `steps` reach from them, marking it in `seen` and
    appending it to `points` as it is reached, so a reader may stop part
    way. The caller marks the points it passes in. Each point from `start`
    on meets every step once, so if the points before `start` already map
    into `points` under every step, a walk run to the end leaves `points`
    closed under them."""
    yield from points[start:]
    append = points.append
    for x in itertools.islice(points, start, None):  # the list iterator sees appends
        for step in steps:
            if not seen[y := step(x)]:
                seen[y] = 1
                append(y)
                yield y


def _bfs(steps, identity, out: list, action: list) -> Iterator:
    """The enumeration BFS behind `FiniteGroup.elements`: `walk` on hashable
    elements, with steps[j] forming x * g_j and a position dict for `seen`,
    under `DEFAULT_ELEMENT_CAP`. Appends each element to `out` as it is
    reached, identity first, and yields it, so a reader may stop at the
    first element it wants; action[j][i] is the position of out[i] * g_j,
    filled for every element it has moved past."""
    cap = DEFAULT_ELEMENT_CAP
    position = {identity: 0}
    out.append(identity)
    yield identity
    edges = tuple(zip(steps, action))
    for a in out:
        for step, row in edges:
            b = step(a)
            i = position.get(b)
            if i is None:
                i = position[b] = len(out)
                out.append(b)
                if len(out) > cap:
                    raise ClosureOverflowError(cap)
                row.append(i)
                yield b
            else:
                row.append(i)


def _enumerate(steps, identity) -> tuple[list, CayleyGroup]:
    """(elements, kernel): the enumeration BFS run to the end, and the
    kernel it compiles to, from its action and its tree read once the BFS
    has freed its position dict: y is reached at the first product equal to
    y."""
    out: list = []
    action: list = [[] for _ in steps]
    for _ in _bfs(steps, identity, out, action):
        pass
    parents, moves = array("i"), array("B" if len(steps) < 256 else "i")
    y = 1
    edges = tuple(enumerate(action))
    for x in range(len(out)):
        for j, row in edges:
            if row[x] == y:
                y += 1
                parents.append(x)
                moves.append(j)
    tree = (range(1, len(out)), parents, moves)
    return out, CayleyGroup.from_action(len(out), 0, action, tree)


def orbit_partition(n: int, maps: Sequence[Sequence[int]]) -> list[list[int]]:
    """Orbits of 0..n-1 under the maps, each sorted, listed by least point."""
    seen = bytearray(n)
    out = []
    for start in range(n):
        if not seen[start]:
            orbit = [start]
            seen[start] = 1
            for x in orbit:
                for m in maps:
                    y = m[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            orbit.sort()
            out.append(orbit)
    return out


class FiniteGroup:
    """Base class: mul/inv/identity, and a cached enumeration that compiles
    the int kernel as it ends (`_generate`)."""

    _elements: Sequence | None = None  # a tuple, or a range on a kernel
    _index: dict | None = None
    _compiled: CayleyGroup | None = None

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

    def step(self, c) -> Callable:
        """x -> x * c as a unary step: x -> mul(x, c)."""
        return lambda x, mul=self.mul: mul(x, c)

    def _steps(self) -> list:
        """One unary step per generator, forming x * g (`step`)."""
        return list(map(self.step, self.generators))

    def _generate(self) -> list:
        """The elements in enumeration order: the BFS over the generators'
        steps, which compiles the kernel as it ends, as an override does."""
        out, self._compiled = _enumerate(self._steps(), self.identity)
        return out

    # -- derived, shared machinery ---------------------------------------

    @property
    def elements(self) -> Sequence:
        """The elements in enumeration order, enumerated on first read. An
        enumeration that raises keeps nothing, so the next read runs it
        again."""
        if self._elements is None:
            self._elements = tuple(self._generate())
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def _positions(self) -> dict:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index

    def element_index(self, x) -> int:
        return self._positions()[x]

    @property
    def compiled(self) -> CayleyGroup:
        """This group on 0..n-1, int i standing for elements[i]: the
        generators' right action and its BFS tree, compiled by the
        enumeration as it ends, so nothing is walked again."""
        if self._compiled is None:
            self.elements  # the enumeration compiles it
        return self._compiled

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

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, read off the kernel."""
        gens, right = self.compiled.generators, self.compiled.right
        return all(
            right[j][a] == right[i][b] for i, a in enumerate(gens) for j, b in enumerate(gens[:i])
        )

    def conjugacy_classes(self) -> list[tuple]:
        """Conjugacy classes as tuples, each in element enumeration order and
        listed by first element: the orbits of x -> g x g^-1 over the
        generators g, walked on the kernel in O(|G| * #generators) once
        `CayleyGroup.conjugations` has built each map in as much. The
        kernel keeps the partition, so later calls, on the kernel or on the
        group, walk nothing."""
        kernel = self.compiled
        if kernel._classes is None:
            kernel._classes = [
                tuple(orbit) for orbit in orbit_partition(kernel.order, kernel.conjugations)
            ]
        if self is kernel:
            return list(kernel._classes)
        elems = self.elements
        return [tuple(elems[i] for i in orbit) for orbit in kernel._classes]

    def describe(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class PermGroup(FiniteGroup):
    """Permutation group on points 0..degree-1, elements are image tuples."""

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        self.degree = degree
        gens = []
        for g in generators:
            g = perm.validate_perm(g)
            if len(g) != degree:
                raise ValueError(f"generator degree {len(g)} != {degree}")
            gens.append(g)
        self._generators = tuple(gens)

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

    def step(self, c) -> Callable:
        """c's itemgetter, forming the `perm.compose` product x * c uncalled;
        below degree 2, where it returns no tuple, x -> mul(x, c)."""
        return itemgetter(*c) if self.degree > 1 else super().step(c)

    def describe(self) -> str:
        return f"perm-group(degree={self.degree}, generators={len(self._generators)})"


class CayleyGroup(FiniteGroup):
    """The integer kernel: a group on 0..n-1 held as the right action of a
    set of generators that generates it (right[j][i] is i * generators[j]),
    and its BFS tree from the identity: words, the table and the conjugation
    maps are each one pass over it. a * b walks b's word from a. Built by
    `from_action`, or from a multiplication table: the table is validated,
    and its columns for a few generators are all that is kept.
    """

    _words = _back = _conjugations = _classes = None

    def __init__(self, table: Sequence[Sequence[int]]):
        """The group of a multiplication table on 0..n-1. Its generators are
        picked greedily, each the least int outside the subgroup the earlier
        ones generate, so each pick at least doubles that subgroup and there
        are at most log2(n) of them. Associativity is Light's test over the
        picks: (x g) y = x (g y) for all x, y and each pick g. The elements
        a with (x a) y = x (a y) for all x, y are closed under products and
        hold the identity, and each element is a left-nested product of
        picks, so the whole table is associative."""
        n = len(table)
        table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table is not square")
        if any(not (0 <= x < n) for row in table for x in row):
            raise ValueError("table entry out of range")
        e = next((e for e in range(n) if table[e] == tuple(range(n))), None)
        if e is None or any(table[x][e] != x for x in range(n)):
            raise ValueError("table has no two-sided identity")
        inv = [row.index(e) if e in row else None for row in table]
        for a, b in enumerate(inv):
            if b is None or table[b][a] != e:
                raise ValueError(f"element {a} has no two-sided inverse")
        full = list(range(n))
        for a, (row, col) in enumerate(zip(table, zip(*table))):
            if sorted(row) != full or sorted(col) != full:
                raise ValueError(f"row/column of {a} is not a bijection")
        columns: list = []
        reached, seen = [e], bytearray(n)
        seen[e] = 1
        while len(reached) < n:
            columns.append([row[seen.index(0)] for row in table])
            for _ in walk([c.__getitem__ for c in columns], reached, seen):
                pass
        for column in columns:
            g = column[e]
            times_g = itemgetter(*table[g])  # row x -> the row of x (g y) over y
            for x, xg in enumerate(column):
                if table[xg] != (right := times_g(table[x])):
                    y = next(y for y in range(n) if table[xg][y] != right[y])
                    raise ValueError(f"table is not associative at ({x},{g},{y})")
        self._hold(n, e, columns)

    def _hold(self, order: int, identity: int, action: Sequence, tree=None) -> None:
        """Hold the action and its BFS tree: three sequences in BFS order,
        the identity left out, of each element y, its parent x and the
        generator position j with y = x * g_j, so a pass meets every parent
        before its children. Without a tree, one walk of the action from the
        identity builds it in C ints; ValueError if it misses an element."""
        self._identity = identity
        self.right = tuple(action)
        self._generators = tuple(row[identity] for row in action)
        self._elements = range(order)
        if tree is None:
            seen = bytearray(order)
            seen[identity] = 1
            tree = reached, parents, moves = array("i"), array("i"), array("i")
            for x in itertools.chain((identity,), reached):
                for j, row in enumerate(self.right):
                    if not seen[y := row[x]]:
                        seen[y] = 1
                        reached.append(y)
                        parents.append(x)
                        moves.append(j)
            if len(reached) + 1 != order:
                raise ValueError(
                    f"generators do not generate the group: they reach "
                    f"{len(reached) + 1} of {order} elements"
                )
        self._tree = tree

    @classmethod
    def from_action(cls, order: int, identity: int, action: Sequence, tree=None) -> CayleyGroup:
        """The group on 0..order-1 in which action[j][i] is i * g_j for its
        generators g_j, with the given BFS tree or one `_hold` walks. Its
        elements are `range(order)`, which holds no int objects."""
        group = cls.__new__(cls)
        group._hold(order, identity, action, tree)
        return group

    @property
    def identity(self):
        return self._identity

    @property
    def generators(self):
        return self._generators

    @property
    def table(self) -> tuple:
        """The full multiplication table, built on each call in O(|G|^2)
        along the BFS tree: the column of x * h, that is a * x * h for
        every a, is right[h] applied to the column of x."""
        right = self.right
        columns: list = [None] * self.order
        columns[self._identity] = self._elements
        for y, x, j in zip(*self._tree):
            columns[y] = list(map(right[j].__getitem__, columns[x]))
        return tuple(zip(*columns))

    def mul(self, a, b):
        right = self.right
        for j in (self._words or self.words())[b]:
            a = right[j][a]
        return a

    def step(self, s) -> Callable[[int], int]:
        """x -> x * s as a unary step for `walk`: s's word read once, and
        the rows right[j] along it bound once."""
        rows = [self.right[j] for j in (self._words or self.words())[s]]

        def times(x):
            for row in rows:
                x = row[x]
            return x

        return times

    def inv(self, a):
        """a^-1: if a = g_1 ... g_k along its word, e g_k^-1 ... g_1^-1,
        read through the inverse rows in O(k)."""
        back = self.back
        x = self._identity
        for j in reversed((self._words or self.words())[a]):
            x = back[j][x]
        return x

    @property
    def compiled(self) -> CayleyGroup:
        """The kernel itself. It is not stored on itself: a self-reference
        would leave every kernel to the cyclic garbage collector."""
        return self

    def words(self) -> list:
        """Each element's word (generator positions) along the BFS tree,
        built on first use."""
        if self._words is None:
            words: list = [None] * self.order
            words[self._identity] = ()
            for y, x, j in zip(*self._tree):
                words[y] = words[x] + (j,)
            self._words = words
        return self._words

    @property
    def back(self) -> tuple:
        """back[j][i] is i * generators[j]^-1: the inverse of right[j],
        built once in O(|G|) a generator, from the ints right[j] holds."""
        if self._back is None:
            self._back = tuple(perm.inverse(row) for row in self.right)
        return self._back

    @property
    def conjugations(self) -> tuple:
        """conjugations[j][i] is g i g^-1 for g = generators[j]. A pass over
        the BFS tree gives left[i] = g i, as left[x h] is left[x] h for
        each generator h; then g (i g) g^-1 = g i is left[i], so the map
        sends i * g, that is right[j][i], to left[i]. Each map costs O(|G|)
        and holds the ints the action holds."""
        if self._conjugations is None:
            right = self.right
            maps = []
            for g, row in zip(self._generators, right):
                left = [None] * self.order
                left[self._identity] = g
                for y, x, j in zip(*self._tree):
                    left[y] = right[j][left[x]]
                conjugation = [None] * self.order
                for x in row:
                    conjugation[row[x]] = left[x]
                maps.append(conjugation)
            self._conjugations = tuple(maps)
        return self._conjugations

    def describe(self) -> str:
        return f"cayley-group(order={self.order})"


class MatrixGroup(FiniteGroup):
    """Group of invertible dim x dim matrices over F_p, given by generators."""

    def __init__(self, p: int, dim: int, generators: Iterable[Sequence[Sequence[int]]]):
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


class ProductGroup(FiniteGroup):
    """Direct product; elements are tuples of factor elements."""

    def __init__(self, factors: Sequence[FiniteGroup]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)

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

    def _generate(self) -> list:
        if self.order > DEFAULT_ELEMENT_CAP:
            raise ClosureOverflowError(DEFAULT_ELEMENT_CAP)
        return super()._generate()

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def describe(self) -> str:
        return "product(" + ", ".join(f.describe() for f in self.factors) + ")"


class GeneratedGroup(FiniteGroup):
    """Subgroup of an ambient group generated by given elements.

    Only the generated elements are ever enumerated; the ambient group
    supplies mul/inv and is never enumerated itself.
    """

    def __init__(self, ambient: FiniteGroup, generators: Sequence):
        self.ambient = ambient
        self._generators = tuple(generators)

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
