"""Exact enumeration of homomorphisms from finite presentations into finite
targets, the log-ratio functional h, and witness quotients realizing the
full homomorphism count. Concrete source groups are first compiled to
Schreier presentations, so one backtracking search serves every source.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from math import gcd, prod
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from . import perm
from .groups import (
    DEFAULT_ELEMENT_CAP,
    CayleyGroup,
    ClosureOverflowError,
    FiniteGroup,
    GeneratedGroup,
    PermGroup,
    ProductGroup,
    _bfs,
    _enumerate,
    orbit_partition,
)
from .presentations import (
    Presentation,
    Word,
    canonical_relator,
    cyclic_root,
    free_product,
    inverse_word,
)
from .records import immutable, record_eq, record_repr, set_fields

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_WITNESS_WIDTH_CAP = 512


class HomSearchBudgetError(RuntimeError):
    """The backtracking search exceeded its node budget; no partial counts.

    `nodes` is the number of nodes visited when it stopped and `depth` the
    most generators it had assigned consistently with the relators; or, if
    `planned`, the nodes a count's class table shows it would visit, and 0."""

    def __init__(self, budget: int, nodes: int, depth: int, generators: int, planned=False):
        super().__init__(
            f"search exceeded {budget} nodes: {'planned' if planned else 'visited'} {nodes}, "
            f"deepest level {depth} of {generators} generators"
        )
        self.nodes = nodes
        self.depth = depth


class WitnessWidthError(RuntimeError):
    """Too many homomorphisms for a witness quotient at the given cap."""


class HomCountResult:
    """Exact homomorphism count into a target of known order.

    The pair (count, target_order) is exact; `h` is a derived display value
    only. Downstream certificates compare the exact pair.
    """

    __slots__ = _fields = ("count", "target_order")
    __setattr__ = __delattr__ = immutable
    __repr__, __eq__ = record_repr, record_eq

    def __init__(self, count: int, target_order: int):
        if count < 1:
            raise ValueError("homomorphism count must be >= 1")
        if target_order < 1:
            raise ValueError("target order must be >= 1")
        set_fields(self, count=count, target_order=target_order)

    @property
    def h(self) -> float:
        if self.target_order == 1:
            return 0.0
        return math.log(self.count) / math.log(self.target_order)


def _single_generator_order_bound(pres: Presentation, gen: int) -> int:
    """gcd of net exponents of single-generator relators of gen (0 = none)."""
    bound = 0
    for word in pres.relators:
        if word and all(idx == gen for idx, _ in word):
            net = sum(exp for _, exp in word)
            bound = gcd(bound, abs(net))
    return bound


def evaluate_word(word: Word, images: Sequence, group: FiniteGroup):
    """The value in `group` of a word with generator i sent to images[i]."""
    result = None
    for idx, exp in word:
        value = images[idx] if exp == 1 else group.power(images[idx], exp)
        result = value if result is None else group.mul(result, value)
    return group.identity if result is None else result


def _stages(root: Word, gen: int) -> list:
    """A root that starts at `gen` as the stages of its check on gen's
    candidates x: the exponent e of each syllable gen^e, for x^e, and each
    run of other syllables as a word. A root without gen starts at x^0."""
    runs = itertools.groupby(root, lambda s: s[0] == gen)
    stages = [next(run)[1] if own else tuple(run) for own, run in runs]
    return stages if isinstance(stages[0], int) else [0, *stages]


class _BacktrackSearch:
    """Shared backtracking core for counting/enumerating homomorphisms.

    Generators are assigned in order of ascending candidate-set size (most
    constrained first); each relator is checked as soon as all generators it
    mentions are assigned, as a power of its root (`cyclic_root`).
    Deterministic given the target's class table.

    The search reads the target only through its class table: the target's
    order, one representative, size and element order per conjugacy class
    (element order is a class function), Omega_m and a membership test for
    it. Omega_m is the union of the classes whose order divides m (every
    class for m = 0): the elements x with x^m = e. A generator with order
    bound m takes the candidates Omega_m, and a relator root^n = e is
    checked as root in Omega_n, which is closed under conjugation: so each
    root starts at its level's generator, and a level filters its candidates
    x at once, mapping them through x -> x * C (`FiniteGroup.step`) for each
    run C of earlier images and x -> x * x^e (powers listed once a search):
    "(a*b)^n" costs one step and one membership test a candidate. The table
    comes from the enumerated kernel (`_kernel_classes`), or, for a count with
    `by_cycle_type` into Sym(n) or Alt(n), from cycle types
    (`_cycle_type_classes`), which never enumerates the target.
    """

    def __init__(
        self, pres: Presentation, target: FiniteGroup, node_budget: int, by_cycle_type=False
    ):
        self.pres = pres
        self.target = target
        self.node_budget = node_budget
        self.nodes = 0
        self.depth = 0  # the most generators assigned consistently so far
        k = len(pres.generators)
        self.bounds = [_single_generator_order_bound(pres, g) for g in range(k)]
        table = by_cycle_type and _cycle_type_classes(self.bounds, target)
        self.target_order, self.classes, self._omega, self._contains = (
            table or _kernel_classes(target)
        )
        self.sizes = [sum(size for _, size, _ in self._classes(m)) for m in self.bounds]
        # most constrained generator first
        self.order = sorted(range(k), key=lambda g: (self.sizes[g], g))
        position = {g: i for i, g in enumerate(self.order)}
        self.checks: list[list[tuple[Word, int]]] = [[] for _ in range(k)]
        for word in pres.relators:
            used = {idx for idx, _ in word}
            root, n = cyclic_root(word)
            # single-generator relators and roots () hold for every candidate already
            if len(used) < 2 or not root:
                continue
            gen = self.order[level := max(position[g] for g in used)]
            r = next((i for i, (g, _) in enumerate(root) if g == gen), 0)
            self.checks[level].append((root[r:] + root[:r], n))

    def _classes(self, m: int) -> list[tuple]:
        """The classes making up Omega_m."""
        return [c for c in self.classes if m % c[2] == 0]

    def run(self, visit: Callable[[tuple], object] | None) -> int:
        """Visit each homomorphism, as its tuple of generator images, in
        order until `visit` returns a truthy value; the number visited.

        With no `visit` it only counts: the first generator in `order` takes
        one representative x per class in its Omega, and
        |Hom| = sum over x of |x^G| * #{homs with that image}, since
        conjugating a hom by g gives a hom, sending it to g x g^-1."""
        k = len(self.pres.generators)
        target = self.target
        first = self.order[0] if visit is None and self.order else None
        weights = None
        if first is not None:
            weights = {rep: size for rep, size, _ in self._classes(self.bounds[first])}
            # level 0 has no checks: each representative tries all of level 1
            planned = len(weights) * (1 + (self.sizes[self.order[1]] if k > 1 else 0))
            if planned > self.node_budget:
                raise HomSearchBudgetError(self.node_budget, planned, 0, k, planned=True)
        # each Omega_n's membership test, built once per search
        contains = {n: self._contains(n) for n in {n for level in self.checks for _, n in level}}
        # per level, its checks' stages, and its candidates' powers that they
        # read by exponent: the candidates themselves at 1
        checks, powers = [], []
        for gen, level_checks in zip(self.order, self.checks):
            xs = tuple(weights) if gen == first else self._omega(self.bounds[gen])
            checks.append([(_stages(root, gen), contains[n]) for root, n in level_checks])
            exponents = {e for stages, _ in checks[-1] for e in stages if isinstance(e, int)}
            powers.append({e: [target.power(x, e) for x in xs] for e in exponents - {1}} | {1: xs})
        images: list = [None] * k
        count = 0

        def charge(tried: int) -> None:
            """Count `tried` more nodes, stopping at the first past the budget."""
            self.nodes = min(self.nodes + tried, self.node_budget + 1)
            if self.nodes > self.node_budget:
                raise HomSearchBudgetError(self.node_budget, self.nodes, self.depth, k)

        def descend(level: int) -> bool:
            """Extend the assignment from `level` on; True to stop."""
            nonlocal count
            if level > self.depth:
                self.depth = level
            if level == k:
                count += weights[images[first]] if weights else 1
                return visit is not None and bool(visit(tuple(images)))
            gen = self.order[level]
            xs = powers[level][1]
            alive = range(len(xs))  # the positions of the candidates kept
            for (head, *rest), member in checks[level]:
                values = map(powers[level][head].__getitem__, alive)
                for stage in rest:
                    values = (
                        map(target.mul, values, map(powers[level][stage].__getitem__, alive))
                        if isinstance(stage, int)
                        else map(target.step(evaluate_word(stage, images, target)), values)
                    )
                alive = list(itertools.compress(alive, map(member, values)))
            # charge the candidates filtered out at each descent, as if each
            # were checked as it is reached
            tried = 0
            for p in alive:
                charge(p + 1 - tried)
                tried = p + 1
                images[gen] = xs[p]
                if descend(level + 1):
                    return True
            charge(len(xs) - tried)
            return False

        try:
            descend(0)
        finally:
            del descend  # it holds itself: free it, and the target, now
        return count


def _kernel_classes(target: FiniteGroup) -> tuple:
    """The class table of an enumerated target, on its kernel: its order;
    per conjugacy class, its least element, its size and its element order;
    Omega_m in element order; Omega_n's membership, a set's. The classes
    are the kernel's, partitioned once per kernel."""
    elements = target.elements
    orbits = target.compiled.conjugacy_classes()
    classes = [(elements[c[0]], len(c), target.element_order(elements[c[0]])) for c in orbits]

    def omega(m: int) -> tuple:
        ints = [x for c, (_, _, order) in zip(orbits, classes) if m % order == 0 for x in c]
        return tuple(map(elements.__getitem__, sorted(ints)))

    return len(elements), classes, omega, lambda n: set(omega(n)).__contains__


def _cycle_types(n: int, parts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The partitions of n into `parts` (descending), largest parts first."""
    if not parts:
        if n == 0:
            yield ()
        return
    for count in range(n // parts[0], -1, -1):
        for rest in _cycle_types(n - count * parts[0], parts[1:]):
            yield (parts[0],) * count + rest


def _cycle_type_classes(bounds: Sequence[int], target: FiniteGroup) -> tuple | None:
    """The class table of a permutation target of degree n whose order is
    n! or n!/2, that is Sym(n) or Alt(n), read from cycle types; None for
    any other target. One class per cycle type lambda whose parts divide a
    bound (only the even ones in Alt(n)), of size n!/z_lambda and order
    lcm(lambda). That size, the class's in Sym(n), is a valid weight in
    Alt(n) too: conjugating by Sym(n) maps homs into Alt(n) to homs into
    Alt(n). Omega_m is generated cycle type by cycle type, and a root lies in
    Omega_n when its cycle lengths divide n.

    Schreier-Sims (`perm.group_order`) runs only when the table could serve
    the count: when each Omega_m with m > 0 fits the element cap at its size
    in Sym(n), counted before anything is listed. The permutations of j
    points with x^m = e number a_j = sum over d | m of (j-1)!/(j-d)! a_{j-d},
    d the length of the cycle through the last point, and a_j grows with j.
    Omega_0 is the target itself: a recognized target above the cap raises
    `ClosureOverflowError`, as its enumeration would."""
    if not isinstance(target, PermGroup):
        return None
    n = target.degree
    for m in set(bounds) - {0}:
        a = [1]
        while len(a) <= n and a[-1] <= DEFAULT_ELEMENT_CAP:
            j = len(a)
            divisors = [d for d in range(1, min(j, m) + 1) if m % d == 0]
            a.append(sum(math.perm(j - 1, d - 1) * a[j - d] for d in divisors))
        if a[-1] > DEFAULT_ELEMENT_CAP:
            return None
    full = math.factorial(n)
    order = perm.group_order(n, target.generators)
    if order != full and 2 * order != full:
        return None
    if 0 in bounds and order > DEFAULT_ELEMENT_CAP:
        raise ClosureOverflowError(DEFAULT_ELEMENT_CAP)
    parts = [d for d in range(n, 0, -1) if any(m % d == 0 for m in bounds)]
    classes = [
        (
            next(perm.perms_of_cycle_type(n, lengths)),
            full // prod(d**c * math.factorial(c) for d, c in Counter(lengths).items()),
            math.lcm(*lengths),
        )
        for lengths in _cycle_types(n, parts)
        if order == full or (n - len(lengths)) % 2 == 0
    ]

    def omega(m: int) -> tuple:
        return tuple(
            itertools.chain.from_iterable(
                perm.perms_of_cycle_type(n, perm.cycle_lengths(rep))
                for rep, _, element_order in classes
                if m % element_order == 0
            )
        )

    return order, classes, omega, lambda m: lambda x: perm.order_divides(x, m)


def count_homs(
    pres: Presentation,
    target: FiniteGroup,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HomCountResult:
    """Exact |Hom(P, target)| by backtracking over generator images, the
    first generator's over conjugacy-class representatives only; into
    Sym(n) and Alt(n) from their cycle types."""
    search = _BacktrackSearch(pres, target, node_budget, by_cycle_type=True)
    return HomCountResult(search.run(None), search.target_order)


def count_homs_per_factor(
    factors: Sequence[Presentation], target: FiniteGroup
) -> list[HomCountResult]:
    """`count_homs` of each factor into `target`, each distinct factor
    searched once."""
    results = {f: count_homs(f, target) for f in dict.fromkeys(factors)}
    return [results[f] for f in factors]


def enumerate_homs(pres: Presentation, target: FiniteGroup) -> list[tuple]:
    """All homomorphisms as generator-image tuples, in deterministic order."""
    found: list[tuple] = []
    _BacktrackSearch(pres, target, DEFAULT_NODE_BUDGET).run(found.append)
    return found


# -- concrete source groups --------------------------------------------------


def group_presentation(G: FiniteGroup) -> Presentation:
    """Schreier presentation of a concrete finite group on its generators.

    Each non-tree edge x*g = y of the BFS spanning tree of the compiled
    group (`FiniteGroup.compiled`) gives the relator
    w(x) g w(y)^-1, where w reads the tree path (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 2.4). The order relator
    g^|g| of each generator is added so that the search filters candidate
    images by order; single-syllable Schreier relators follow from it and
    are dropped. Relators are kept once per class under rotation and
    inversion, shortest first.
    """
    kernel = G.compiled
    words = kernel.words()
    paths = [tuple((j, 1) for j in word) for word in words]
    relators = {((gi, G.element_order(g)),) for gi, g in enumerate(G.generators)}
    for x, word in enumerate(words):
        for j, row in enumerate(kernel.right):
            y = row[x]
            if words[y] != word + (j,):  # not the tree edge that reached y
                relator = canonical_relator(paths[x] + ((j, 1),) + inverse_word(paths[y]))
                if len(relator) > 1:
                    relators.add(relator)
    names = tuple(f"g{i + 1}" for i in range(len(G.generators)))
    ordered = tuple(sorted(relators, key=lambda w: (len(w), w)))
    return Presentation(names, ordered, name=G.describe())


# -- witness quotients ------------------------------------------------------


class WitnessQuotient(NamedTuple):
    """Finite quotient of a free product realizing its full hom count.

    The group lives in a direct power of the target: each free-product
    generator becomes the tuple of its images under the retained
    homomorphisms (one per kernel when deduplicated).
    """

    group: GeneratedGroup
    hom_count_used: int
    width_used: int
    source: Presentation
    deduplicated: bool


def _image_key(identity: int, steps: Sequence[list]) -> tuple:
    """The action table the enumeration BFS (`groups._bfs`) records on the
    subgroup of a kernel that the right-multiplication rows `steps`
    generate. Two homs, each image marked by the generators' images, give
    equal tables exactly when the marks extend to an isomorphism of the
    images, that is when their kernels are equal."""
    action: list = [[] for _ in steps]
    for _ in _bfs([row.__getitem__ for row in steps], identity, [], action):
        pass
    return tuple(map(tuple, action))


class _WitnessGroup(GeneratedGroup):
    """A `GeneratedGroup` in a power of `target`, compiled in the same
    order on the target's ints: generator j's step moves coordinate i by
    the row moves[j][i]. The BFS runs on the coordinates `reps` only, one
    hom per conjugacy orbit: if phi_h = g phi_r g^-1, then coordinate h of
    every element, phi_h(w), is g phi_r(w) g^-1, a function of coordinate
    r. So the projection onto `reps` is injective on the group: the BFS on
    it meets equal tuples exactly where the full-width BFS does, and
    records the same order, action and tree, which `compiled` holds and
    `order` reads. Only a read of `elements` forms the full tuples: they
    are filled along the kernel's tree, one row lookup a coordinate per
    edge, and map back through `target.elements`."""

    def __init__(self, ambient, generators, target, moves, reps):
        super().__init__(ambient, generators)
        self._target = target
        self._moves = moves
        self._reps = reps

    @property
    def compiled(self) -> CayleyGroup:
        if self._compiled is None:
            reduced = [[rows[i] for i in self._reps] for rows in self._moves]
            steps = [lambda a, r=rows: tuple(map(list.__getitem__, r, a)) for rows in reduced]
            identity = (self._target.compiled.identity,) * len(self._reps)
            ints, walk = _enumerate(steps, identity)
            self._compiled = CayleyGroup.from_action(len(ints), 0, *walk)
        return self._compiled

    @property
    def order(self) -> int:
        return self.compiled.order

    def _generate(self) -> list:
        e, elems = self._target.compiled.identity, self._target.elements
        ints = [(e,) * len(self.ambient.factors)]
        for x, j in zip(*self.compiled._tree[1:]):
            ints.append(tuple(map(list.__getitem__, self._moves[j], ints[x])))
        if len(ints[0]) == 1:  # a single index makes itemgetter return no tuple
            return [(elems[x],) for (x,) in ints]
        return [itemgetter(*t)(elems) for t in ints]


def witness_quotient(
    factors: Sequence[Presentation],
    target: FiniteGroup,
    width_cap: int = DEFAULT_WITNESS_WIDTH_CAP,
    dedup_kernels: bool = False,
) -> WitnessQuotient:
    """Witness quotient of a free product with respect to a finite target.

    Combined homomorphisms are all combinations of per-factor ones. Each
    free-product generator is realized as its image tuple across the
    retained homomorphisms; the returned group is the closure of those
    tuples under componentwise multiplication. Its minimal generator count
    bounds d of the profinite completion from below.

    Conjugate homs share a kernel. The group is compiled on the least hom
    of each conjugacy orbit (`_WitnessGroup`), here, so that cap errors
    surface here; its full-width tuples are formed only when `elements` is
    read. Deduplication keeps the first of those homs, in index order, per
    image action table (`_image_key`): a kernel class is a union of orbits,
    so it keeps what every hom would.
    """
    combined = free_product(list(factors))
    per_factor = [enumerate_homs(f, target) for f in factors]
    total = prod(len(h) for h in per_factor)
    homs = [tuple(x for part in combo for x in part) for combo in itertools.product(*per_factor)]
    if len(homs) > width_cap and not dedup_kernels:
        raise WitnessWidthError(
            f"{len(homs)} homomorphisms exceed the width cap {width_cap}; "
            "retry with kernel deduplication (one homomorphism per kernel "
            "suffices for the witness quotient)"
        )
    # the search read all of the target: work on its ints, where a
    # product by an image is a lookup in that image's row
    kernel = target.compiled
    ints = [tuple(map(target.element_index, hom)) for hom in homs]
    rows: dict[int, list] = {}
    for x in {x for hom in ints for x in hom}:
        row = list(range(kernel.order))
        for j in kernel.words()[x]:
            row = list(map(kernel.right[j].__getitem__, row))
        rows[x] = row
    index = {hom: i for i, hom in enumerate(ints)}
    maps = [[index[tuple(map(c.__getitem__, hom))] for hom in ints] for c in kernel.conjugations]
    reps = [orbit[0] for orbit in orbit_partition(len(ints), maps)]
    if len(homs) > width_cap:
        first: dict[tuple, int] = {}
        for i in reps:
            first.setdefault(_image_key(kernel.identity, [rows[x] for x in ints[i]]), i)
        kept = list(first.values())
        homs, ints = [homs[i] for i in kept], [ints[i] for i in kept]
        reps = range(len(kept))  # distinct kernels: no two kept homs are conjugate
        if len(homs) > width_cap:
            raise WitnessWidthError(
                f"{len(homs)} distinct kernels still exceed the width cap {width_cap}"
            )
    width = len(homs)
    ambient = ProductGroup([target] * width)
    k = len(combined.generators)
    gen_tuples = [tuple(hom[j] for hom in homs) for j in range(k)]
    moves = [tuple(rows[hom[j]] for hom in ints) for j in range(k)]
    group = _WitnessGroup(ambient, gen_tuples, target, moves, reps)
    group.compiled  # compile now so cap errors surface here
    return WitnessQuotient(
        group=group,
        hom_count_used=total,
        width_used=width,
        source=combined,
        deduplicated=width != total,
    )
