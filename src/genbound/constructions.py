"""Explicit target-group constructions and witness families.

Four constructions are provided:

* semidirect power targets V^m : R built from irreducible module actions
  sharing a prime, giving per-factor formula bounds;
* metabelian targets for distinct prime-order cyclic factors, using a prime
  from the arithmetic progression 1 mod (product of the orders);
* the split of arbitrary factors through their abelianizations, combining
  reduced factors with an elementary abelian part;
* families of solvable two-generated groups of pairwise coprime order that
  embed in a common symmetric group with trivial centralizer, built from
  CRT residues, sieved prime progressions and a common subset sum.

Large constructed groups are verified through exact per-block arithmetic
and small permutation computations; they are never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence

from . import linalg
from .bounds import (
    BoundCertificate,
    FormulaContribution,
    certify_embeddings,
    certify_formula,
)
from .groups import AffineSemidirect, FiniteGroup, MatrixGroup, PermGroup
from .modules import ModuleAction, find_simple_module, is_irreducible
from .numtheory import (
    common_subset_sum,
    crt_solve,
    dirichlet_prime,
    factorize,
    first_odd_primes,
    is_prime,
    largest_prime_factor,
    multiplicative_order,
    primes_in_progression,
    unit_of_order,
)
from .perm import perm_order
from .presentations import cyclic_presentation
from .subgroups import (
    abelian_invariants,
    d_min_generators,
    derived_subgroup,
    largest_normal_p_subgroup,
    orbits,
    quotient_group,
)


class ConstructionError(RuntimeError):
    """A bounded construction search did not produce an instance."""


class VerificationFailure(RuntimeError):
    """A named claim about a constructed instance failed its check."""

    def __init__(self, claim: str, detail: str = ""):
        super().__init__(f"verification failed: {claim}" + (f" ({detail})" if detail else ""))
        self.claim = claim


# -- semidirect power targets -------------------------------------------------


@dataclass(frozen=True)
class SemidirectTarget:
    """The affine target V^m : R with V = F_p^l and R the joint matrix group."""

    p: int
    l: int
    m: int
    r: int
    point_group: MatrixGroup
    group: AffineSemidirect
    module_dims: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** (self.l * self.m) * self.r

    def describe(self) -> str:
        return f"affine-target(p={self.p}, l={self.l}, m={self.m}, r={self.r})"


def _block_embed(matrix: linalg.Matrix, copies: int) -> linalg.Matrix:
    return linalg.block_diag([matrix] * copies)


def semidirect_target(
    modules: Sequence[ModuleAction],
    m: int | None = None,
    factor_groups: Sequence[FiniteGroup] | None = None,
    p: int | None = None,
    residual_rank: int = 0,
) -> tuple[SemidirectTarget, list[FormulaContribution]]:
    """Build the target V^m : R from one irreducible module per factor.

    All modules must share the prime and be nontrivial and irreducible. Each
    factor's action is block-embedded into dimension l = lcm of the module
    dimensions (a direct sum of copies of its module), R is the matrix group
    generated by all embedded actions, and the group is the semidirect
    product of m copies of V with R acting diagonally. With no modules the
    prime p must be given; then l = 1 and R is trivial.

    Per factor the conjugates of the embedding give the formula bound
    h >= lm*log(p) / (lm*log(p) + log r); the embedded action having no
    nonzero fixed vector is what pushes the centralizer into R, and is
    checked here. When the factor groups are supplied and enumerable, the
    absence of a nontrivial normal p-subgroup is checked too. A residual
    elementary abelian p-group of rank `residual_rank` adds one
    contribution of that weight.

    R is enumerated once. With m None the least m certifying the
    conclusion (one per module plus `residual_rank`) is chosen from its
    order r.
    """
    if p is None:
        if not modules:
            raise ValueError("need at least one module or the prime")
        p = modules[0].p
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    if any(mod.p != p for mod in modules):
        raise ValueError("modules must share one prime")
    for mod in modules:
        if not is_irreducible(mod):
            raise ValueError("module is not irreducible")
    if factor_groups is not None:
        for g in factor_groups:
            if largest_normal_p_subgroup(g, p).order != 1:
                raise ValueError(
                    f"factor {g.describe()} has a nontrivial normal {p}-subgroup"
                )
    l = lcm(*(mod.dim for mod in modules))
    embedded_gens: list[linalg.Matrix] = []
    for mod in modules:
        copies = l // mod.dim
        mats = [_block_embed(a, copies) for a in mod.matrices]
        if not linalg.has_no_joint_fixed_vector(mats, p):
            raise ValueError("embedded action has a nonzero fixed vector")
        embedded_gens.extend(mats)
    point_group = MatrixGroup(p, l, embedded_gens)
    r = point_group.order
    if m is None:
        m = min_m_for_conclusion(len(modules) + residual_rank, p, l, r)
    group = AffineSemidirect(
        p, l * m, point_group, action=lambda a: _block_embed(a, m)
    )
    target = SemidirectTarget(p, l, m, r, point_group, group, tuple(mod.dim for mod in modules))
    contributions = [FormulaContribution(p, l, m, r) for _ in modules]
    if residual_rank:
        contributions.append(FormulaContribution(p, l, m, r, weight=residual_rank))
    return target, contributions


def min_m_for_conclusion(n: int, p: int, l: int, r: int) -> int:
    """Smallest m with p^(l*m) > r^(n-1), certifying conclusion n."""
    if r < 1 or n < 1 or p < 2 or l < 1:
        raise ValueError("need n, l >= 1, p >= 2, r >= 1")
    m = 1
    while p ** (l * m) <= r ** (n - 1):
        m += 1
    return m


# -- metabelian targets for cyclic factors ------------------------------------


@dataclass(frozen=True)
class MetabelianTarget:
    """Target for distinct prime-order cyclic factors, plus its certificate.

    `metabelian` is True when the second derived subgroup was computed and
    found trivial, None when the group was too large to check explicitly.
    """

    primes: tuple[int, ...]
    p: int
    target: SemidirectTarget
    certificate: BoundCertificate
    metabelian: bool | None


def reduce_cyclic_orders(orders: Sequence[int]) -> list[int]:
    """Replace each cyclic order by its largest prime factor.

    Bounds transfer to the quotient factors. The reduced primes must be
    distinct for the metabelian construction.
    """
    primes = [largest_prime_factor(o) for o in orders]
    if len(set(primes)) != len(primes):
        raise ValueError(f"reduced primes are not distinct: {primes}")
    return primes


# targets up to this order have their second derived subgroup computed
METABELIAN_CHECK_CAP = 5000


def metabelian_target(primes: Sequence[int], m: int | None = None) -> MetabelianTarget:
    """Target for cyclic factors of distinct prime orders.

    With k the product of the orders, the least prime p = 1 (mod k) makes
    every factor embed in the units of F_p as a one-dimensional module; the
    resulting target is an extension of an elementary abelian group by an
    abelian one, hence metabelian (checked explicitly for small orders).
    The certificate concludes n once p^m > r^(n-1).
    """
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("prime orders must be distinct")
    for q in primes:
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
    k = prod(primes)
    p = dirichlet_prime(1, k)
    modules = [
        ModuleAction(p, 1, (((unit_of_order(p, q),),),), cyclic_presentation(q))
        for q in primes
    ]
    target, contributions = semidirect_target(modules, m)
    if target.r != k:
        raise AssertionError(f"unit subgroup has order {target.r}, expected {k}")
    certificate = certify_formula(
        [f"C{q}" for q in primes],
        target.describe(),
        target.order,
        contributions,
    )
    metabelian: bool | None = None
    if target.order <= METABELIAN_CHECK_CAP:
        first = derived_subgroup(target.group)
        second = derived_subgroup(first.as_group())
        metabelian = second.order == 1
        if not metabelian:
            raise VerificationFailure("metabelian", "second derived subgroup is nontrivial")
    return MetabelianTarget(tuple(primes), p, target, certificate, metabelian)


# -- split through abelianizations --------------------------------------------


@dataclass(frozen=True)
class SplitBound:
    """Reduction of arbitrary factors through their abelianizations.

    The first t reduced factors are the originals modulo their largest
    normal p-subgroup; the remaining factors are replaced by one elementary
    abelian p-group of rank `residual_rank`. When a module search was
    inconclusive the result is conditional and carries no certificate.
    """

    s_prime: int
    p: int
    t: int
    n: int
    reduced_names: tuple[str, ...]
    residual_rank: int
    modules: tuple[ModuleAction, ...]
    target: SemidirectTarget | None
    certificate: BoundCertificate | None
    conditional: bool
    missing: tuple[str, ...]

    @property
    def m(self) -> int | None:
        return None if self.target is None else self.target.m


def abelianization_split(
    factor_groups: Sequence[FiniteGroup],
    factor_names: Sequence[str] | None = None,
    d_max: int = 4,
    m: int | None = None,
) -> SplitBound:
    """Combine factors via their abelianizations into a certified bound.

    s' is the largest minimal generator number among the abelianizations; a
    prime p with p-rank s' in a witnessing abelianization splits the factors
    into those whose abelianization avoids p (reduced modulo their largest
    normal p-subgroup, each contributing a module-action bound) and the
    rest (replaced by one elementary abelian p-group of rank s'+n-t-1).
    The conclusion s'+n-1 is certified by p^(lm) > r^(s'+n-2).
    """
    groups = list(factor_groups)
    if not groups:
        raise ValueError("need at least one factor")
    names = list(factor_names) if factor_names else [g.describe() for g in groups]
    n = len(groups)
    invariants = []
    for g in groups:
        ab, _ = quotient_group(g, derived_subgroup(g))
        invariants.append(abelian_invariants(ab))
    d_values = [len(inv) for inv in invariants]
    s_prime = max(d_values)
    if s_prime == 0:
        raise ValueError(
            "every abelianization is trivial; no prime witnesses the rank"
        )
    witness = d_values.index(s_prime)
    p = min(q for q, _ in factorize(invariants[witness][0]))
    ab_order = prod(invariants[witness])
    if ab_order % p**s_prime:
        raise AssertionError(f"{p}^{s_prime} does not divide {ab_order}")
    part_a = [i for i in range(n) if prod(invariants[i]) % p != 0]
    part_b = [i for i in range(n) if prod(invariants[i]) % p == 0]
    t = len(part_a)
    residual_rank = s_prime + n - t - 1
    reduced: list[FiniteGroup] = []
    reduced_names: list[str] = []
    for i in part_a:
        o_p = largest_normal_p_subgroup(groups[i], p)
        if o_p.order == 1:
            h_i: FiniteGroup = groups[i]
        else:
            h_i, _ = quotient_group(groups[i], o_p)
        if largest_normal_p_subgroup(h_i, p).order != 1:
            raise AssertionError("quotient retains a nontrivial normal p-subgroup")
        if groups[i].order % h_i.order:
            raise AssertionError("reduced factor order does not divide the original")
        reduced.append(h_i)
        reduced_names.append(f"{names[i]}/O_{p}")
    modules: list[ModuleAction] = []
    missing: list[str] = []
    for name, h_i in zip(reduced_names, reduced):
        search = find_simple_module(h_i, p, d_max)
        if search.found is None:
            missing.append(name)
        else:
            modules.append(search.found)
    residual_name = f"C{p}^{residual_rank}"
    all_names = reduced_names + [residual_name]
    if missing:
        return SplitBound(
            s_prime, p, t, n, tuple(all_names), residual_rank,
            tuple(modules), None, None, True, tuple(missing),
        )
    target, contributions = semidirect_target(
        modules, m, p=p, residual_rank=residual_rank
    )
    certificate = certify_formula(all_names, target.describe(), target.order, contributions)
    return SplitBound(
        s_prime, p, t, n, tuple(all_names), residual_rank,
        tuple(modules), target, certificate, False, (),
    )


# -- coprime families with a common symmetric target --------------------------


@dataclass(frozen=True)
class AffineBlock:
    """One orbit block: affine maps x -> u^s x + w on F_q, u of fixed order."""

    q: int
    multiplier: int
    offset: int


class BlockAffineGroup:
    """Exact model of a product of prime-field translations extended by a
    diagonal multiplier of order p.

    Elements are pairs (s, w): the map acting on block j as
    x -> multiplier_j^s * x + w_j. The group is never enumerated; orders
    and structure are computed arithmetically, which keeps instances with
    tens of millions of elements verifiable.
    """

    def __init__(self, p: int, blocks: Sequence[AffineBlock]):
        self.p = p
        self.blocks = tuple(blocks)
        for b in self.blocks:
            if multiplicative_order(b.multiplier, b.q) != p:
                raise ValueError(
                    f"multiplier {b.multiplier} has wrong order mod {b.q}"
                )

    @property
    def identity(self):
        return (0, (0,) * len(self.blocks))

    @property
    def translation_generator(self):
        return (0, (1,) * len(self.blocks))

    @property
    def multiplier_generator(self):
        return (1, (0,) * len(self.blocks))

    @property
    def translation_order(self) -> int:
        return prod(b.q for b in self.blocks)

    @property
    def order(self) -> int:
        return self.p * self.translation_order

    @property
    def degree(self) -> int:
        return sum(b.q for b in self.blocks)

    def mul(self, x, y):
        s1, w1 = x
        s2, w2 = y
        w = tuple(
            (pow(b.multiplier, s1, b.q) * w2[j] + w1[j]) % b.q
            for j, b in enumerate(self.blocks)
        )
        return ((s1 + s2) % self.p, w)

    def inv(self, x):
        s, w = x
        s_inv = (-s) % self.p
        w_inv = tuple(
            (-pow(b.multiplier, s_inv, b.q) * w[j]) % b.q
            for j, b in enumerate(self.blocks)
        )
        return (s_inv, w_inv)

    def commutator(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def element_order(self, x) -> int:
        s, w = x
        if s == 0:
            return lcm(*(b.q if w[j] else 1 for j, b in enumerate(self.blocks)), 1)
        power = x
        for _ in range(self.p - 1):
            power = self.mul(power, x)
        assert power[0] == 0
        rest = self.element_order(power)
        return self.p * rest

    def to_permutation(self, x) -> tuple[int, ...]:
        s, w = x
        images = [0] * self.degree
        for j, b in enumerate(self.blocks):
            mult = pow(b.multiplier, s, b.q)
            for point in range(b.q):
                images[b.offset + point] = b.offset + (mult * point + w[j]) % b.q
        return tuple(images)


@dataclass(frozen=True)
class CoprimeFamilyInstance:
    """Witness package: n solvable two-generated groups of pairwise coprime
    order acting on a common point set with trivial centralizers, plus the
    certificate concluding n+1."""

    n: int
    primes: tuple[int, ...]
    modulus: int
    residues: tuple[int, ...]
    prime_sets: tuple[tuple[int, ...], ...]
    k: int
    decompositions: tuple[tuple[int, ...], ...]
    multipliers: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    groups: tuple[PermGroup, ...]
    models: tuple[BlockAffineGroup, ...]
    flags: dict[str, bool]
    certificate: BoundCertificate
    cross_checked: bool


def _check(flags: dict[str, bool], claim: str, ok: bool, detail: str = ""):
    flags[claim] = bool(ok)
    if not ok:
        raise VerificationFailure(claim, detail)


def _block_centralizer_order(multiply: tuple[int, ...]) -> int:
    """Order of the centralizer in Sym(q) of a block group
    G = <x -> x+1, multiply> on F_q, as the number of points `multiply` fixes.

    G is transitive (the block-transitive flag), and every element is
    x -> u^s x + b, so the stabilizer of 0 is <multiply>, of order
    |G|/q = p_i. The centralizer of a transitive group has order the number
    of points its point stabilizer fixes (Dixon & Mortimer, Permutation
    Groups, 1996, 4.2), and those are the points fixed by its generator.
    """
    return sum(1 for x, y in enumerate(multiply) if x == y)


# family groups up to this order are also checked by enumeration
CROSS_CHECK_CAP = 5000


def coprime_family(
    n: int, sieve_bound: int = 2000, sum_cap: int = 10**4
) -> CoprimeFamilyInstance:
    """Construct and verify the full coprime witness family for n factors.

    Pipeline: the first n odd primes; CRT residues congruent to 1 at the own
    prime and 2 elsewhere; primes sieved from each progression; the least
    common subset sum k; per factor the group generated on k points by a
    blockwise translation and a diagonal multiplier. Every structural claim
    is verified exactly (per-block permutation computations plus integer
    arithmetic); any failure aborts naming the claim.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = first_odd_primes(n)
    modulus = prod(primes)
    residues = [
        crt_solve([1 if j == i else 2 for j in range(n)], primes) for i in range(n)
    ]
    prime_sets = [
        tuple(primes_in_progression(residues[i], modulus, sieve_bound))
        for i in range(n)
    ]
    for i, s in enumerate(prime_sets):
        if not s:
            raise ConstructionError(
                f"no primes = {residues[i]} (mod {modulus}) up to {sieve_bound}"
            )
    found = common_subset_sum(prime_sets, sum_cap)
    if found is None:
        raise ConstructionError(f"no common subset sum up to {sum_cap}")
    k, decomps = found

    flags: dict[str, bool] = {}
    for i in range(n):
        _check(
            flags,
            f"crt-residues[{i}]",
            residues[i] % primes[i] == 1
            and all(residues[i] % primes[j] == 2 for j in range(n) if j != i),
        )
    _check(
        flags,
        "prime-sets-disjoint",
        all(
            not set(prime_sets[i]) & set(prime_sets[j])
            for i in range(n)
            for j in range(i + 1, n)
        ),
    )

    models: list[BlockAffineGroup] = []
    groups: list[PermGroup] = []
    multipliers: list[tuple[int, ...]] = []
    orders: list[int] = []
    cross_checked = True
    for i in range(n):
        p_i = primes[i]
        qs = sorted(decomps[i])
        _check(flags, f"decomposition-sum[{i}]", sum(qs) == k, f"{sum(qs)} != {k}")
        _check(
            flags,
            f"decomposition-members[{i}]",
            all(q in prime_sets[i] and is_prime(q) for q in qs)
            and len(set(qs)) == len(qs),
        )
        _check(flags, f"block-sizes-distinct[{i}]", len(set(qs)) == len(qs))
        _check(
            flags,
            f"prime-divides-q-minus-1[{i}]",
            all((q - 1) % p_i == 0 for q in qs),
        )
        offsets = [sum(qs[:j]) for j in range(len(qs))]
        units = tuple(unit_of_order(q, p_i) for q in qs)
        for q, u in zip(qs, units):
            _check(
                flags,
                f"multiplier-order[{i}]",
                multiplicative_order(u, q) == p_i,
                f"unit {u} mod {q}",
            )
        blocks = [AffineBlock(q, u, off) for q, u, off in zip(qs, units, offsets)]
        model = BlockAffineGroup(p_i, blocks)
        v = model.translation_generator
        u = model.multiplier_generator
        v_perm = model.to_permutation(v)
        u_perm = model.to_permutation(u)
        group = PermGroup(k, [v_perm, u_perm])

        # derived subgroup equals the translations: the commutator [v, u] is
        # a translation with every component nonzero, so it generates all of
        # them (coprime block sizes), while the multiplier-exponent quotient
        # C_p is abelian, sandwiching the derived subgroup exactly.
        c = model.commutator(v, u)
        _check(
            flags,
            f"derived-subgroup-is-translations[{i}]",
            c != model.identity
            and c[0] == 0
            and all(x != 0 for x in c[1])
            and model.element_order(c) == model.translation_order,
        )
        _check(
            flags,
            f"abelianization-cyclic-of-order-p[{i}]",
            model.order // model.translation_order == p_i,
        )
        # two generators: their orders are coprime with product |G|, and the
        # pair does not commute, so the group is noncyclic (Lagrange gives
        # the lower bound, containment in the model the upper one).
        ord_v = perm_order(v_perm)
        ord_u = perm_order(u_perm)
        _check(
            flags,
            f"two-generated[{i}]",
            ord_v == model.translation_order
            and ord_u == p_i
            and gcd(ord_v, ord_u) == 1
            and ord_v * ord_u == model.order
            and model.mul(v, u) != model.mul(u, v),
        )
        for j, block in enumerate(blocks):
            translate = tuple((x + 1) % block.q for x in range(block.q))
            multiply = tuple((block.multiplier * x) % block.q for x in range(block.q))
            _check(
                flags,
                f"block-transitive[{i}.{j}]",
                len(orbits(PermGroup(block.q, [translate, multiply]))) == 1,
            )
            _check(
                flags,
                f"block-centralizer-trivial[{i}.{j}]",
                _block_centralizer_order(multiply) == 1,
            )
        if model.order <= CROSS_CHECK_CAP:
            _check(
                flags,
                f"exhaustive-cross-check[{i}]",
                group.order == model.order
                and derived_subgroup(group).order == model.translation_order
                and d_min_generators(group).value == 2,
            )
        else:
            cross_checked = False
        models.append(model)
        groups.append(group)
        multipliers.append(units)
        orders.append(model.order)

    _check(
        flags,
        "orders-pairwise-coprime",
        all(
            gcd(orders[i], orders[j]) == 1
            for i in range(n)
            for j in range(i + 1, n)
        ),
    )

    factor_names = [f"G{i + 1}(order={o})" for i, o in enumerate(orders)]
    certificate = certify_embeddings(factor_names, k)
    return CoprimeFamilyInstance(
        n=n,
        primes=tuple(primes),
        modulus=modulus,
        residues=tuple(residues),
        prime_sets=prime_sets,
        k=k,
        decompositions=tuple(tuple(sorted(d)) for d in decomps),
        multipliers=tuple(multipliers),
        orders=tuple(orders),
        groups=tuple(groups),
        models=tuple(models),
        flags=flags,
        certificate=certificate,
        cross_checked=cross_checked,
    )


def family_to_doc(instance: CoprimeFamilyInstance) -> dict:
    """Serializable report for a coprime family; exact values as strings."""
    from .bounds import certificate_to_doc

    return {
        "schema": "genbound-family/1",
        "n": instance.n,
        "construction": {
            "primes": [str(q) for q in instance.primes],
            "modulus": str(instance.modulus),
            "residues": [str(r) for r in instance.residues],
            "prime_sets": [[str(q) for q in s] for s in instance.prime_sets],
            "k": str(instance.k),
            "decompositions": [[str(q) for q in d] for d in instance.decompositions],
            "multipliers": [[str(u) for u in us] for us in instance.multipliers],
            "orders": [str(o) for o in instance.orders],
        },
        "flags": dict(sorted(instance.flags.items())),
        "cross_checked": instance.cross_checked,
        "certificate": certificate_to_doc(instance.certificate),
    }
