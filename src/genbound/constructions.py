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
  CRT residues, sieved prime progressions and a common subset sum, the
  sieve bound doubling up to `FAMILY_SIEVE_CEILING` until a sum exists.

A target V^m : R is held as the affine matrices of F_p^(lm), built only
when read. Each family group is held as the permutations of its two
generators: its claims are checked block by block on those permutations
and by integer arithmetic on the block sizes, and only a group of at most
`CROSS_CHECK_CAP` elements is enumerated.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

from . import linalg
from .bounds import (
    BoundCertificate,
    EmbeddingContribution,
    FormulaContribution,
    certify_embeddings,
    certify_formula,
    power_conclusion,
)
from .groups import FiniteGroup, MatrixGroup, PermGroup
from .homcount import group_presentation
from .modules import ModuleAction, cyclic_modules, find_simple_module, is_irreducible
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
from .perm import compose, inverse, perm_order
from .presentations import Presentation, cyclic_presentation
from .records import immutable, record_repr, set_fields
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


class SemidirectTarget:
    """The affine target V^m : R with V = F_p^l and R the joint matrix group."""

    # no __slots__: the instance `__dict__` also holds the cached `group`
    _fields = ("p", "l", "m", "r", "point_group", "module_dims")
    __setattr__ = __delattr__ = immutable
    __repr__ = record_repr

    def __init__(
        self, p: int, l: int, m: int, r: int, point_group: MatrixGroup,
        module_dims: tuple[int, ...],
    ):
        set_fields(self, p=p, l=l, m=m, r=r, point_group=point_group, module_dims=module_dims)

    @property
    def order(self) -> int:
        return self.p ** (self.l * self.m) * self.r

    @cached_property
    def group(self) -> MatrixGroup:
        """V^m : R, built on first read, as the affine maps x -> a x + v of
        F_p^(lm): each is the (lm+1) x (lm+1) matrix [[a, v], [0, 1]], so
        two multiply to (v1 + a1 v2, a1 a2), the semidirect product rule.
        Its generators are the lm unit translations, then each generator of
        R acting diagonally on the m copies of V."""
        basis = linalg.mat_identity(self.l * self.m)
        zero = (0,) * len(basis)
        translations = [_affine(basis, v) for v in basis]
        points = [_affine(_block_embed(g, self.m), zero) for g in self.point_group.generators]
        return MatrixGroup(self.p, len(basis) + 1, translations + points)

    def describe(self) -> str:
        return f"affine-target(p={self.p}, l={self.l}, m={self.m}, r={self.r})"


def _block_embed(matrix: linalg.Matrix, copies: int) -> linalg.Matrix:
    return linalg.block_diag([matrix] * copies)


def _affine(a: linalg.Matrix, v: linalg.Vector) -> linalg.Matrix:
    """The matrix [[a, v], [0, 1]] of the affine map x -> a x + v."""
    return tuple(row + (x,) for row, x in zip(a, v)) + ((0,) * len(v) + (1,),)


def simple_modules(sources: Sequence[Presentation | FiniteGroup], p: int) -> tuple:
    """One nontrivial simple module per source over F_p, for
    `semidirect_target`: (modules, dims, r, failed). When every source is
    cyclic, `cyclic_modules` gives them in closed form, with dims and r.
    Otherwise `find_simple_module` searches once per distinct source
    presentation (a concrete group is read through its Schreier
    presentation); dims and r are None, `failed` lists (index, search) for
    each source with none found, and `modules` holds the others'.
    """
    sources = [group_presentation(s) if isinstance(s, FiniteGroup) else s for s in sources]
    closed = cyclic_modules(sources, p)
    if closed is not None:
        return *closed, []
    searches: dict = {}
    modules, failed = [], []
    for i, source in enumerate(sources):
        if source not in searches:
            searches[source] = find_simple_module(source, p)
        if (found := searches[source].found) is None:
            failed.append((i, searches[source]))
        else:
            modules.append(found)
    return modules, None, None, failed


def semidirect_target(
    modules: Sequence[ModuleAction],
    m: int | None = None,
    p: int | None = None,
    residual_rank: int = 0,
    module_dims: Sequence[int] | None = None,
    r: int | None = None,
) -> tuple[SemidirectTarget, list[FormulaContribution]]:
    """Build the target V^m : R from one module action per factor.

    All actions share the prime and are nontrivial. V = F_p^l with l the
    lcm of the simple module dimensions, R is the matrix group the actions
    on V generate, and the group is the semidirect product of m copies of V
    with R acting diagonally. On the search path (r None) each module must
    be irreducible, is block-embedded into V as a direct sum of copies, and
    R is enumerated once for r. The closed form (`cyclic_modules`) passes
    actions already on V, the dimensions of their simple summands and r.
    With no modules the prime p must be given; then l = 1 and R is trivial.

    Per factor the conjugates of the embedding give the formula bound
    h >= lm*log(p) / (lm*log(p) + log r); the action on V having no nonzero
    fixed vector is what pushes the centralizer into R, and is checked
    here; the absence of a nontrivial normal p-subgroup in each factor is
    the caller's to check (`abelianization_split` does). A residual elementary
    abelian p-group of rank `residual_rank` adds one contribution of that
    weight. With m None the least m certifying the conclusion (one per
    module plus `residual_rank`) is chosen from r.
    """
    if p is None:
        if not modules:
            raise ValueError("need at least one module or the prime")
        p = modules[0].p
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    if any(mod.p != p for mod in modules):
        raise ValueError("modules must share one prime")
    if r is None:
        for mod in modules:
            if not is_irreducible(mod):
                raise ValueError("module is not irreducible")
        module_dims = [mod.dim for mod in modules]
    l = lcm(*module_dims)
    embedded_gens: list[linalg.Matrix] = []
    for mod in modules:
        mats = [_block_embed(a, l // mod.dim) for a in mod.matrices]
        if not linalg.has_no_joint_fixed_vector(mats, p):
            raise ValueError("embedded action has a nonzero fixed vector")
        embedded_gens.extend(mats)
    point_group = MatrixGroup(p, l, embedded_gens)
    if r is None:
        r = point_group.order
    if m is None:
        m = min_m_for_conclusion(len(modules) + residual_rank, p, l, r)
    target = SemidirectTarget(p, l, m, r, point_group, tuple(module_dims))
    contributions = [FormulaContribution(p, l, m, r) for _ in modules]
    if residual_rank:
        contributions.append(FormulaContribution(p, l, m, r, weight=residual_rank))
    return target, contributions


def min_m_for_conclusion(n: int, p: int, l: int, r: int) -> int:
    """Smallest m for which `power_conclusion` certifies conclusion n at weight n."""
    if r < 1 or n < 1 or p < 2 or l < 1:
        raise ValueError("need n, l >= 1, p >= 2, r >= 1")
    m = 1
    while power_conclusion(p, l, m, r, n)[0] < n:
        m += 1
    return m


# -- metabelian targets for cyclic factors ------------------------------------


class MetabelianTarget(NamedTuple):
    """Target for distinct prime-order cyclic factors, plus its certificate.

    `metabelian` is True when the derived subgroup was computed and found
    abelian, None when the group was too large to check explicitly.
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


# targets up to this order have their derived subgroup checked abelian
METABELIAN_CHECK_CAP = 5000


def metabelian_target(primes: Sequence[int], m: int | None = None) -> MetabelianTarget:
    """Target for cyclic factors of distinct prime orders.

    With k the product of the orders, the least prime p = 1 (mod k) makes
    every factor embed in the units of F_p as a one-dimensional module: the
    closed form of `cyclic_modules` with l = 1 and r = k. The resulting
    target is an extension of an elementary abelian group by an
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
    p = dirichlet_prime(1, prod(primes))
    modules, dims, r = cyclic_modules([cyclic_presentation(q) for q in primes], p)
    target, contributions = semidirect_target(modules, m, module_dims=dims, r=r)
    certificate = certify_formula([f"C{q}" for q in primes], target.describe(), contributions)
    metabelian: bool | None = None
    if target.order <= METABELIAN_CHECK_CAP:
        # G'' = 1 iff G' is abelian, iff the generators of G' commute
        gens, mul = derived_subgroup(target.group).generators, target.group.mul
        metabelian = all(mul(a, b) == mul(b, a) for i, a in enumerate(gens) for b in gens[:i])
        if not metabelian:
            raise VerificationFailure("metabelian", "second derived subgroup is nontrivial")
    return MetabelianTarget(tuple(primes), p, target, certificate, metabelian)


# -- split through abelianizations --------------------------------------------


class SplitBound(NamedTuple):
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
    factors: Sequence[FiniteGroup],
    factor_names: Sequence[str] | None = None,
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
    groups = list(factors)
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
    residual_name = f"C{p}^{residual_rank}"
    all_names = reduced_names + [residual_name]
    modules, dims, r, failed = simple_modules(reduced, p)
    if failed:
        return SplitBound(
            s_prime, p, t, n, tuple(all_names), residual_rank,
            tuple(modules), None, None, True, tuple(reduced_names[i] for i, _ in failed),
        )
    target, contributions = semidirect_target(
        modules, m, p=p, residual_rank=residual_rank, module_dims=dims, r=r
    )
    certificate = certify_formula(all_names, target.describe(), contributions)
    return SplitBound(
        s_prime, p, t, n, tuple(all_names), residual_rank,
        tuple(modules), target, certificate, False, (),
    )


# -- coprime families with a common symmetric target --------------------------


class CoprimeFamilyInstance(NamedTuple):
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


def _block_commutator(translate: tuple[int, ...], multiply: tuple[int, ...]) -> tuple[int, ...]:
    """[t, m] = t^-1 m^-1 t m on one block F_q, by `perm`, for the
    translation t: x -> x + 1 and the multiplier m: x -> u x. As a map it
    is x -> x + u^-1 - 1."""
    return compose(compose(inverse(translate), inverse(multiply)), compose(translate, multiply))


# family groups up to this order are also checked by enumeration
CROSS_CHECK_CAP = 5000
# the largest sieve bound B of the coprime family's search
FAMILY_SIEVE_CEILING = 2**17


def coprime_family(n: int) -> CoprimeFamilyInstance:
    """Construct and verify the full coprime witness family for n factors.

    Pipeline: the first n odd primes; CRT residues congruent to 1 at the own
    prime and 2 elsewhere; primes sieved from each progression; the least
    common subset sum k; per factor the group generated on k points by a
    blockwise translation and a diagonal multiplier. Every structural claim
    is verified exactly (per-block permutation computations plus integer
    arithmetic); any failure aborts naming the claim.

    The sieve bound B starts at 2000, with sums up to 5B, and doubles up to
    `FAMILY_SIEVE_CEILING` until a sum exists. n >= 2 whose primes multiply
    past the ceiling is rejected first: each progression then holds at most
    one number below it, and disjoint one-element sets share no sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = first_odd_primes(n, product_bound=FAMILY_SIEVE_CEILING)
    modulus = prod(primes)
    if n > 1 and modulus > FAMILY_SIEVE_CEILING:
        raise ConstructionError(
            f"no common subset sum for n = {n}: the first {len(primes)} odd primes "
            f"multiply to {modulus}, past the sieve ceiling {FAMILY_SIEVE_CEILING}"
        )
    residues = [
        crt_solve([1 if j == i else 2 for j in range(n)], primes) for i in range(n)
    ]
    bound = 2000
    while True:
        prime_sets = [tuple(primes_in_progression(a, modulus, bound)) for a in residues]
        found = common_subset_sum(prime_sets, 5 * bound)
        if found is not None:
            break
        if 2 * bound > FAMILY_SIEVE_CEILING:
            raise ConstructionError(
                f"no common subset sum up to {5 * bound} of the primes up to {bound}"
            )
        bound *= 2
    k, decomps = found
    EmbeddingContribution(k)  # the certificate's degree range, checked before any claim

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
        # block j holds the points off_j + x for x in F_q, on which v is
        # x -> x + 1 and u is x -> u_j x
        v_perm = tuple(off + (x + 1) % q for q, off in zip(qs, offsets) for x in range(q))
        u_perm = tuple(off + u * x % q for q, u, off in zip(qs, units, offsets) for x in range(q))
        group = PermGroup(k, [v_perm, u_perm])
        translation_order = prod(qs)
        order = p_i * translation_order

        # derived subgroup equals the translations: on each block the
        # commutator [v, u] is x -> x + w with w != 0, of prime order q, so
        # (distinct block sizes) it generates every translation, while the
        # multiplier-exponent quotient C_p is abelian, sandwiching the
        # derived subgroup exactly. Each block is checked on its own points.
        translations = True
        for j, (q, u) in enumerate(zip(qs, units)):
            translate = (*range(1, q), 0)
            multiply = tuple(u * x % q for x in range(q))
            c = _block_commutator(translate, multiply)
            w = c[0]  # c is x -> x + w when it is a translation
            translations = translations and w != 0 and c == (*range(w, q), *range(w))
            _check(
                flags,
                f"block-transitive[{i}.{j}]",
                len(orbits(PermGroup(q, [translate, multiply]))) == 1,
            )
            _check(
                flags,
                f"block-centralizer-trivial[{i}.{j}]",
                _block_centralizer_order(multiply) == 1,
            )
        _check(flags, f"derived-subgroup-is-translations[{i}]", translations)
        _check(
            flags,
            f"abelianization-cyclic-of-order-p[{i}]",
            order // translation_order == p_i,
        )
        # two generators: their orders are coprime with product |G|, and the
        # pair does not commute, so the group is noncyclic (Lagrange gives
        # the lower bound, the form x -> u^s x + w of every element the
        # upper one).
        ord_v = perm_order(v_perm)
        ord_u = perm_order(u_perm)
        _check(
            flags,
            f"two-generated[{i}]",
            ord_v == translation_order
            and ord_u == p_i
            and gcd(ord_v, ord_u) == 1
            and ord_v * ord_u == order
            and compose(v_perm, u_perm) != compose(u_perm, v_perm),
        )
        if order <= CROSS_CHECK_CAP:
            _check(
                flags,
                f"exhaustive-cross-check[{i}]",
                group.order == order
                and derived_subgroup(group).order == translation_order
                and d_min_generators(group).value == 2,
            )
        else:
            cross_checked = False
        groups.append(group)
        multipliers.append(units)
        orders.append(order)

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
