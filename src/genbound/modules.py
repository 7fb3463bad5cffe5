"""Module actions over prime fields: irreducibility by spinning, search for
nontrivial irreducible actions of a finite source in each GL(d, p) within a
cap, and closed-form actions of cyclic sources by roots of unity in F_(p^l).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

from . import linalg
from .groups import MatrixGroup, _bfs
from .homcount import (
    DEFAULT_NODE_BUDGET,
    _BacktrackSearch,
    _single_generator_order_bound,
    evaluate_word,
)
from .numtheory import (
    factorize,
    irreducible_polynomial,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    poly_mulmod,
    root_of_unity,
)
from .presentations import Presentation
from .records import immutable, record_eq, record_repr, set_fields

SPACE_CAP = 10**5
CLOSED_FORM_DEGREE_CAP = 64  # l for cyclic_modules: l x l matrices, fields of p^l
DEFAULT_GL_ORDER_CAP = 25_000


class ModuleAction:
    """A linear action of the source on F_p^dim, one matrix per generator.

    Construction verifies the matrices are invertible, satisfy the source's
    relators, and are not all the identity.
    """

    __slots__ = _fields = ("p", "dim", "matrices", "source")
    __setattr__ = __delattr__ = immutable
    __repr__, __eq__ = record_repr, record_eq

    def __init__(
        self, p: int, dim: int, matrices: tuple[linalg.Matrix, ...], source: Presentation
    ):
        set_fields(self, p=p, dim=dim, matrices=matrices, source=source)
        self.__post_init__()

    def __post_init__(self):
        """Validate the stored fields and normalize the matrices. A method of
        its own, since perfbench's tracer counts candidate actions by
        wrapping it."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.matrices) != len(self.source.generators):
            raise ValueError("one matrix per source generator required")
        # normalizes the matrices and rejects wrong dimensions and singular ones
        group = MatrixGroup(self.p, self.dim, self.matrices)
        mats = group.generators
        set_fields(self, matrices=mats)
        for word in self.source.relators:
            if evaluate_word(word, mats, group) != group.identity:
                raise ValueError("matrices do not satisfy the source relators")
        if all(m == group.identity for m in mats):
            raise ValueError("action is trivial")


def is_irreducible(action: ModuleAction) -> bool:
    """True iff every nonzero vector spins up to the full space.

    A proper invariant subspace contains some nonzero vector whose spin
    stays inside it, so checking all (projectively normalized) vectors is a
    complete test. dim 1 is always irreducible.
    """
    p, dim = action.p, action.dim
    if dim == 1:
        return True
    if p**dim > SPACE_CAP:
        raise ValueError(f"space size {p}^{dim} exceeds cap {SPACE_CAP}")
    for v in itertools.product(range(p), repeat=dim):
        first = next((x for x in v if x), None)
        if first != 1:  # one representative per projective point
            continue
        if linalg.spin_dimension(v, action.matrices, p) < dim:
            return False
    return True


def general_linear_generators(p: int, dim: int) -> list[linalg.Matrix]:
    """A generating set of GL(dim, p): all transvections plus a diagonal
    matrix carrying a primitive root (the transvections alone generate the
    special linear group)."""
    if dim == 1:
        root = least_primitive_root(p)
        return [((root % p,),)]
    gens = []
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            m = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            m[i][j] = 1
            gens.append(tuple(tuple(row) for row in m))
    if p > 2:
        root = least_primitive_root(p)
        diag = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
        diag[0][0] = root
        gens.append(tuple(tuple(row) for row in diag))
    return gens


def general_linear_order(p: int, dim: int) -> int:
    q = p**dim
    return prod(q - p**i for i in range(dim))


def general_linear_group(p: int, dim: int) -> MatrixGroup:
    return MatrixGroup(p, dim, general_linear_generators(p, dim))


class SimpleModuleSearch(NamedTuple):
    """Result of the bounded irreducible-module search.

    `found` is None when the search was inconclusive (never a disproof);
    then `skipped` holds the dimension where it stopped, with the reason.
    """

    found: ModuleAction | None
    searched_dims: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]


def find_simple_module(source: Presentation, p: int) -> SimpleModuleSearch:
    """Search dimensions d = 1, 2, ... for a nontrivial irreducible action
    of the source over F_p, up to the first d whose matrix group GL(d, p)
    exceeds `DEFAULT_GL_ORDER_CAP`. That d is reported as skipped; |GL(d, p)|
    grows with d, so no later dimension could fit.

    Each dimension tests the homomorphisms into the full matrix group for
    irreducibility as they are found, and stops at the first nontrivial
    irreducible one (small dimensions keep downstream targets small). A
    dimension where every generator has an order bound m prime to
    |GL(d, p)| admits only the trivial hom (Lagrange), so it counts as
    searched without building the matrix group. For a
    one-generator source, m is taken with its p-part removed: the image of
    a p-element A is unipotent (A - I is nilpotent), so it fixes a nonzero
    vector and acts irreducibly only when trivial. With more generators
    that fails: Sym(3), generated by involutions, has a simple module of
    dimension 2 over F_2.
    """
    bounds = [_single_generator_order_bound(source, g) for g in range(len(source.generators))]
    if len(bounds) == 1 and bounds[0]:
        while bounds[0] % p == 0:
            bounds[0] //= p
    searched: list[int] = []
    for dim in itertools.count(1):
        gl_order = general_linear_order(p, dim)
        # a dimension within this cap has p^dim <= SPACE_CAP, which
        # `is_irreducible` needs, while DEFAULT_GL_ORDER_CAP < SPACE_CAP:
        # p = |GL(1, p)| + 1, and p^d <= |GL(d, p)| for d >= 2
        if gl_order > DEFAULT_GL_ORDER_CAP:
            reason = f"matrix group order {gl_order} exceeds cap {DEFAULT_GL_ORDER_CAP}"
            return SimpleModuleSearch(None, tuple(searched), ((dim, reason),))
        searched.append(dim)
        if 0 not in bounds and all(gcd(m, gl_order) == 1 for m in bounds):
            continue  # by Lagrange every image is trivial: no module here
        found = _first_irreducible(source, general_linear_group(p, dim))
        if found is not None:
            return SimpleModuleSearch(found, tuple(searched), ())


def _first_irreducible(source: Presentation, gl: MatrixGroup) -> ModuleAction | None:
    """The first nontrivial irreducible action among the homomorphisms into
    `gl`, in search order; the search stops there. A one-generator source
    needs no search: it reads the enumeration BFS of `gl` itself, in
    `gl.elements` order, and stops at the first x with x^m = e whose action
    is irreducible, so it enumerates and powers no further than that."""
    identity, found = gl.identity, None

    def irreducible(images) -> bool:
        nonlocal found
        if any(m != identity for m in images):
            try:
                action = ModuleAction(gl.p, gl.dim, images, source)
            except ValueError:
                return False
            if is_irreducible(action):
                found = action
        return found is not None

    if len(source.generators) == 1:
        m = _single_generator_order_bound(source, 0)
        for x in _bfs(gl._steps(), identity, [], [[] for _ in gl.generators]):
            if gl.power(x, m) == identity and irreducible((x,)):
                break
    else:
        _BacktrackSearch(source, gl, DEFAULT_NODE_BUDGET).run(irreducible)
    return found


def cyclic_modules(
    sources: Sequence[Presentation], p: int
) -> tuple[list[ModuleAction], list[int], int] | None:
    """Closed-form actions of cyclic sources over F_p: (the actions on
    V = F_p^l, the dimensions of their simple summands, r = |R|), or None
    unless every source has one generator and a finite order m_i.

    Source i acts through e_i, the prime q | m_i, q != p, least in
    (ord_q(p), q); if m_i is a power of p there is none, an error. With
    E = lcm(e_i) and l = ord_E(p), V = F_p[x]/(f) = F_(p^l) for the first f
    passing Rabin's test, and source i acts as multiplication by a root of
    unity zeta_i of order e_i. Its simple summand F_p[zeta_i] has the
    degree of zeta_i's minimal polynomial, ord_(e_i)(p) (Lidl and
    Niederreiter, Finite Fields, 2.47), the least dimension of a nontrivial
    irreducible action of C_(m_i); the action on V is reducible when that
    is below l. R = <zeta_i> is cyclic of order E: nothing is searched or
    enumerated. Each distinct source is built once.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not sources or any(len(s.generators) != 1 for s in sources):
        return None
    exponents: dict[Presentation, int] = {}
    for pres in sources:
        if pres not in exponents:
            if not (m := _single_generator_order_bound(pres, 0)):
                return None
            if not (primes := [q for q, _ in factorize(m) if q != p]):
                raise ValueError(
                    f"{pres.describe()} has no nontrivial irreducible action over "
                    f"F_{p}: its order {m} is a power of {p}"
                )
            exponents[pres] = min(primes, key=lambda q: (multiplicative_order(p, q), q))
    r = lcm(*exponents.values())
    l = multiplicative_order(p, r)
    if l > CLOSED_FORM_DEGREE_CAP:
        raise ValueError(f"field degree {l} = ord_{r}({p}) exceeds cap {CLOSED_FORM_DEGREE_CAP}")
    f = irreducible_polynomial(p, l)
    actions = {}
    for pres, e in exponents.items():
        zeta = root_of_unity(f, p, e)
        columns = [poly_mulmod(zeta, [0] * j + [1], f, p) for j in range(l)]
        actions[pres] = ModuleAction(p, l, (tuple(zip(*columns)),), pres)
    dims = [multiplicative_order(p, exponents[pres]) for pres in sources]
    return [actions[pres] for pres in sources], dims, r
