"""Certified integer lower bounds on d of the profinite completion of a free
product, assembled from per-factor homomorphism counts or formula bounds.

Every conclusion is justified by an exact big-integer comparison, never by
floating point: at the scales the constructions reach, the relevant log
ratios differ from 1 by less than 1e-100, far below float resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from .groups import FiniteGroup
from .homcount import HomCountResult, count_homs
from .presentations import Presentation

PROOF_EXACT = "exact-count"
PROOF_POWER = "power-inequality"
PROOF_SYMBOLIC = "symbolic-strict"


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""


@dataclass(frozen=True)
class Comparison:
    """An exact big-integer comparison lhs RELATION rhs."""

    lhs: int
    rhs: int
    relation: str = ">"

    def holds(self) -> bool:
        if self.relation == ">":
            return self.lhs > self.rhs
        if self.relation == ">=":
            return self.lhs >= self.rhs
        raise CertificateError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class ExactContribution:
    """A factor contributing an exact homomorphism count."""

    count: int
    target_order: int

    @property
    def h(self) -> float:
        return HomCountResult(self.count, self.target_order).h


@dataclass(frozen=True)
class FormulaContribution:
    """A factor contributing h >= weight * lm*log(p) / (lm*log(p) + log(r)).

    Weight 1 is the plain conjugate-count bound for a factor acting on the
    translation space; a larger weight covers an elementary-abelian factor
    contributing that many independent coordinates.
    """

    p: int
    l: int
    m: int
    r: int
    weight: int = 1

    @property
    def h(self) -> float:
        a = self.l * self.m * math.log(self.p)
        b = math.log(self.r)
        return self.weight * a / (a + b)


@dataclass(frozen=True)
class EmbeddingContribution:
    """A factor with a centralizer-free embedding into Sym(degree).

    Conjugates of the embedding plus the trivial map give at least
    degree! + 1 homomorphisms into a target of order degree!.
    """

    # keeps factorial evaluation of untrusted certificate documents bounded
    MAX_DEGREE = 10**5

    degree: int

    def __post_init__(self):
        if not (1 <= self.degree <= self.MAX_DEGREE):
            raise CertificateError(f"embedding degree {self.degree} out of range")

    @property
    def h(self) -> float:
        if self.degree < 2:
            return 0.0
        log_fact = math.lgamma(self.degree + 1)
        return math.log1p(1.0 / math.exp(min(log_fact, 700.0))) / log_fact + 1.0


Contribution = ExactContribution | FormulaContribution | EmbeddingContribution


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record of an integer lower bound on d.

    The conclusion is re-derivable from the stored exact comparison alone;
    `total_h` is display-only.
    """

    factors: tuple[str, ...]
    target: str
    target_order: int
    contributions: tuple[Contribution, ...]
    comparison: Comparison
    conclusion: int
    proof_kind: str
    conditional: bool = False

    @property
    def total_h(self) -> float:
        return sum(c.h for c in self.contributions)


def weak_bound(orders: Sequence[int]) -> Fraction:
    """The exact rational n - sum(1/|G_i|) over the factor orders."""
    if any(o < 1 for o in orders):
        raise ValueError("orders must be >= 1")
    return Fraction(len(orders)) - sum(Fraction(1, o) for o in orders)


def _exact_conclusion(product_of_counts: int, target_order: int) -> tuple[int, Comparison]:
    """Largest c with product > target_order^(c-1), plus the comparison.

    c = 0 is vacuous (any d >= 0) and is recorded with rhs 0.
    """
    if target_order < 2:
        # only the trivial hom exists into a trivial target
        return 0, Comparison(product_of_counts, 0)
    c = 0
    while product_of_counts > target_order**c:
        c += 1
    if c == 0:
        return 0, Comparison(product_of_counts, 0)
    return c, Comparison(product_of_counts, target_order ** (c - 1))


def certify_exact_counts(
    factor_names: Sequence[str],
    target_name: str,
    results: Sequence[HomCountResult],
) -> BoundCertificate:
    orders = {r.target_order for r in results}
    if len(orders) != 1:
        raise ValueError("all factors must be counted into the same target")
    target_order = orders.pop()
    product_of_counts = prod(r.count for r in results)
    conclusion, comparison = _exact_conclusion(product_of_counts, target_order)
    return BoundCertificate(
        factors=tuple(factor_names),
        target=target_name,
        target_order=target_order,
        contributions=tuple(
            ExactContribution(r.count, r.target_order) for r in results
        ),
        comparison=comparison,
        conclusion=conclusion,
        proof_kind=PROOF_EXACT,
    )


def lower_bound_explicit(
    factors: Sequence[Presentation], target: FiniteGroup
) -> BoundCertificate:
    """Certificate from exact per-factor homomorphism counts.

    The conclusion c is certified by the big-integer inequality
    (product of counts) > |target|^(c-1).
    """
    if not factors:
        raise ValueError("need at least one factor")
    results = [count_homs(f, target) for f in factors]
    return certify_exact_counts(
        [f.describe() for f in factors], target.describe(), results
    )


def power_conclusion(
    p: int, l: int, m: int, r: int, weight_total: int
) -> tuple[int, Comparison]:
    """Largest certified conclusion for a formula-bound certificate.

    The per-factor bounds sum to at least W*A/(A+B) with A = lm*log(p) and
    B = log(r), so conclusion c holds iff W*A/(A+B) > c-1, which is the
    integer inequality p^(lm*(W-c+1)) > r^(c-1).
    """
    for c in range(weight_total, 0, -1):
        lhs = p ** (l * m * (weight_total - c + 1))
        rhs = r ** (c - 1)
        if lhs > rhs:
            return c, Comparison(lhs, rhs)
    return 0, Comparison(1, 0)


def certify_formula(
    factor_names: Sequence[str],
    target_name: str,
    target_order: int,
    contributions: Sequence[FormulaContribution],
) -> BoundCertificate:
    params = {(c.p, c.l, c.m, c.r) for c in contributions}
    if len(params) != 1:
        raise ValueError("formula contributions must share p, l, m, r")
    p, l, m, r = params.pop()
    weight_total = sum(c.weight for c in contributions)
    conclusion, comparison = power_conclusion(p, l, m, r, weight_total)
    return BoundCertificate(
        factors=tuple(factor_names),
        target=target_name,
        target_order=target_order,
        contributions=tuple(contributions),
        comparison=comparison,
        conclusion=conclusion,
        proof_kind=PROOF_POWER,
    )


def certify_embeddings(
    factor_names: Sequence[str], degree: int
) -> BoundCertificate:
    """Certificate for factors embedding in Sym(degree) with trivial
    centralizer: each count is at least degree!+1, so each h exceeds 1 and
    the sum exceeds the number of factors.
    """
    n = len(factor_names)
    kfact = factorial(degree)
    return BoundCertificate(
        factors=tuple(factor_names),
        target=f"sym({degree})",
        target_order=kfact,
        contributions=tuple(EmbeddingContribution(degree) for _ in range(n)),
        comparison=Comparison(kfact + 1, kfact),
        conclusion=n + 1,
        proof_kind=PROOF_SYMBOLIC,
    )


def check_certificate(cert: BoundCertificate) -> None:
    """Independent re-validation; raises CertificateError on any mismatch.

    Only the stored exact integers are used; homomorphism counts are never
    recomputed, so checking is instant even for certificates whose search
    took long.
    """
    if cert.conditional:
        raise CertificateError("certificate is conditional and proves nothing")
    if not cert.comparison.holds():
        raise CertificateError("stored comparison does not hold")
    if cert.proof_kind == PROOF_EXACT:
        if not all(isinstance(c, ExactContribution) for c in cert.contributions):
            raise CertificateError("exact-count certificate with non-exact parts")
        if any(c.target_order != cert.target_order for c in cert.contributions):
            raise CertificateError("contribution target order mismatch")
        product_of_counts = prod(c.count for c in cert.contributions)
        conclusion, comparison = _exact_conclusion(product_of_counts, cert.target_order)
        if comparison != cert.comparison:
            raise CertificateError(
                f"comparison mismatch: recomputed {comparison}, stored {cert.comparison}"
            )
        if conclusion != cert.conclusion:
            raise CertificateError(
                f"conclusion mismatch: recomputed {conclusion}, stored {cert.conclusion}"
            )
    elif cert.proof_kind == PROOF_POWER:
        if not all(isinstance(c, FormulaContribution) for c in cert.contributions):
            raise CertificateError("power-inequality certificate with foreign parts")
        params = {(c.p, c.l, c.m, c.r) for c in cert.contributions}
        if len(params) != 1:
            raise CertificateError("inconsistent formula parameters")
        p, l, m, r = params.pop()
        weight_total = sum(c.weight for c in cert.contributions)
        conclusion, comparison = power_conclusion(p, l, m, r, weight_total)
        if conclusion != cert.conclusion or comparison != cert.comparison:
            raise CertificateError("power-inequality re-derivation mismatch")
    elif cert.proof_kind == PROOF_SYMBOLIC:
        if not all(isinstance(c, EmbeddingContribution) for c in cert.contributions):
            raise CertificateError("symbolic certificate with foreign parts")
        degrees = {c.degree for c in cert.contributions}
        if len(degrees) != 1:
            raise CertificateError("embedding degrees differ")
        kfact = factorial(degrees.pop())
        if cert.comparison != Comparison(kfact + 1, kfact):
            raise CertificateError("symbolic comparison is not (k!+1, k!)")
        if cert.target_order != kfact:
            raise CertificateError("target order is not k!")
        if cert.conclusion != len(cert.contributions) + 1:
            raise CertificateError("symbolic conclusion is not n+1")
    else:
        raise CertificateError(f"unknown proof kind {cert.proof_kind!r}")


# -- serialization -----------------------------------------------------------


def _contribution_to_doc(c: Contribution) -> dict:
    if isinstance(c, ExactContribution):
        return {"kind": "exact", "count": str(c.count), "target_order": str(c.target_order)}
    if isinstance(c, FormulaContribution):
        return {
            "kind": "formula",
            "p": str(c.p),
            "l": str(c.l),
            "m": str(c.m),
            "r": str(c.r),
            "weight": c.weight,
        }
    return {"kind": "embedding", "degree": str(c.degree)}


def _field(doc, key: str, where: str, kind: type = str):
    """doc[key], checked to be a `kind`; an int may be a decimal string. A
    missing or mistyped field raises CertificateError naming it."""
    if not isinstance(doc, dict):
        raise CertificateError(f"{where} must be an object")
    if key not in doc:
        raise CertificateError(f"{where} lacks the field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, str) and value.removeprefix("-").isdecimal():
        value = int(value)
    if not isinstance(value, kind):
        raise CertificateError(f"{where}.{key} must be of type {kind.__name__}")
    return value


# the integer fields of each contribution kind, in constructor order
_CONTRIBUTION_FIELDS = {
    "exact": (ExactContribution, ("count", "target_order")),
    "formula": (FormulaContribution, ("p", "l", "m", "r", "weight")),
    "embedding": (EmbeddingContribution, ("degree",)),
}


def _contribution_from_doc(doc, where: str) -> Contribution:
    kind = _field(doc, "kind", where)
    if kind not in _CONTRIBUTION_FIELDS:
        raise CertificateError(f"unknown contribution kind {kind!r}")
    build, keys = _CONTRIBUTION_FIELDS[kind]
    return build(*(_field(doc, key, where, int) for key in keys))


def certificate_to_doc(cert: BoundCertificate) -> dict:
    """Lossless document form; all exact integers as decimal strings."""
    return {
        "schema": "genbound-certificate/1",
        "factors": list(cert.factors),
        "target": cert.target,
        "target_order": str(cert.target_order),
        "per_factor": [_contribution_to_doc(c) for c in cert.contributions],
        "comparison": {
            "lhs": str(cert.comparison.lhs),
            "rhs": str(cert.comparison.rhs),
            "relation": cert.comparison.relation,
        },
        "conclusion": cert.conclusion,
        "proof_kind": cert.proof_kind,
        "conditional": cert.conditional,
        "total_h": cert.total_h,
    }


def certificate_from_doc(doc: dict) -> BoundCertificate:
    """Inverse of `certificate_to_doc`. A missing or mistyped field raises
    CertificateError naming it."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be an object")
    if doc.get("schema") != "genbound-certificate/1":
        raise CertificateError(f"unknown certificate schema {doc.get('schema')!r}")
    factors = _field(doc, "factors", "certificate", list)
    if not all(isinstance(name, str) for name in factors):
        raise CertificateError("certificate.factors must hold strings")
    comparison = _field(doc, "comparison", "certificate", dict)
    per_factor = enumerate(_field(doc, "per_factor", "certificate", list))
    return BoundCertificate(
        factors=tuple(factors),
        target=_field(doc, "target", "certificate"),
        target_order=_field(doc, "target_order", "certificate", int),
        contributions=tuple(
            _contribution_from_doc(c, f"certificate.per_factor[{i}]") for i, c in per_factor
        ),
        comparison=Comparison(
            _field(comparison, "lhs", "certificate.comparison", int),
            _field(comparison, "rhs", "certificate.comparison", int),
            _field(comparison, "relation", "certificate.comparison"),
        ),
        conclusion=_field(doc, "conclusion", "certificate", int),
        proof_kind=_field(doc, "proof_kind", "certificate"),
        conditional=_field({"conditional": False, **doc}, "conditional", "certificate", bool),
    )
