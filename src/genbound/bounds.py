"""Certified integer lower bounds on d of the profinite completion of a free
product, assembled from per-factor homomorphism counts or formula bounds.

Every conclusion is justified by an exact big-integer comparison, never by
floating point: at the scales the constructions reach, the relevant log
ratios differ from 1 by less than 1e-100, far below float resolution.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import factorial, prod
from typing import Callable, NamedTuple, Sequence

from .groups import FiniteGroup
from .homcount import HomCountResult, count_homs_per_factor
from .presentations import Presentation
from .records import immutable, record_eq, record_hash, record_repr, set_fields

PROOF_EXACT = "exact-count"
PROOF_POWER = "power-inequality"
PROOF_SYMBOLIC = "symbolic-strict"

# A document stores each integer in decimal, and Python parses at most
# MAX_DIGITS digits (`sys.set_int_max_str_digits`; 0 lifts the limit). An
# integer of at least 2^_MAX_BITS has more digits than that.
MAX_DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
_MAX_BITS = (10**MAX_DIGITS).bit_length()


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""


class Comparison(NamedTuple):
    """An exact big-integer comparison lhs RELATION rhs."""

    lhs: int
    rhs: int
    relation: str = ">"

    def holds(self) -> bool:
        # every derivation concludes from a strict inequality
        return self.relation == ">" and self.lhs > self.rhs


class ExactContribution(NamedTuple):
    """A factor contributing an exact homomorphism count."""

    count: int
    target_order: int

    @property
    def h(self) -> float:
        return HomCountResult(self.count, self.target_order).h


class FormulaContribution(NamedTuple):
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


class EmbeddingContribution:
    """A factor with a centralizer-free embedding into Sym(degree).

    Conjugates of the embedding plus the trivial map give at least
    degree! + 1 homomorphisms into a target of order degree!.
    """

    # keeps factorial evaluation of untrusted certificate documents bounded
    MAX_DEGREE = 10**5

    __slots__ = _fields = ("degree",)
    __setattr__ = __delattr__ = immutable
    __repr__, __eq__, __hash__ = record_repr, record_eq, record_hash

    def __init__(self, degree: int):
        if not (1 <= degree <= self.MAX_DEGREE):
            raise CertificateError(f"embedding degree {degree} out of range")
        set_fields(self, degree=degree)

    @property
    def h(self) -> float:
        if self.degree < 2:
            return 0.0
        log_fact = math.lgamma(self.degree + 1)
        return math.log1p(1.0 / math.exp(min(log_fact, 700.0))) / log_fact + 1.0


Contribution = ExactContribution | FormulaContribution | EmbeddingContribution


class BoundCertificate(NamedTuple):
    """Machine-checkable record of an integer lower bound on d.

    The target order, the comparison and the conclusion are re-derivable
    from the contributions alone; `total_h` is display-only.
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


def _bounded(log2_floor: int, what: str) -> None:
    """Rejects a derivation before it forms `what`, an integer of at least
    2^log2_floor, if that many bits make more than MAX_DIGITS digits: no
    document could store it, and forming it takes unbounded time."""
    if log2_floor >= _MAX_BITS:
        raise CertificateError(f"{what} would exceed {MAX_DIGITS} decimal digits")


def _ilog(x: int, base: int) -> int:
    """The largest k with base^k <= x, for x >= 1 and base >= 2: read off
    float logarithms, then confirmed by exact comparison."""
    k = int(math.log(x, base))
    while base**k > x:
        k -= 1
    while base ** (k + 1) <= x:
        k += 1
    return k


def power_conclusion(
    p: int, l: int, m: int, r: int, weight_total: int
) -> tuple[int, Comparison]:
    """Largest certified conclusion for a formula-bound certificate.

    The per-factor bounds sum to at least W*A/(A+B) with A = lm*log(p) and
    B = log(r), so conclusion c holds iff W*A/(A+B) > c-1, which is the
    integer inequality p^(lm*e) > r^(W-e) with e = W-c+1 >= 1. The largest
    c has the least such e, the least e > W*B/(A+B): read off float
    logarithms, then confirmed by exact comparison.

    Raises CertificateError before forming p^(lm) or a side of more than
    MAX_DIGITS digits. For r >= 2 the larger side is at least
    2^max(e, c-1) >= 2^(W/2), which bounds W before it meets a float.
    """
    _bounded(l * m * (p.bit_length() - 1), "p^(lm)")
    base, w, e = p ** (l * m), weight_total, 1
    if r > 1:
        _bounded(w // 2, "comparison side")
        e = min(w, int(w * math.log(r) / math.log(base * r)) + 1)
        # the float estimate is off by at most one
        _bounded((e - 1) * (base.bit_length() - 1), "comparison side")
        while e > 1 and base ** (e - 1) > r ** (w - e + 1):
            e -= 1
        while base**e <= r ** (w - e):
            e += 1
    return w - e + 1, Comparison(base**e, r ** (w - e))


def _shared(values, what: str):
    """The one value every contribution gives for `what`."""
    values = set(values)
    if len(values) != 1:
        raise CertificateError(f"contributions must share {what}")
    return values.pop()


# Each derivation maps a proof kind's contributions to the target order, the
# conclusion and the comparison they imply; certifying stores that triple and
# checking re-derives it.


def _derive_exact(parts: Sequence[ExactContribution]) -> tuple[int, int, Comparison]:
    """The largest c with (product of counts) > |target|^(c-1), that is the
    least c with product <= |target|^c. c = 0 is vacuous (any d >= 0),
    recorded with rhs 0, and the only conclusion a trivial target gives,
    since only the trivial hom reaches it."""
    target_order = _shared((part.target_order for part in parts), "one target order")
    if target_order < 1 or any(part.count < 1 for part in parts):
        raise CertificateError("exact counts and the target order must be >= 1")
    # a count of k bits is at least 2^(k-1)
    _bounded(sum(part.count.bit_length() - 1 for part in parts), "product of counts")
    lhs = prod(part.count for part in parts)
    c = _ilog(lhs - 1, target_order) + 1 if lhs > 1 and target_order > 1 else 0
    return target_order, c, Comparison(lhs, target_order ** (c - 1) if c else 0)


def _derive_power(parts: Sequence[FormulaContribution]) -> tuple[int, int, Comparison]:
    p, l, m, r = _shared(((c.p, c.l, c.m, c.r) for c in parts), "p, l, m, r")
    if p < 2 or min(l, m, r, *(c.weight for c in parts)) < 1:
        raise CertificateError("formula needs p >= 2 and l, m, r and every weight >= 1")
    conclusion, comparison = power_conclusion(p, l, m, r, sum(c.weight for c in parts))
    return p ** (l * m) * r, conclusion, comparison


def _derive_symbolic(parts: Sequence[EmbeddingContribution]) -> tuple[int, int, Comparison]:
    degree = _shared((c.degree for c in parts), "one embedding degree")
    # the top half of the factors of degree! each exceed degree // 2
    half = degree // 2
    _bounded(half * (half.bit_length() - 1), "degree!")
    kfact = factorial(degree)
    return kfact, len(parts) + 1, Comparison(kfact + 1, kfact)


class _Proof(NamedTuple):
    """One proof kind: the contributions it takes, how a document writes
    them, and the derivation its certificates rest on."""

    contribution_kind: str
    contribution_type: type
    # integer fields in constructor order, each with its document form: a
    # decimal string, or a JSON int for the small `weight`
    fields: dict[str, type]
    derive: Callable[[Sequence[Contribution]], tuple[int, int, Comparison]]


PROOFS = {
    PROOF_EXACT: _Proof(
        "exact", ExactContribution, {"count": str, "target_order": str}, _derive_exact
    ),
    PROOF_POWER: _Proof(
        "formula", FormulaContribution, {"p": str, "l": str, "m": str, "r": str, "weight": int},
        _derive_power,
    ),
    PROOF_SYMBOLIC: _Proof("embedding", EmbeddingContribution, {"degree": str}, _derive_symbolic),
}
_BY_KIND = {proof.contribution_kind: proof for proof in PROOFS.values()}
_BY_TYPE = {proof.contribution_type: proof for proof in PROOFS.values()}


def _certify(proof_kind, factor_names, target_name, contributions) -> BoundCertificate:
    contributions = tuple(contributions)
    order, conclusion, comparison = PROOFS[proof_kind].derive(contributions)
    return BoundCertificate(
        tuple(factor_names), target_name, order, contributions, comparison, conclusion, proof_kind
    )


def certify_exact_counts(
    factor_names: Sequence[str], target_name: str, results: Sequence[HomCountResult]
) -> BoundCertificate:
    contributions = [ExactContribution(r.count, r.target_order) for r in results]
    return _certify(PROOF_EXACT, factor_names, target_name, contributions)


def lower_bound_explicit(
    factors: Sequence[Presentation], target: FiniteGroup
) -> BoundCertificate:
    """Certificate from exact per-factor homomorphism counts.

    The conclusion c is certified by the big-integer inequality
    (product of counts) > |target|^(c-1).
    """
    if not factors:
        raise ValueError("need at least one factor")
    results = count_homs_per_factor(factors, target)
    return certify_exact_counts([f.describe() for f in factors], target.describe(), results)


def certify_formula(
    factor_names: Sequence[str], target_name: str, contributions: Sequence[FormulaContribution]
) -> BoundCertificate:
    """Certificate for formula bounds into V^m : R, of order p^(lm) * r."""
    return _certify(PROOF_POWER, factor_names, target_name, contributions)


def certify_embeddings(factor_names: Sequence[str], degree: int) -> BoundCertificate:
    """Certificate for factors embedding in Sym(degree) with trivial
    centralizer: each count is at least degree!+1, so each h exceeds 1 and
    the sum exceeds the number of factors.
    """
    contributions = [EmbeddingContribution(degree) for _ in factor_names]
    return _certify(PROOF_SYMBOLIC, factor_names, f"sym({degree})", contributions)


def check_certificate(cert: BoundCertificate) -> None:
    """Independent re-validation; raises CertificateError on any mismatch.

    The target order, the comparison and the conclusion are re-derived from
    the stored per-factor integers alone; homomorphism counts are never
    recomputed, so checking is instant even for certificates whose search
    took long.
    """
    if cert.conditional:
        raise CertificateError("certificate is conditional and proves nothing")
    if not cert.comparison.holds():
        raise CertificateError("stored comparison does not hold")
    proof = PROOFS.get(cert.proof_kind)
    if proof is None:
        raise CertificateError(f"unknown proof kind {cert.proof_kind!r}")
    if not all(isinstance(c, proof.contribution_type) for c in cert.contributions):
        raise CertificateError(f"{cert.proof_kind} certificate with foreign parts")
    derived = proof.derive(cert.contributions)
    stored = (cert.target_order, cert.conclusion, cert.comparison)
    names = ("target_order", "conclusion", "comparison")
    wrong = [name for name, a, b in zip(names, derived, stored) if a != b]
    if wrong:
        raise CertificateError(f"{cert.proof_kind} re-derivation mismatch in {', '.join(wrong)}")


# -- serialization -----------------------------------------------------------


def _contribution_to_doc(c: Contribution) -> dict:
    proof = _BY_TYPE[type(c)]
    fields = {key: write(getattr(c, key)) for key, write in proof.fields.items()}
    return {"kind": proof.contribution_kind, **fields}


def _field(doc, key: str, where: str, kind: type = str):
    """doc[key], checked to be a `kind`; an int may be a decimal string of
    at most MAX_DIGITS digits. A missing, mistyped or too long field raises
    CertificateError naming it."""
    if not isinstance(doc, dict):
        raise CertificateError(f"{where} must be an object")
    if key not in doc:
        raise CertificateError(f"{where} lacks the field {key!r}")
    value = doc[key]
    digits = value.removeprefix("-") if kind is int and isinstance(value, str) else ""
    if digits.isdecimal():
        if len(digits) > MAX_DIGITS:
            raise CertificateError(f"{where}.{key} has more than {MAX_DIGITS} digits")
        value = int(value)
    if not isinstance(value, kind):
        raise CertificateError(f"{where}.{key} must be of type {kind.__name__}")
    return value


def _contribution_from_doc(doc, where: str) -> Contribution:
    kind = _field(doc, "kind", where)
    if kind not in _BY_KIND:
        raise CertificateError(f"unknown contribution kind {kind!r}")
    proof = _BY_KIND[kind]
    values = [_field(doc, key, where, int) for key in proof.fields]
    try:
        return proof.contribution_type(*values)
    except CertificateError as exc:  # a value out of the contribution's range
        raise CertificateError(f"{where}: {exc}") from None


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
