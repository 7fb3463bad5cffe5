import json
import math
import time
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.bounds import (
    MAX_DIGITS,
    PROOF_EXACT,
    PROOF_POWER,
    PROOF_SYMBOLIC,
    PROOFS,
    CertificateError,
    Comparison,
    EmbeddingContribution,
    FormulaContribution,
    _ilog,
    certificate_from_doc,
    certificate_to_doc,
    certify_embeddings,
    certify_exact_counts,
    certify_formula,
    check_certificate,
    lower_bound_explicit,
    power_conclusion,
    weak_bound,
)
from genbound.cli import main
from genbound.homcount import HomCountResult
from genbound.presentations import cyclic_presentation, presentation_from_words

from helpers import alternating_group_5, free_presentation, symmetric_group


def replace(record, **changes):
    """A copy of a record with the given fields changed."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def a5_presentation():
    return presentation_from_words(["a", "b"], ["a^2", "b^3", "(a*b)^5"], name="A5")


# -- weak bound ---------------------------------------------------------------


def test_weak_bound_examples():
    assert weak_bound([2, 3]) == Fraction(7, 6)
    assert weak_bound([5]) == Fraction(4, 5)
    assert weak_bound([60] * 3) == 3 * Fraction(59, 60)


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=8))
def test_weak_bound_below_factor_count(orders):
    value = weak_bound(orders)
    assert isinstance(value, Fraction)
    assert value < len(orders)


def test_weak_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        weak_bound([2, 0])


# -- exact-count certificates ---------------------------------------------------


def test_trivial_factors_conclude_zero():
    target = symmetric_group(3)
    cert = lower_bound_explicit([cyclic_presentation(1)] * 3, target)
    assert cert.conclusion == 0
    check_certificate(cert)


def test_three_a5_factors_conclude_four():
    cert = lower_bound_explicit([a5_presentation()] * 3, alternating_group_5())
    assert cert.conclusion == 4
    assert cert.comparison == Comparison(1771561, 216000, ">")
    assert 3.51 < cert.total_h < 3.52
    check_certificate(cert)


def test_c2_c3_into_sym4_concludes_two():
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    cert = lower_bound_explicit(factors, symmetric_group(4))
    assert cert.conclusion == 2
    assert cert.comparison == Comparison(90, 24, ">")
    check_certificate(cert)


def test_conclusion_respects_generator_sum_ceiling():
    # d(C2 * C3) = 2 generators, so no target certifies more
    factors = [cyclic_presentation(2, "a"), cyclic_presentation(3, "b")]
    for target in (symmetric_group(3), symmetric_group(4), alternating_group_5()):
        assert lower_bound_explicit(factors, target).conclusion <= 2


def test_exact_integer_h_for_free_groups():

    target = symmetric_group(3)
    cert = lower_bound_explicit([free_presentation(2)], target)
    assert cert.conclusion == 2  # count = |H|^2 exactly
    assert cert.comparison.lhs == 36 and cert.comparison.rhs == 6


def test_monotonicity_adding_factor_increases_sum():
    target = symmetric_group(4)
    factors = [cyclic_presentation(2, "a")]
    one = lower_bound_explicit(factors, target)
    two = lower_bound_explicit(factors + [cyclic_presentation(3, "b")], target)
    assert two.total_h > one.total_h
    assert two.comparison.lhs > one.comparison.lhs


# -- formula certificates --------------------------------------------------------


def test_power_conclusion_examples():
    c, cmp = power_conclusion(7, 1, 1, 6, 2)
    assert (c, cmp.lhs, cmp.rhs) == (2, 7, 6)
    c, cmp = power_conclusion(2, 2, 2, 3, 3)
    assert (c, cmp.lhs, cmp.rhs) == (3, 16, 9)
    # insufficient m degrades the conclusion honestly
    c, cmp = power_conclusion(2, 2, 1, 3, 3)
    assert c == 2 and cmp.lhs == 2**4 and cmp.rhs == 3
    # r = 1 always certifies the full weight at m = 1
    c, _ = power_conclusion(5, 1, 1, 1, 4)
    assert c == 4


def looped_power_conclusion(p, l, m, r, weight_total):
    """The largest c, tried downward from W, with p^(lm(W-c+1)) > r^(c-1)."""
    for c in range(weight_total, 0, -1):
        lhs, rhs = p ** (l * m * (weight_total - c + 1)), r ** (c - 1)
        if lhs > rhs:
            return c, Comparison(lhs, rhs)


@given(
    st.integers(2, 40), st.integers(1, 3), st.integers(1, 3), st.integers(0, 6),
    st.integers(1, 50), st.integers(1, 12),
)
def test_power_conclusion_matches_the_downward_loop(p, l, m, power, r, weight_total):
    # r = p^power and r = (p^(lm))^power make P^e = r^(W-e) ties possible
    for r in (r, p**power, p ** (l * m * power)):
        assert power_conclusion(p, l, m, r, weight_total) == looped_power_conclusion(
            p, l, m, r, weight_total
        )


# -- float-guided integer searches: a float logarithm is a first guess, which
# each search corrects by exact comparison ------------------------------------


def looped_ilog(x, base):
    """The largest k with base^k <= x, counted up from 0."""
    k = 0
    while base ** (k + 1) <= x:
        k += 1
    return k


def test_ilog_corrects_a_float_logarithm_in_either_direction():
    # 2^60 - 1 rounds to the float 2^60, and log_10(1000) reads 2.999...
    assert int(math.log(2**60 - 1, 2)) == 60 and _ilog(2**60 - 1, 2) == 59
    assert int(math.log(1000, 10)) == 2 and _ilog(1000, 10) == 3


def test_power_conclusion_corrects_a_float_estimate_in_either_direction():
    # the estimate e = int(W log r / log(base r)) + 1 sees log(2^60 - 1) as
    # log 2^60, one too high, and 3 log 64 / log 512 as 1.999..., one too low
    base, r = 2**60, 2**60 - 1
    assert int(2 * math.log(r) / math.log(base * r)) + 1 == 2
    assert power_conclusion(2, 60, 1, r, 2) == (2, Comparison(2**60, 2**60 - 1))
    assert int(3 * math.log(64) / math.log(8 * 64)) + 1 == 2
    assert power_conclusion(2, 3, 1, 64, 3) == (1, Comparison(8**3, 1))


@given(st.integers(2, 1000), st.integers(1, 80), st.sampled_from([-1, 0, 1]))
def test_ilog_matches_the_integer_search_next_to_powers(base, k, offset):
    x = base**k + offset
    assert _ilog(x, base) == looped_ilog(x, base)


@given(st.integers(2, 40), st.integers(1, 20), st.integers(1, 3), st.integers(1, 12))
def test_power_conclusion_matches_the_integer_search_next_to_its_base(p, l, m, weight_total):
    # r = base -+ 1 puts r^(W-e) next to base^(W-e), where floats cannot tell
    # them apart, and r = base^2 makes ties base^e = r^(W-e) at W = 3e
    base = p ** (l * m)
    for r in (base - 1, base, base + 1, base**2):
        assert power_conclusion(p, l, m, r, weight_total) == looped_power_conclusion(
            p, l, m, r, weight_total
        )


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=4),
    st.integers(1, 10**4),
    st.integers(0, 3),
)
def test_exact_conclusion_matches_the_upward_loop(counts, target_order, power):
    counts.append(target_order**power)  # lands some products on a power of the order
    lhs, c = prod(counts), 0
    while target_order > 1 and lhs > target_order**c:
        c += 1
    cert = certify_exact_counts(["G"] * len(counts), "t", [
        HomCountResult(count, target_order) for count in counts
    ])
    assert cert.conclusion == c
    assert cert.comparison == Comparison(lhs, target_order ** (c - 1) if c else 0)


def test_certify_formula_round_trip():
    contribs = [FormulaContribution(7, 1, 1, 6) for _ in range(2)]
    cert = certify_formula(["C2", "C3"], "affine-target", contribs)
    assert cert.conclusion == 2
    check_certificate(cert)
    doc = certificate_to_doc(cert)
    assert certificate_from_doc(json.loads(json.dumps(doc))) == cert


MISSING = object()


MALFORMED_FIELDS = [
    (("target",), None, "certificate.target must be of type str"),
    (("target_order",), MISSING, "certificate lacks the field 'target_order'"),
    (("per_factor",), {}, "certificate.per_factor must be of type list"),
    (("per_factor", 1), 3, r"certificate.per_factor\[1\] must be an object"),
    (("per_factor", 0, "r"), [6], r"per_factor\[0\].r must be of type int"),
    (("per_factor", 0, "p"), "seven", r"per_factor\[0\].p must be of type int"),
    (("per_factor", 1, "weight"), MISSING, r"per_factor\[1\] lacks the field 'weight'"),
    (("comparison", "lhs"), None, "certificate.comparison.lhs must be of type int"),
    (("comparison", "rhs"), "--1", "certificate.comparison.rhs must be of type int"),
    (("comparison", "relation"), MISSING, "comparison lacks the field 'relation'"),
    (("conditional",), "no", "certificate.conditional must be of type bool"),
]


@pytest.mark.parametrize(
    "path, value, message",
    MALFORMED_FIELDS,
    ids=[".".join(map(str, path)) for path, _, _ in MALFORMED_FIELDS],
)
def test_certificate_from_doc_names_a_malformed_field(path, value, message):
    doc = certificate_to_doc(
        certify_formula(["C2", "C3"], "t", [FormulaContribution(7, 1, 1, 6)] * 2)
    )
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(CertificateError, match=message):
        certificate_from_doc(doc)


DEGENERATE_FORMULAS = {
    "l-and-r-zero": FormulaContribution(2, 0, 1, 0),
    "p-one": FormulaContribution(1, 1, 1, 6),
    "p-zero": FormulaContribution(0, 1, 1, 6),
    "l-zero": FormulaContribution(7, 0, 1, 6),
    "m-zero": FormulaContribution(7, 1, 0, 6),
    "r-zero": FormulaContribution(7, 1, 1, 0),
    "weight-zero": FormulaContribution(7, 1, 1, 6, 0),
}


@pytest.mark.parametrize("part", DEGENERATE_FORMULAS.values(), ids=DEGENERATE_FORMULAS.keys())
def test_formula_certificate_rejects_degenerate_params(part):
    # l = r = 0 would give target order 0, and five such parts would
    # conclude 5 from 1 > 0
    with pytest.raises(CertificateError, match="formula needs"):
        check_certificate(certify_formula(["a"] * 5, "t", [part] * 5))


def test_exact_certificate_counts_each_distinct_factor_once(monkeypatch):
    from genbound import homcount

    searched = []
    count_homs = homcount.count_homs
    monkeypatch.setattr(
        homcount, "count_homs", lambda f, target: searched.append(f) or count_homs(f, target)
    )
    a5 = a5_presentation()
    factors = [a5, a5_presentation(), cyclic_presentation(2), a5]
    cert = lower_bound_explicit(factors, alternating_group_5())
    assert searched == [a5, cyclic_presentation(2)]
    assert [c.count for c in cert.contributions] == [121, 121, 16, 121]
    check_certificate(cert)


def test_formula_certificate_rejects_mixed_params():
    with pytest.raises(ValueError, match="share"):
        certify_formula(
            ["a", "b"],
            "t",
            [FormulaContribution(7, 1, 1, 6), FormulaContribution(5, 1, 1, 6)],
        )


# -- symbolic certificates --------------------------------------------------------


def test_certify_embeddings():
    cert = certify_embeddings(["G1", "G2"], 224)
    assert cert.conclusion == 3
    assert cert.comparison.lhs == factorial(224) + 1
    assert cert.comparison.rhs == factorial(224)
    assert cert.comparison.lhs - cert.comparison.rhs == 1
    check_certificate(cert)
    # the float display cannot see the margin; the integers can
    assert cert.total_h == 2.0


def test_symbolic_round_trip_is_bit_exact():
    cert = certify_embeddings(["G1", "G2"], 224)
    doc = certificate_to_doc(cert)
    text = json.dumps(doc, sort_keys=True)
    again = certificate_to_doc(certificate_from_doc(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text
    assert len(doc["comparison"]["rhs"]) > 400  # ~440 decimal digits


# -- tamper detection ---------------------------------------------------------------


def test_check_rejects_tampered_conclusion():
    cert = lower_bound_explicit([a5_presentation()] * 3, alternating_group_5())
    tampered = replace(cert, conclusion=5)
    with pytest.raises(CertificateError):
        check_certificate(tampered)


def test_check_rejects_tampered_comparison():
    cert = lower_bound_explicit([cyclic_presentation(2)], symmetric_group(3))
    tampered = replace(cert, comparison=Comparison(100, 6))
    with pytest.raises(CertificateError):
        check_certificate(tampered)


def test_check_rejects_conditional():
    cert = lower_bound_explicit([cyclic_presentation(2)], symmetric_group(3))
    with pytest.raises(CertificateError, match="conditional"):
        check_certificate(replace(cert, conditional=True))


def test_check_rejects_unknown_proof_kind():
    cert = lower_bound_explicit([cyclic_presentation(2)], symmetric_group(3))
    with pytest.raises(CertificateError, match="proof kind"):
        check_certificate(replace(cert, proof_kind="hand-waving"))


# -- the checker re-derives every stored integer of each proof kind --------------


FORMULA = FormulaContribution(7, 1, 1, 6)


def power_cert():
    return certify_formula(["C2", "C3"], "affine-target", [FORMULA] * 2)


def symbolic_cert():
    return certify_embeddings(["G1", "G2"], 5)


def _with_parts(cert, *parts):
    return replace(cert, contributions=parts)


def _raised(contribution, field):
    return replace(contribution, **{field: getattr(contribution, field) + 1})


FORGERIES = {
    "power-foreign-part": lambda: _with_parts(power_cert(), FORMULA, EmbeddingContribution(5)),
    "power-mixed-p": lambda: _with_parts(power_cert(), FORMULA, _raised(FORMULA, "p")),
    "power-mixed-l": lambda: _with_parts(power_cert(), FORMULA, _raised(FORMULA, "l")),
    "power-mixed-m": lambda: _with_parts(power_cert(), FORMULA, _raised(FORMULA, "m")),
    "power-mixed-r": lambda: _with_parts(power_cert(), FORMULA, _raised(FORMULA, "r")),
    "power-conclusion-up": lambda: replace(power_cert(), conclusion=3),
    "power-conclusion-down": lambda: replace(power_cert(), conclusion=1),
    "power-comparison": lambda: replace(power_cert(), comparison=Comparison(8, 6)),
    "power-target-order": lambda: replace(power_cert(), target_order=7),
    "symbolic-foreign-part": lambda: _with_parts(
        symbolic_cert(), EmbeddingContribution(5), FORMULA
    ),
    "symbolic-degrees-differ": lambda: _with_parts(
        symbolic_cert(), EmbeddingContribution(5), EmbeddingContribution(6)
    ),
    "symbolic-conclusion-up": lambda: replace(symbolic_cert(), conclusion=4),
    "symbolic-conclusion-down": lambda: replace(symbolic_cert(), conclusion=2),
    "symbolic-comparison": lambda: replace(symbolic_cert(), comparison=Comparison(122, 120)),
    "symbolic-target-order": lambda: replace(symbolic_cert(), target_order=121),
}


@pytest.mark.parametrize("forgery", FORGERIES.values(), ids=FORGERIES.keys())
def test_check_rejects_forgery(forgery):
    with pytest.raises(CertificateError):
        check_certificate(forgery())


# -- every proof kind of the table ------------------------------------------------

# one certificate per proof kind; a kind added to PROOFS needs one here
EXAMPLES = {
    PROOF_EXACT: lambda: lower_bound_explicit([a5_presentation()] * 3, alternating_group_5()),
    PROOF_POWER: power_cert,
    PROOF_SYMBOLIC: symbolic_cert,
}


@pytest.mark.parametrize("proof_kind", sorted(PROOFS))
def test_proof_kind_round_trips_and_rejects_a_raised_conclusion(proof_kind):
    cert = EXAMPLES[proof_kind]()
    assert cert.proof_kind == proof_kind
    check_certificate(cert)
    text = json.dumps(certificate_to_doc(cert), sort_keys=True)
    again = certificate_from_doc(json.loads(text))
    assert again == cert
    assert json.dumps(certificate_to_doc(again), sort_keys=True) == text
    with pytest.raises(CertificateError, match="re-derivation mismatch"):
        check_certificate(replace(cert, conclusion=cert.conclusion + 1))


def _hostile(proof_kind, *parts):
    """A certificate document over `parts` whose stored comparison holds, so
    that only the re-derivation can reject it."""
    return {
        "schema": "genbound-certificate/1",
        "factors": ["G"] * len(parts),
        "target": "t",
        "target_order": "60",
        "per_factor": list(parts),
        "comparison": {"lhs": "10000", "rhs": "3600", "relation": ">"},
        "conclusion": 3,
        "proof_kind": proof_kind,
    }


def _formula(**fields):
    return {"kind": "formula", "p": "7", "l": "1", "m": "1", "r": "6", "weight": 1, **fields}


TOO_LARGE = f"would exceed {MAX_DIGITS} decimal digits"

# out-of-range documents, with the reason verify gives, for each proof kind;
# a kind added to PROOFS needs at least one here
HOSTILE = {
    PROOF_EXACT: {
        # (-100)^2 = 10000 > 60^2 would conclude 3
        "negative-counts": (
            _hostile(PROOF_EXACT, *[{"kind": "exact", "count": "-100", "target_order": "60"}] * 2),
            "exact counts and the target order must be >= 1",
        ),
        "product-of-counts": (
            _hostile(
                PROOF_EXACT,
                *[{"kind": "exact", "count": "9" * MAX_DIGITS, "target_order": "60"}] * 2,
            ),
            f"product of counts {TOO_LARGE}",
        ),
    },
    PROOF_POWER: {
        "l-and-m": (
            _hostile(PROOF_POWER, _formula(l="100000", m="100000")), f"p^(lm) {TOO_LARGE}"
        ),
        "weight": (
            _hostile(PROOF_POWER, _formula(weight=10**8)), f"comparison side {TOO_LARGE}"
        ),
    },
    PROOF_SYMBOLIC: {
        "degree": (
            _hostile(PROOF_SYMBOLIC, {"kind": "embedding", "degree": "100000"}),
            f"degree! {TOO_LARGE}",
        ),
    },
}


@pytest.mark.parametrize("proof_kind", sorted(PROOFS))
def test_proof_kind_rejects_hostile_documents_in_bounded_time(proof_kind, tmp_path, capsys):
    assert HOSTILE[proof_kind]
    for name, (doc, reason) in HOSTILE[proof_kind].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        status = main(["verify", "--certificate", str(path), "--json", "--reproducible"])
        elapsed = time.perf_counter() - start
        assert status == 2, name
        assert json.loads(capsys.readouterr().out) == {
            "command": "verify", "valid": False, "reason": reason
        }
        assert elapsed < 1, (name, elapsed)
