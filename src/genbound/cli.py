"""Command-line front end.

One process runs one job. Subcommands parse group/presentation documents,
dispatch the computation, and emit a report (JSON with --json, a compact
text rendering otherwise). Exit codes: 0 success, 2 verification failure,
1 error. All exact values in reports are decimal strings; floats appear
only in display fields. --reproducible omits the timestamp so reports
diff byte-for-byte.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

from .bounds import (
    CertificateError,
    certificate_from_doc,
    certificate_to_doc,
    certify_formula,
    check_certificate,
    lower_bound_explicit,
)
from .constructions import (
    ConstructionError,
    VerificationFailure,
    abelianization_split,
    coprime_family,
    family_to_doc,
    metabelian_target,
    reduce_cyclic_orders,
    semidirect_target,
    simple_modules,
)
from .groups import ClosureOverflowError, FiniteGroup
from .homcount import (
    DEFAULT_WITNESS_WIDTH_CAP,
    HomSearchBudgetError,
    WitnessWidthError,
    count_homs_per_factor,
    witness_quotient,
)
from .io import FileFormatError, _load_json, dump_document, parse_group_file
from .numtheory import INPUT_INTEGER_BOUND, SearchCapError
from .presentations import Presentation
from .subgroups import d_min_generators, largest_normal_p_subgroup

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFICATION = 2
# `witness` runs d_min, a search, on the witness kernel only up to this
# witness order; above it the report gives the reason as witness_d_skipped
WITNESS_DMIN_CAP = 512


class JobError(RuntimeError):
    pass


def _require_presentations(paths, role: str) -> list[Presentation]:
    out = []
    for path in paths:
        obj = parse_group_file(path)
        if not isinstance(obj, Presentation):
            raise JobError(f"{role} {path} must be a presentation document")
        out.append(obj)
    return out


def _require_group(path, role: str) -> FiniteGroup:
    obj = parse_group_file(path)
    if isinstance(obj, Presentation):
        raise JobError(f"{role} {path} must be a realized group, not a presentation")
    return obj


def _construction_doc(target) -> dict:
    """The report's `construction` block: the target's p, l, m and r."""
    return {key: str(getattr(target, key)) for key in ("p", "l", "m", "r")}


def _bounded(value: int, option: str) -> int:
    """An integer option that the job tests for primality or factors, once
    it is below `INPUT_INTEGER_BOUND`."""
    if value >= INPUT_INTEGER_BOUND:
        raise JobError(f"{option} value {value} is not below 2^32")
    return value


def _parse_primes(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise JobError(f"bad --primes value {text!r}: {exc}") from exc
    return [_bounded(value, "--primes") for value in values]


# -- subcommand handlers -----------------------------------------------------


def _cmd_homcount(args) -> tuple[int, dict]:
    factors = _require_presentations(args.factors, "factor")
    target = _require_group(args.target, "target")
    results = count_homs_per_factor(factors, target)
    order = results[0].target_order  # counts into Sym(n) and Alt(n) never enumerate them
    per_factor = []
    product = 1
    for f, result in zip(factors, results):
        product *= result.count
        per_factor.append(
            {
                "factor": f.describe(),
                "count": str(result.count),
                "target_order": str(result.target_order),
                "h": result.h,
            }
        )
    ratio = 0.0 if order == 1 else math.log(product) / math.log(order)
    report = {
        "per_factor": per_factor,
        "combined_count": str(product),
        "combined_h": ratio,
        "target": target.describe(),
    }
    return EXIT_OK, report


def _cmd_bound(args) -> tuple[int, dict]:
    factors = _require_presentations(args.factors, "factor")
    target = _require_group(args.target, "target")
    cert = lower_bound_explicit(factors, target)
    check_certificate(cert)
    return EXIT_OK, {"certificate": certificate_to_doc(cert)}


def _cmd_witness(args) -> tuple[int, dict]:
    if args.width_cap < 1:
        raise JobError(f"--width-cap {args.width_cap} is below 1: a witness is 1 hom wide or more")
    factors = _require_presentations(args.factors, "factor")
    target = _require_group(args.target, "target")
    witness = witness_quotient(
        factors, target, width_cap=args.width_cap, dedup_kernels=args.dedup
    )
    report = {
        "source": witness.source.describe(),
        "hom_count": str(witness.hom_count_used),
        "width_used": str(witness.width_used),
        "deduplicated": witness.deduplicated,
        "witness_order": str(witness.group.order),
    }
    if witness.group.order <= WITNESS_DMIN_CAP:
        result = d_min_generators(witness.group.compiled)
        report["witness_d"] = result.value
        report["witness_d_exact"] = result.exact
    else:
        report["witness_d_skipped"] = (
            f"witness order {witness.group.order} exceeds the d_min cap {WITNESS_DMIN_CAP}"
        )
    return EXIT_OK, report


def _cmd_dmin(args) -> tuple[int, dict]:
    group = _require_group(args.group, "group")
    result = d_min_generators(group)
    report = {
        "group": group.describe(),
        "order": str(group.order),
        "d": result.value,
        "exact": result.exact,
    }
    if result.witness is not None:
        report["witness"] = [repr(x) for x in result.witness]
    return EXIT_OK, report


def _cmd_opsub(args) -> tuple[int, dict]:
    group = _require_group(args.group, "group")
    handle = largest_normal_p_subgroup(group, _bounded(args.prime, "--prime"))
    return EXIT_OK, {
        "group": group.describe(),
        "prime": args.prime,
        "order": str(handle.order),
        "index": str(group.order // handle.order),
    }


def _cmd_construct_solsol(args) -> tuple[int, dict]:
    primes = reduce_cyclic_orders(_parse_primes(args.primes))
    # the Dirichlet search trial-divides 1 + j * prod(primes): bound that too
    _bounded(math.prod(primes), "--primes product")
    result = metabelian_target(primes, m=args.m)
    check_certificate(result.certificate)
    report = {
        "primes": [str(q) for q in result.primes],
        "dirichlet_prime": str(result.p),
        "target": result.target.describe(),
        "target_order": str(result.target.order),
        "construction": _construction_doc(result.target),
        "metabelian": result.metabelian,
        "certificate": certificate_to_doc(result.certificate),
    }
    return EXIT_OK, report


def _cmd_construct_thm1(args) -> tuple[int, dict]:
    factors = _require_presentations(args.factors, "factor")
    modules, dims, r, failed = simple_modules(factors, _bounded(args.prime, "--prime"))
    if failed:
        i, search = failed[0]
        [(dim, why)] = search.skipped
        raise JobError(
            f"no nontrivial irreducible action of {factors[i].describe()} over "
            f"F_{args.prime} below dimension {dim} (dim {dim}: {why})"
        )
    target, contributions = semidirect_target(modules, args.m, module_dims=dims, r=r)
    cert = certify_formula([f.describe() for f in factors], target.describe(), contributions)
    check_certificate(cert)
    report = {
        "target": target.describe(),
        "target_order": str(target.order),
        "construction": {
            **_construction_doc(target),
            "module_dims": list(target.module_dims),
        },
        "certificate": certificate_to_doc(cert),
    }
    return EXIT_OK, report


def _cmd_construct_thm4(args) -> tuple[int, dict]:
    instance = coprime_family(args.n)
    check_certificate(instance.certificate)
    return EXIT_OK, {"family": family_to_doc(instance)}


def _cmd_decompose_thm3(args) -> tuple[int, dict]:
    groups = [_require_group(p, "factor") for p in args.factors]
    split = abelianization_split(groups, m=args.m)
    report = {
        "s_prime": split.s_prime,
        "p": str(split.p),
        "t": split.t,
        "parts": list(split.reduced_names),
        "residual_rank": split.residual_rank,
        "conditional": split.conditional,
    }
    if split.conditional:
        report["missing_modules"] = list(split.missing)
        return EXIT_VERIFICATION, report
    report["m"] = str(split.m)
    report["target_order"] = str(split.target.order)
    report["construction"] = _construction_doc(split.target)
    report["certificate"] = certificate_to_doc(split.certificate)
    check_certificate(split.certificate)
    return EXIT_OK, report


def _cmd_verify(args) -> tuple[int, dict]:
    # a certificate, a report holding one, or a construct-thm4 report
    doc = _load_json(args.certificate)
    if isinstance(doc.get("family"), dict):
        doc = doc["family"]
    cert = certificate_from_doc(doc.get("certificate", doc))
    try:
        check_certificate(cert)
    except CertificateError as exc:
        return EXIT_VERIFICATION, {"valid": False, "reason": str(exc)}
    return EXIT_OK, {"valid": True, "conclusion": cert.conclusion}


# -- argument parsing and dispatch -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbound",
        description=(
            "Certified lower bounds on the number of generators of the "
            "profinite completion of a free product of finite groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument(
            "--reproducible",
            action="store_true",
            help="omit volatile fields (timestamp) from the report",
        )
        p.add_argument("--output", type=Path, help="write the report to this path")

    p = sub.add_parser("homcount", help="per-factor and combined hom counts")
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--target", required=True)
    common(p)
    p.set_defaults(handler=_cmd_homcount)

    p = sub.add_parser("bound", help="exact-count lower-bound certificate")
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--target", required=True)
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("witness", help="witness quotient order and d")
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--width-cap", type=int, default=DEFAULT_WITNESS_WIDTH_CAP)
    p.add_argument("--dedup", action="store_true", help="deduplicate homs by kernel")
    common(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("dmin", help="minimal number of generators")
    p.add_argument("group")
    common(p)
    p.set_defaults(handler=_cmd_dmin)

    p = sub.add_parser("opsub", help="largest normal p-subgroup")
    p.add_argument("group")
    p.add_argument("--prime", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_opsub)

    p = sub.add_parser(
        "construct-solsol", help="metabelian target for cyclic factors"
    )
    p.add_argument("--primes", required=True, help="comma-separated cyclic orders")
    p.add_argument("--m", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_construct_solsol)

    p = sub.add_parser(
        "construct-thm1", help="semidirect power target from module actions"
    )
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_construct_thm1)

    p = sub.add_parser(
        "construct-thm4", help="coprime family on a common symmetric target"
    )
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_construct_thm4)

    p = sub.add_parser(
        "decompose-thm3", help="split factors through abelianizations"
    )
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--m", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_decompose_thm3)

    p = sub.add_parser("verify", help="re-validate a certificate")
    p.add_argument("--certificate", type=Path, required=True)
    common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


PARSER = build_parser()


def _render_text(doc: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            rendered = json.dumps(value)
            if len(rendered) <= 100:
                lines.append(f"{pad}{key}: {rendered}")
            else:
                lines.append(f"{pad}{key}:")
                for item in value:
                    lines.append(f"{pad}  - {json.dumps(item)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        status, report = args.handler(args)
    except (
        JobError,
        FileFormatError,
        ConstructionError,
        VerificationFailure,
        ClosureOverflowError,
        HomSearchBudgetError,
        WitnessWidthError,
        SearchCapError,
        CertificateError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION if isinstance(exc, VerificationFailure) else EXIT_ERROR
    report = {"command": args.command, **report}
    if not args.reproducible:
        report["generated_at"] = (
            datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
    text = dump_document(report) if args.json else _render_text(report) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
