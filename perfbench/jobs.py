"""Workload definitions: seeded input documents, job lists and exact oracles.

A job is one `genbound` CLI invocation. Its argv names inputs as `@name`
(a generated input document) and earlier reports as `=job` (the report
another job of the same pass wrote). Every job runs with
`--json --reproducible --output <report>` and its report is compared
against the frozen exact values in `expect`.

The seed changes the inputs only by relabelling the points of every
permutation group (a conjugation in the symmetric group), and the order
of the jobs within a pass. No expected value depends on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Permutation groups as (degree, generator image lists) before relabelling.
PERM_GROUPS = {
    "sym4": (4, [[1, 2, 3, 0], [1, 0, 2, 3]]),
    "sym6": (6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]),
    "sym7": (7, [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]),
    "alt5": (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
    # x -> x + 1 and x -> 3x on F_7 (3 is a primitive root mod 7)
    "agl-1-7": (7, [[1, 2, 3, 4, 5, 6, 0], [0, 3, 6, 2, 5, 1, 4]]),
    # Sym(4) on each block of {0..3} | {4..7}, plus the block swap
    "sym4-wr-c2": (
        8,
        [[1, 2, 3, 0, 4, 5, 6, 7], [1, 0, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]],
    ),
    # on F_2^3 with points as 3-bit integers: translation by e1, the
    # transvection e2 -> e2 + e1 and the cyclic shift of coordinates
    "agl-3-2": (
        8,
        [
            [1, 0, 3, 2, 5, 4, 7, 6],
            [0, 1, 3, 2, 4, 5, 7, 6],
            [0, 2, 4, 6, 1, 3, 5, 7],
        ],
    ),
    "c3-perm": (3, [[1, 2, 0]]),
    "c13-perm": (13, [[(i + 1) % 13 for i in range(13)]]),
}

# Presentations as (generators, relators).
PRESENTATIONS = {
    "c2": (["a"], ["a^2"]),
    "c3": (["b"], ["b^3"]),
    "c13": (["a"], ["a^13"]),
    "tri-2-3-5": (["a", "b"], ["a^2", "b^3", "(a*b)^5"]),
    "tri-2-4-5": (["a", "b"], ["a^2", "b^4", "(a*b)^5"]),
    "tri-3-3-4": (["a", "b"], ["a^3", "b^3", "(a*b)^4"]),
    "tri-2-3-7": (["a", "b"], ["a^2", "b^3", "(a*b)^7"]),
    # the relator expands to 1,210 syllables; the count equals (2,3,5)'s
    "tri-2-3-605": (["a", "b"], ["a^2", "b^3", "(a*b)^605"]),
}

ALL_TRUE = "<every value true>"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def inputs(self) -> list[str]:
        return [a[1:] for a in self.argv if a.startswith("@")]

    @property
    def needs(self) -> list[str]:
        return [a[1:] for a in self.argv if a.startswith("=")]


def _homcount(name, factor, target, count, order):
    return Job(
        name,
        ("homcount", "--factors", f"@{factor}", "--target", f"@{target}"),
        {
            "per_factor.0.count": count,
            "per_factor.0.target_order": order,
            "combined_count": count,
        },
    )


def _witness(name, target, extra, homs, width, order):
    return Job(
        name,
        ("witness", "--factors", "@c2", "@c3", "--target", f"@{target}") + extra,
        {
            "hom_count": homs,
            "width_used": width,
            "deduplicated": homs != width,
            "witness_order": order,
            "witness_d": 2,
            "witness_d_exact": True,
        },
    )


def _verify(name, source, conclusion):
    return Job(
        name,
        ("verify", "--certificate", f"={source}"),
        {"valid": True, "conclusion": conclusion},
    )


WORKLOADS: dict[str, list[Job]] = {
    "count-triangle": [
        _homcount("hom-2-3-5-sym6", "tri-2-3-5", "sym6", "1441", "720"),
        _homcount("hom-2-4-5-sym6", "tri-2-4-5", "sym6", "3676", "720"),
        _homcount("hom-3-3-4-sym6", "tri-3-3-4", "sym6", "2241", "720"),
        _homcount("hom-2-3-7-sym7", "tri-2-3-7", "sym7", "10081", "5040"),
        _homcount("hom-2-3-605-alt5", "tri-2-3-605", "alt5", "121", "60"),
        Job(
            "bound-2-3-5-cubed-alt5",
            (
                "bound", "--factors", "@tri-2-3-5", "@tri-2-3-5", "@tri-2-3-5",
                "--target", "@alt5",
            ),
            {
                "certificate.conclusion": 4,
                "certificate.comparison.lhs": "1771561",
                "certificate.comparison.rhs": "216000",
                "certificate.per_factor.0.count": "121",
                "certificate.per_factor.2.count": "121",
                "certificate.target_order": "60",
            },
        ),
    ],
    "witness-structure": [
        _witness("witness-sym4", "sym4", (), "90", "90", "288"),
        _witness("witness-agl-1-7", "agl-1-7", (), "120", "120", "294"),
        _witness(
            "witness-agl-1-7-dedup", "agl-1-7",
            ("--dedup", "--width-cap", "64"), "120", "6", "294",
        ),
        Job("dmin-sym4-wr-c2", ("dmin", "@sym4-wr-c2"),
            {"order": "1152", "d": 2, "exact": True}),
        Job("opsub-sym4-wr-c2", ("opsub", "@sym4-wr-c2", "--prime", "2"),
            {"order": "16", "index": "72"}),
        Job("dmin-agl-3-2", ("dmin", "@agl-3-2"),
            {"order": "1344", "d": 2, "exact": True}),
        Job("opsub-agl-3-2", ("opsub", "@agl-3-2", "--prime", "2"),
            {"order": "8", "index": "168"}),
    ],
    "construct-certify": [
        Job(
            "thm1-c13-c13-f3",
            ("construct-thm1", "--factors", "@c13", "@c13", "--prime", "3"),
            {
                "construction.module_dims": [3, 3],
                "target_order": "351",
                "certificate.conclusion": 2,
                "certificate.comparison.lhs": "27",
                "certificate.comparison.rhs": "13",
            },
        ),
        Job(
            "thm3-c3-c13",
            ("decompose-thm3", "--factors", "@c3-perm", "@c13-perm"),
            {
                "conditional": False,
                "p": "3",
                "m": "1",
                "target_order": "351",
                "certificate.conclusion": 2,
            },
        ),
        Job(
            "solsol-2-3-5-7",
            ("construct-solsol", "--primes", "2,3,5,7"),
            {
                "dirichlet_prime": "211",
                "certificate.conclusion": 4,
                "certificate.comparison.lhs": "9393931",
                "certificate.comparison.rhs": "9261000",
            },
        ),
        Job(
            "thm4-n2",
            ("construct-thm4", "--n", "2"),
            {
                "family.construction.k": "224",
                "family.construction.orders": ["36957", "16170605"],
                "family.flags": ALL_TRUE,
                "family.certificate.conclusion": 3,
            },
        ),
        _verify("verify-thm1", "thm1-c13-c13-f3", 2),
        _verify("verify-thm3", "thm3-c3-c13", 2),
        _verify("verify-solsol", "solsol-2-3-5-7", 4),
        _verify("verify-thm4", "thm4-n2", 3),
    ],
}


# -- inputs -----------------------------------------------------------------


def _conjugate(images: list[int], sigma: list[int]) -> list[int]:
    """sigma g sigma^-1 as an image list: the point sigma(i) maps to sigma(g(i))."""
    out = [0] * len(images)
    for i, x in enumerate(images):
        out[sigma[i]] = sigma[x]
    return out


def input_documents(names, seed: int) -> dict[str, dict]:
    """Input documents for `names`; permutation groups relabelled by the seed."""
    rng = random.Random(f"inputs:{seed}")
    docs = {}
    for name in sorted(names):
        if name in PERM_GROUPS:
            degree, gens = PERM_GROUPS[name]
            sigma = list(range(degree))
            rng.shuffle(sigma)
            docs[name] = {
                "type": "perm",
                "degree": degree,
                "generators": [_conjugate(g, sigma) for g in gens],
            }
        else:
            gens, relators = PRESENTATIONS[name]
            docs[name] = {"type": "presentation", "generators": gens, "relators": relators}
    return docs


def write_inputs(directory: Path, docs: dict[str, dict]) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n")
        paths[name] = path
    return paths


def workload_inputs(jobs: list[Job]) -> set[str]:
    return {name for job in jobs for name in job.inputs}


# -- job order and argv -----------------------------------------------------


def pass_order(jobs: list[Job], rng: random.Random) -> list[Job]:
    """Shuffled job list; a job that reads another's report runs after all
    jobs that read none."""
    first = [j for j in jobs if not j.needs]
    then = [j for j in jobs if j.needs]
    rng.shuffle(first)
    rng.shuffle(then)
    return first + then


def job_argv(job: Job, inputs: dict[str, Path], reports: Path) -> list[str]:
    argv = []
    for arg in job.argv:
        if arg.startswith("@"):
            argv.append(str(inputs[arg[1:]]))
        elif arg.startswith("="):
            argv.append(str(reports / f"{arg[1:]}.json"))
        else:
            argv.append(arg)
    argv += ["--json", "--reproducible", "--output", str(reports / f"{job.name}.json")]
    return argv


# -- oracle -----------------------------------------------------------------


def _lookup(doc, path: str):
    value = doc
    for key in path.split("."):
        value = value[int(key)] if isinstance(value, list) else value[key]
    return value


def check_report(job: Job, doc: dict) -> list[str]:
    """Mismatches between a report and the job's frozen exact values."""
    if not isinstance(doc, dict):
        return [f"report is a {type(doc).__name__}, not an object"]
    problems = []
    if doc.get("command") != job.argv[0]:
        problems.append(f"command is {doc.get('command')!r}, expected {job.argv[0]!r}")
    for path, want in job.expect.items():
        try:
            got = _lookup(doc, path)
        except (KeyError, IndexError, TypeError, ValueError):
            problems.append(f"{path} is missing")
            continue
        if want == ALL_TRUE:
            ok = isinstance(got, dict) and bool(got) and all(v is True for v in got.values())
        else:
            ok = got == want and type(got) is type(want)
        if not ok:
            problems.append(f"{path} is {got!r}, expected {want!r}")
    return problems
