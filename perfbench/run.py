"""genbound benchmark: seeded CLI job mixes, run in process, one job at a time.

    python3 perfbench/run.py --workload count-triangle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload count-triangle --seed 1 --seconds 30 --trace 1

Each job is one `genbound.cli.main` call on freshly written input files, so
it parses its own groups and pays its own enumeration, as one CLI process
would. The next job starts when the previous one returns (a closed loop
with a single user). Passes over the workload's job list repeat until
`--seconds` would be exceeded; every report is checked against the job's
frozen exact values after the pass.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates an
untraced and a traced pass and reports the per-layer metrics read off the
traced passes. The last line of standard output is the result object; the
line before it carries the run's metadata. Both are also written to
`.perfbench/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import jobs as J
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up rounds before each pass: one round takes tens of ms, and its time
# drifts with the machine, so rounds are spread over the run and the
# median of all of them is reported.
SETUP_ROUNDS = 5


class SetupError(RuntimeError):
    pass


def load_genbound():
    """Import `genbound.cli` afresh from the checkout's `src` directory."""
    for name in [n for n in sys.modules if n == "genbound" or n.startswith("genbound.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("genbound.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"genbound was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Bench:
    cli: object
    inputs: dict
    reports: Path


def set_up(job_list, seed: int, workdir: Path) -> Bench:
    """One set-up round: import genbound, write the seeded inputs, and parse
    each back to check that it round-trips."""
    cli = load_genbound()
    gio = sys.modules["genbound.io"]
    docs = J.input_documents(J.workload_inputs(job_list), seed)
    paths = J.write_inputs(workdir / "inputs", docs)
    for name, doc in docs.items():
        canon = gio.serialize_group(gio.parse_group_file(paths[name]))
        if doc["type"] == "perm":
            ok = canon == doc
        else:
            ok = canon["generators"] == doc["generators"] and len(
                canon["relators"]
            ) == len(doc["relators"])
        if not ok:
            raise SetupError(f"input {name} does not round-trip: {canon}")
    reports = workdir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    return Bench(cli, paths, reports)


@dataclass
class Pass:
    wall: float
    times: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _call(cli, argv):
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        return f"exit {exc.code}"
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        return traceback.format_exc()
    return "" if status == 0 else f"exit status {status}"


def run_pass(bench: Bench, order, tracer: tracing.Tracer | None = None) -> Pass:
    """Run the jobs in `order`, then check every report against its oracle."""
    for stale in bench.reports.glob("*.json"):
        stale.unlink()
    argvs = [J.job_argv(job, bench.inputs, bench.reports) for job in order]
    result = Pass(0.0)
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for job, argv in zip(order, argvs):
            nodes_before = tracer.counts["homcount.nodes"] if tracer else 0
            t0 = perf_counter()
            error = _call(bench.cli, argv)
            result.times[job.name] = perf_counter() - t0
            if error:
                result.errors[job.name] = error
            if tracer is not None:
                result.nodes[job.name] = tracer.counts["homcount.nodes"] - nodes_before
        result.wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result.spans, result.counts = tracer.take()
    for job in order:
        if job.name in result.errors:
            continue
        try:
            data = (bench.reports / f"{job.name}.json").read_bytes()
            problems = J.check_report(job, json.loads(data))
        except (OSError, ValueError) as exc:
            problems = [f"unreadable report: {exc}"]
        if problems:
            result.errors[job.name] = "; ".join(problems)
        else:
            result.reports[job.name] = data
    for name, error in result.errors.items():
        print(f"job {name} failed: {error}", file=sys.stderr)
    return result


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_head() -> str:
    """HEAD commit read from `.git`, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(job_list, seed: int, seconds: float, tracer, workdir: Path):
    """Rounds until the next one would end after `seconds`. A round is
    SETUP_ROUNDS set-up rounds and an untraced pass, followed in trace mode
    by a traced pass in the same job order."""
    rng = random.Random(f"order:{seed}")
    setup_times, plain, traced = [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for _ in range(SETUP_ROUNDS):
            t0 = perf_counter()
            bench = set_up(job_list, seed, workdir)
            setup_times.append(perf_counter() - t0)
        order = J.pass_order(job_list, rng)
        # collect the previous round's garbage outside the timed pass, so
        # the peak RSS and the pass time do not depend on when it happens
        gc.collect()
        plain.append(run_pass(bench, order))
        if tracer is not None:
            traced.append(run_pass(bench, order, tracer))
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            return setup_times, plain, traced


def trace_problems(plain, traced) -> list[str]:
    """Tracing must not change any report, and its counters must repeat."""
    problems = []
    for untraced, with_trace in zip(plain, traced):
        for name, data in with_trace.reports.items():
            if name in untraced.reports and untraced.reports[name] != data:
                problems.append(f"traced report of {name} differs from the untraced one")
    if any(later.counts != traced[0].counts for later in traced[1:]):
        problems.append("traced counters differ between passes")
    return problems


def layer_result(traced, overhead: float) -> dict:
    per_pass = [tracing.layer_metrics(p.spans, p.counts) for p in traced]
    out = {}
    for name in tracing.layer_metric_names():
        values = [m[name] for m in per_pass]
        unit = tracing.metric_unit(name)
        value = statistics.median(values) if unit in ("s", "1/s") else values[0]
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    job_list = J.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, plain, traced = measure(job_list, args.seed, args.seconds, tracer, workdir)
    except (ImportError, SetupError, OSError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    problems = trace_problems(plain, traced)
    for problem in problems:
        print(problem, file=sys.stderr)
    walls = [p.wall for p in plain]
    overhead = None
    if args.trace:
        overhead = statistics.median(p.wall for p in traced) - statistics.median(walls)
        metrics = layer_result(traced, overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "job_geomean_s": {
                "value": statistics.median(geomean(p.times.values()) for p in plain),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_head": git_head(),
        "loadavg_start": list(loadavg),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s_quartiles": _quartiles(walls),
        "setup_s_rounds": setup_times,
        "failed_ratio": failed / attempted,
        "tracing_overhead_s": overhead,
        "job_nodes": traced[0].nodes if traced else None,
        "untraced_hooks": sorted(tracer.missing) if tracer else None,
        "job_median_s": {
            job.name: statistics.median(p.times[job.name] for p in plain) for job in job_list
        },
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "job_times": [p.times for p in passes]}
    if args.trace:
        record["spans"] = [p.spans for p in traced]
        record["counts"] = [p.counts for p in traced]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
