"""Tests of the benchmark itself: oracles, seeded inputs, tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import jobs as J
import run
import tracing

# jobs from every workload that finish in well under a second each
CHEAP = [
    "hom-2-3-5-sym6",
    "hom-2-3-605-alt5",
    "bound-2-3-5-cubed-alt5",
    "witness-agl-1-7-dedup",
    "dmin-agl-3-2",
    "opsub-agl-3-2",
    "solsol-2-3-5-7",
    "thm4-n2",
    "verify-solsol",
    "verify-thm4",
]


def cheap_jobs():
    by_name = {job.name: job for jobs in J.WORKLOADS.values() for job in jobs}
    return [by_name[name] for name in CHEAP]


def one_pass(tmp_path, seed, tracer=None):
    job_list = cheap_jobs()
    bench = run.set_up(job_list, seed, tmp_path / f"seed{seed}")
    return run.run_pass(bench, J.pass_order(job_list, random.Random(seed)), tracer)


def test_every_workload_job_has_an_oracle():
    for jobs in J.WORKLOADS.values():
        assert len({job.name for job in jobs}) == len(jobs)
        for job in jobs:
            assert job.expect, job.name
            assert all(name in J.PERM_GROUPS or name in J.PRESENTATIONS for name in job.inputs)
            assert all(any(other.name == need for other in jobs) for need in job.needs)


def test_relabelling_is_a_conjugation():
    g, h = [1, 2, 0, 3], [1, 0, 2, 3]
    sigma = [2, 0, 3, 1]
    sigma_inv = [sigma.index(i) for i in range(4)]

    def compose(p, q):
        return [p[x] for x in q]

    assert J._conjugate(g, sigma) == compose(compose(sigma, g), sigma_inv)
    assert J._conjugate(compose(g, h), sigma) == compose(
        J._conjugate(g, sigma), J._conjugate(h, sigma)
    )


def test_seed_relabels_inputs_and_reorders_jobs():
    names = J.workload_inputs(J.WORKLOADS["witness-structure"])
    one, two = J.input_documents(names, 1), J.input_documents(names, 2)
    assert one == J.input_documents(names, 1)
    assert one["c2"] == two["c2"]
    assert one["sym4-wr-c2"] != two["sym4-wr-c2"]
    jobs = J.WORKLOADS["construct-certify"]
    order = J.pass_order(jobs, random.Random(1))
    assert sorted(j.name for j in order) == sorted(j.name for j in jobs)
    produced = set()
    for job in order:
        assert set(job.needs) <= produced
        produced.add(job.name)


def test_oracle_reports_mismatches():
    job = J.WORKLOADS["construct-certify"][3]  # thm4-n2
    doc = {
        "command": "construct-thm4",
        "family": {
            "construction": {"k": "224", "orders": ["36957", "16170605"]},
            "flags": {"a": True, "b": True},
            "certificate": {"conclusion": 3},
        },
    }
    assert J.check_report(job, doc) == []
    doc["family"]["flags"]["b"] = False
    doc["family"]["construction"]["k"] = 224
    problems = J.check_report(job, doc)
    assert len(problems) == 2
    assert J.check_report(job, {"command": "verify"})
    assert J.check_report(job, [])


def test_two_seeds_give_identical_exact_fields_and_nodes(tmp_path):
    first = one_pass(tmp_path, 1, tracing.Tracer())
    second = one_pass(tmp_path, 2, tracing.Tracer())
    assert first.errors == {} and second.errors == {}
    jobs = {job.name: job for job in cheap_jobs()}
    for name in CHEAP:
        a, b = json.loads(first.reports[name]), json.loads(second.reports[name])
        assert all(J._lookup(a, path) == J._lookup(b, path) for path in jobs[name].expect), name
    assert first.nodes == second.nodes
    assert first.counts["homcount.nodes"] == second.counts["homcount.nodes"] > 0


def test_tracing_is_transparent_and_repeatable(tmp_path):
    job_list = cheap_jobs()
    bench = run.set_up(job_list, 7, tmp_path)
    order = J.pass_order(job_list, random.Random(7))
    homcount = sys.modules["genbound.homcount"]
    closure = homcount.closure
    tracer = tracing.Tracer()
    plain = [run.run_pass(bench, order), run.run_pass(bench, order)]
    traced = [run.run_pass(bench, order, tracer), run.run_pass(bench, order, tracer)]
    assert homcount.closure is closure and sys.modules["genbound.groups"].closure is closure
    assert tracer.missing == set()
    assert all(not p.errors for p in plain + traced)
    assert plain[0].reports == traced[0].reports
    assert run.trace_problems(plain, traced) == []
    assert traced[0].counts == traced[1].counts
    metrics = tracing.layer_metrics(traced[0].spans, traced[0].counts)
    assert set(metrics) == set(tracing.layer_metric_names())
    for counter in ("groups.mul.calls", "perm.compose.calls", "groups.closure.calls",
                    "homcount.kernels_equal.calls", "bounds.check.calls",
                    "numtheory.is_prime.calls", "linalg.mat_mul.calls"):
        assert metrics[counter] > 0, counter
    assert metrics["homcount.nodes"] == sum(traced[0].nodes.values())
    traced[1].counts["groups.mul.calls"] += 1
    assert run.trace_problems(plain, traced) == ["traced counters differ between passes"]


def test_tracer_skips_hooks_the_library_lacks(tmp_path):
    run.set_up(cheap_jobs()[:1], 1, tmp_path)
    homcount = sys.modules["genbound.homcount"]
    kernels_equal = homcount.kernels_equal
    del homcount.kernels_equal
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        homcount.kernels_equal = kernels_equal
    assert tracer.missing == {"homcount.kernels_equal"}


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        ("job", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("a", 6.0, 7.0, 3),  # recursive call inside the second "a"
        ("c", 6.5, 8.0, 3),  # overlaps its sibling: covered time is a union
        ("d", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs["job"] == 10.0 - 3.0 - 4.0 - 0.5
    assert selfs["a"] == (3.0 - 1.0) + (4.0 - 2.0) + 1.0
    assert selfs["b"] == 1.0 and selfs["c"] == 1.5 and selfs["d"] == 1.5
    totals = tracing.total_times(spans)
    assert totals["a"] == 7.0 and totals["job"] == 10.0


def test_derived_layer_metrics():
    spans = [
        ("homcount.count_homs", 0.0, 2.0, -1),
        ("groups.closure", 0.5, 1.0, 0),
        ("homcount.enumerate_homs", 3.0, 3.5, -1),
    ]
    counts = {
        "homcount.nodes": 300,
        "homcount.backtrack_homs": 60,
        "modules.candidates_tried": 4,
        "modules.found": 1,
    }
    metrics = tracing.layer_metrics(spans, counts)
    assert metrics["homcount.nodes_per_s"] == 300 / 2.0
    assert metrics["homcount.nodes_per_hom"] == 5.0
    assert metrics["modules.hit_ratio"] == 0.25
    assert metrics["groups.closure.self_s"] == 0.5
    assert metrics["groups.closure.calls"] == 1 and metrics["bounds.check.calls"] == 0


def test_fails_without_the_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-triangle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
