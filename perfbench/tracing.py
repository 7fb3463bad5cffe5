"""Out-of-library tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the `genbound` modules
from outside: a function is rebound under every name any `genbound.*`
module holds it by (`from .groups import closure` binds `closure` again in
`homcount` and `subgroups`), and methods are replaced on their classes.
Coarse calls record a span (name, start, end, parent); hot leaf calls
(`mul`, `compose`, `mat_mul`, ...) only bump an aggregate counter, so
memory stays bounded. Everything stays in memory until the run ends.
Wrappers never change arguments or results, so a traced pass writes the
same reports as an untraced one.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import prod
from time import perf_counter

# (function or method, span name) for coarse calls
SPANS = [
    ("cli.main", "cli.main"),
    ("io.parse_group_file", "io.parse"),
    ("io.dump_document", "io.dump"),
    ("presentations.presentation_from_words", "presentations.parse"),
    ("groups.closure", "groups.closure"),
    ("groups.FiniteGroup.conjugacy_classes", "groups.conjugacy_classes"),
    ("homcount.count_homs", "homcount.count_homs"),
    ("homcount.enumerate_homs", "homcount.enumerate_homs"),
    ("homcount.enumerate_homs_group", "homcount.enumerate_homs_group"),
    ("homcount.witness_quotient", "homcount.witness_quotient"),
    ("subgroups.d_min_generators", "subgroups.d_min"),
    ("subgroups.derived_subgroup", "subgroups.derived"),
    ("subgroups.quotient_group", "subgroups.quotient"),
    ("subgroups.sylow_subgroup", "subgroups.sylow"),
    ("subgroups.largest_normal_p_subgroup", "subgroups.normal_core"),
    ("subgroups.centralizer_order_transitive", "subgroups.centralizer"),
    ("modules.find_simple_module", "modules.find_simple_module"),
    ("numtheory.common_subset_sum", "numtheory.subset_sum"),
    ("numtheory.primes_in_progression", "numtheory.progression"),
    ("numtheory.dirichlet_prime", "numtheory.progression"),
    ("constructions.coprime_family", "constructions.coprime_family"),
    ("constructions.metabelian_target", "constructions.metabelian"),
    ("constructions.semidirect_target", "constructions.semidirect"),
    ("constructions.abelianization_split", "constructions.split"),
    ("bounds.lower_bound_explicit", "bounds.certify"),
    ("bounds.certify_exact_counts", "bounds.certify"),
    ("bounds.certify_formula", "bounds.certify"),
    ("bounds.certify_embeddings", "bounds.certify"),
    ("bounds.check_certificate", "bounds.check"),
    ("bounds.certificate_to_doc", "bounds.to_doc"),
    ("bounds.certificate_from_doc", "bounds.from_doc"),
]

# (function, counter name) for hot or leaf calls
COUNTERS = [
    ("perm.compose", "perm.compose.calls"),
    ("linalg.mat_mul", "linalg.mat_mul.calls"),
    ("linalg.spin_dimension", "linalg.spin_dimension.calls"),
    ("homcount.kernels_equal", "homcount.kernels_equal.calls"),
    ("modules.is_irreducible", "modules.is_irreducible.calls"),
    ("numtheory.is_prime", "numtheory.is_prime.calls"),
]

# per-layer metrics: inclusive time (`<span>_s`), self time
# (`<span>.self_s`) and call count (`<span>.calls`) of spans, and counters
TOTAL_TIMED = ["io.parse", "io.dump", "presentations.parse"]
SELF_TIMED = [
    "groups.closure",
    "groups.enumerate",
    "groups.conjugacy_classes",
    "homcount.count_homs",
    "homcount.enumerate_homs",
    "homcount.enumerate_homs_group",
    "homcount.witness_quotient",
    "subgroups.d_min",
    "subgroups.derived",
    "subgroups.quotient",
    "subgroups.sylow",
    "subgroups.normal_core",
    "subgroups.centralizer",
    "modules.find_simple_module",
    "numtheory.subset_sum",
    "numtheory.progression",
    "constructions.coprime_family",
    "constructions.metabelian",
    "constructions.semidirect",
    "constructions.split",
    "bounds.certify",
    "bounds.check",
    "bounds.to_doc",
    "bounds.from_doc",
]
COUNTED_SPANS = ["groups.closure", "bounds.check"]
COUNTS = [
    "io.report_bytes",
    "presentations.syllables",
    "groups.closure.elements",
    "groups.mul.calls",
    "perm.compose.calls",
    "linalg.mat_mul.calls",
    "linalg.spin_dimension.calls",
    "homcount.kernels_equal.calls",
    "homcount.homs_found",
    "homcount.nodes",
    "subgroups.d_min.closures",
    "modules.gl_order_enumerated",
    "modules.candidates_tried",
    "modules.is_irreducible.calls",
    "numtheory.is_prime.calls",
    "bounds.cert_bytes",
]
# derived from the ones above: nodes_per_s, nodes_per_hom, hit_ratio


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_hom"):
        return "nodes/hom"
    return "ratio" if name.endswith("_ratio") else "count"


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed span time not covered by child spans.

    `spans` is a sequence of (name, start, end, parent index or -1). The
    covered part of a span is the union of its direct children's intervals
    clipped to the span, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def total_times(spans) -> dict[str, float]:
    """Per span name, the summed time of spans not nested in a span of the
    same name (a recursive call is counted once, by its outermost span)."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric for one traced pass."""
    selfs = self_times(spans)
    totals = total_times(spans)
    out: dict[str, float] = {}
    for name in TOTAL_TIMED:
        out[f"{name}_s"] = totals.get(name, 0.0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    calls = Counter(span[0] for span in spans)
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = calls[name]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    search_s = out["homcount.count_homs.self_s"] + out["homcount.enumerate_homs.self_s"]
    nodes = out["homcount.nodes"]
    backtrack_homs = counts.get("homcount.backtrack_homs", 0)
    out["homcount.nodes_per_s"] = nodes / search_s if search_s > 0 else 0.0
    out["homcount.nodes_per_hom"] = nodes / backtrack_homs if backtrack_homs else 0.0
    tried = out["modules.candidates_tried"]
    found = counts.get("modules.found", 0)
    out["modules.hit_ratio"] = found / tried if tried else 0.0
    return out


def layer_metric_names() -> list[str]:
    return sorted(layer_metrics([], {}))


# -- the tracer ---------------------------------------------------------------


def _closure_size(tracer, result):
    tracer.counts["groups.closure.elements"] += len(result)
    if tracer.active["subgroups.d_min"]:
        tracer.counts["subgroups.d_min.closures"] += 1


def _syllables(tracer, result):
    tracer.counts["presentations.syllables"] += sum(len(w) for w in result.relators)


def _report_bytes(tracer, result):
    tracer.counts["io.report_bytes"] += len(result.encode())


def _cert_bytes(tracer, result):
    tracer.counts["bounds.cert_bytes"] += len(json.dumps(result, indent=2, sort_keys=True))


def _homs(tracer, result):
    tracer.counts["homcount.homs_found"] += len(result)


def _module_found(tracer, result):
    tracer.counts["modules.found"] += result.found is not None


# counters read off the result of a span's call, by span name
AFTER = {
    "groups.closure": _closure_size,
    "presentations.parse": _syllables,
    "io.dump": _report_bytes,
    "bounds.to_doc": _cert_bytes,
    "homcount.enumerate_homs_group": _homs,
    "modules.find_simple_module": _module_found,
}


class Tracer:
    """Installs wrappers on the loaded `genbound` modules and records what
    they see. `install` and `uninstall` bracket one traced pass; spans and
    counters of a pass are read with `take`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _span(self, name, fn):
        spans, stack, active = self.spans, self.stack, self.active
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        """Replace `original` under every name any of `modules` binds it to."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _install(self, modules, by_name, path: str, make):
        """Replace the function or method at `path` by make(original). A
        function is rebound under every name any `genbound` module holds it
        by. A path the library no longer has is recorded in `missing`, and
        its metrics read 0."""
        mod_name, *attrs = path.split(".")
        owner = by_name.get(mod_name)
        for attr in attrs[:-1]:
            owner = vars(owner).get(attr) if owner is not None else None
        original = vars(owner).get(attrs[-1]) if owner is not None else None
        if original is None:
            self.missing.add(path)
        elif isinstance(owner, type):
            self._set(owner, attrs[-1], make(original))
        else:
            self._rebind(modules, original, make(original))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "genbound" or n.startswith("genbound.")
        ]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for path, name in SPANS:
            self._install(modules, by_name, path, lambda f, name=name: self._span(name, f))
        for path, name in COUNTERS:
            self._install(modules, by_name, path, lambda f, name=name: self._count(name, f))
        classes = {
            id(c): c
            for m in modules
            for c in vars(m).values()
            if isinstance(c, type) and c.__module__.startswith("genbound")
        }
        for cls in classes.values():
            if "mul" in vars(cls):
                self._set(cls, "mul", self._count("groups.mul.calls", vars(cls)["mul"]))
        self._install(modules, by_name, "groups.FiniteGroup.elements", self._first_access)
        self._install(modules, by_name, "homcount._BacktrackSearch.run", self._search_run)
        self._install(modules, by_name, "modules.ModuleAction.__post_init__", self._candidate)
        self._install(modules, by_name, "modules.general_linear_group", self._gl_group)

    def _first_access(self, elements):
        """A span around the enumeration behind the first `elements` access."""
        enumerate_span = self._span("groups.enumerate", elements.fget)

        def getter(group):
            if group._elements is None:
                return enumerate_span(group)
            return elements.fget(group)

        return property(getter)

    def _search_run(self, run):
        counts = self.counts

        def counted(search, collect):
            found = run(search, collect)
            counts["homcount.nodes"] += search.nodes
            counts["homcount.homs_found"] += found
            counts["homcount.backtrack_homs"] += found
            return found

        return counted

    def _candidate(self, post_init):
        counts, active = self.counts, self.active

        def counted(action):
            if active["modules.find_simple_module"]:
                counts["modules.candidates_tried"] += 1
            return post_init(action)

        return counted

    def _gl_group(self, gl_group):
        counts = self.counts

        def counted(p, dim, *args, **kwargs):
            counts["modules.gl_order_enumerated"] += prod(p**dim - p**i for i in range(dim))
            return gl_group(p, dim, *args, **kwargs)

        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """Spans and counters recorded since the last call; resets both."""
        spans = [tuple(s) for s in self.spans]
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts
