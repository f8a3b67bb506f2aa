"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the eqtwist modules
from outside, records one span per call (name, start, end, parent span,
job id) in flat arrays, and turns the spans into per-layer self times
and exact counts when the run ends.  Nothing in the package changes:
module-level functions are replaced in every module that imported
them (call sites do `from .intmat import smith_normal_form`), methods
on their class.

A span's self time is its duration minus the durations of its direct
children, and minus the time the tracer spent measuring counts of its
children (bit lengths of SNF results, say); spans nest strictly
because the benchmark is one thread.
"""

from __future__ import annotations

import array
import collections
import functools
import json
import sys
import time

# (module, qualified name) of every wrapped callable; a span is named
# "<module>.<qualname>" and belongs to the module's layer
TARGETS = [
    ("intmat", "smith_normal_form"),
    ("intmat", "solve"),
    ("intmat", "kernel_basis"),
    ("intmat", "IntMatrix.__matmul__"),
    ("abgroups", "FgAbGroup.__init__"),
    ("abgroups", "AbHom.__init__"),
    ("abgroups", "AbHom.equal_as_maps"),
    ("abgroups", "AbHom.kernel"),
    ("abgroups", "cohomology_at"),
    ("abgroups", "CochainComplex.__init__"),
    ("bredon", "EquivariantCochains.__init__"),
    ("bredon", "coboundary"),
    ("bredon", "twisted_coboundary"),
    ("cartan", "canonical_theory"),
    ("cartan", "check_axioms"),
    ("cartan", "LiftSystem.__init__"),
    ("cartan", "crosscheck_theorem"),
    ("em", "delta_hom"),
    ("em", "CocycleModel.__init__"),
    ("groups", "FiniteGroup.__init__"),
    ("groups", "all_subgroups"),
    ("groups", "OrbitCategory.__init__"),
    ("simplicial", "FiniteSimplicialSet.validate"),
    ("simplicial", "SimplicialMap.validate"),
    ("simplicial", "PairedComplex.__init__"),
    ("equivariant", "GSimplicialSet.validate"),
    ("equivariant", "OGComplex.validate"),
    ("equivariant", "GSimplicialSet.orbits"),
    ("equivariant", "fixed_point_system"),
    ("coefficients", "CoefficientSystem.validate"),
    ("coefficients", "LocalSystem.validate"),
    ("twisting", "GroupTwist.validate"),
    ("twisting", "GroupTwist.check_equivariant"),
    ("twisting", "classifying_map"),
    ("edgepaths", "PathChoice.validate"),
    ("edgepaths", "EdgeActionSystem.validate"),
    ("classifying", "classifying_complex"),
    ("fixtures", "load_setup"),
    ("fixtures", "load_json"),
    ("cli", "main"),
]

MODULES = sorted({m for m, _ in TARGETS})

JOB_SPAN = "untraced.job"
SETUP_SPAN = "bench.setup"
EMIT_SPAN = "cli.emit"

# per-layer metric -> the spans whose self time it sums
SELF_TIME_METRICS = {
    "intmat.snf_s": ["intmat.smith_normal_form"],
    "intmat.solve_s": ["intmat.solve"],
    "intmat.kernel_basis_s": ["intmat.kernel_basis"],
    "intmat.matmul_s": ["intmat.IntMatrix.__matmul__"],
    "abgroups.group_init_s": ["abgroups.FgAbGroup.__init__"],
    "abgroups.hom_check_s": ["abgroups.AbHom.__init__"],
    "abgroups.equal_as_maps_s": ["abgroups.AbHom.equal_as_maps"],
    "abgroups.kernel_s": ["abgroups.AbHom.kernel"],
    "abgroups.cohomology_at_s": ["abgroups.cohomology_at"],
    "abgroups.complex_check_s": ["abgroups.CochainComplex.__init__"],
    "bredon.cochains_s": ["bredon.EquivariantCochains.__init__"],
    "bredon.coboundary_s": ["bredon.coboundary", "bredon.twisted_coboundary"],
    "cartan.theory_s": ["cartan.canonical_theory"],
    "cartan.axioms_s": ["cartan.check_axioms"],
    "cartan.lift_s": ["cartan.LiftSystem.__init__"],
    "cartan.crosscheck_s": ["cartan.crosscheck_theorem"],
    "em.delta_hom_s": ["em.delta_hom"],
    "em.cocycle_model_s": ["em.CocycleModel.__init__"],
    "groups.finite_group_s": ["groups.FiniteGroup.__init__"],
    "groups.subgroups_s": ["groups.all_subgroups"],
    "groups.orbit_category_s": ["groups.OrbitCategory.__init__"],
    "simplicial.validate_s": ["simplicial.FiniteSimplicialSet.validate",
                              "simplicial.SimplicialMap.validate"],
    "simplicial.product_s": ["simplicial.PairedComplex.__init__"],
    "equivariant.validate_s": ["equivariant.GSimplicialSet.validate",
                               "equivariant.OGComplex.validate"],
    "equivariant.orbits_s": ["equivariant.GSimplicialSet.orbits"],
    "equivariant.fixed_points_s": ["equivariant.fixed_point_system"],
    "coefficients.validate_s": ["coefficients.CoefficientSystem.validate",
                                "coefficients.LocalSystem.validate"],
    "twisting.validate_s": ["twisting.GroupTwist.validate",
                            "twisting.GroupTwist.check_equivariant"],
    "twisting.classifying_map_s": ["twisting.classifying_map"],
    "edgepaths.validate_s": ["edgepaths.PathChoice.validate",
                             "edgepaths.EdgeActionSystem.validate"],
    "cli.load_s": ["fixtures.load_setup", "fixtures.load_json"],
    "cli.emit_s": [EMIT_SPAN],
}

# per-layer metric -> the span whose call count it is
CALL_COUNT_METRICS = {
    "intmat.snf_calls": "intmat.smith_normal_form",
    "intmat.solve_calls": "intmat.solve",
    "intmat.kernel_basis_calls": "intmat.kernel_basis",
    "intmat.matmul_calls": "intmat.IntMatrix.__matmul__",
    "abgroups.group_inits": "abgroups.FgAbGroup.__init__",
    "abgroups.hom_checks": "abgroups.AbHom.__init__",
    "abgroups.equal_as_maps_calls": "abgroups.AbHom.equal_as_maps",
}

# counters the wrappers keep beside the spans
COUNTER_METRICS = ["intmat.snf_cells", "intmat.snf_cells_max",
                   "intmat.entry_bits_max", "abgroups.group_init_snf_calls",
                   "bredon.columns"]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in print order."""
    names = list(CALL_COUNT_METRICS) + list(SELF_TIME_METRICS)
    names += COUNTER_METRICS + ["abgroups.snf_per_group"]
    names += [f"{m}.self_s" for m in MODULES] + ["untraced.self_s"]
    names += ["trace.overhead_frac", "trace.jobs_per_s",
              "trace.untraced_jobs_per_s", "trace.spans"]
    return names


class Tracer:
    """Spans in flat arrays plus a few exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.job = array.array("l")
        # tracer time inside each span spent on its children's counters
        self.hidden = array.array("d")
        self.job_id = -1
        self._stack: list[int] = []
        self.open = collections.Counter()
        self.counters = collections.Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.hidden.append(0.0)
        self._stack.append(idx)
        self.open[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.open[self.names[self.name_id[idx]]] -= 1

    def jobs(self, run):
        """run(pool, job) with each call in its own job span and id."""

        def spanned(pool, job):
            self.job_id += 1
            idx = self.begin(JOB_SPAN)
            try:
                return run(pool, job)
            finally:
                self.finish(idx)

        return spanned

    def span_table(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = collections.Counter()
        self_s = collections.Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i] - child[i]
                             - self.hidden[i])
        return {k: (calls[k], self_s[k]) for k in calls}

    def write(self, path: str) -> None:
        """Spans as one JSON header line and one tab-separated line each:
        name, start, end, parent index, job id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end",
                                             "parent", "job"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.job[i]}\n")


# after-call hooks: exact counts measured outside the span ------------

def _bits(m) -> int:
    return max((abs(x).bit_length() for r in m.rows for x in r), default=0)


def _after_snf(tr: Tracer, args, kwargs, result) -> None:
    a = args[0]
    cells = a.nrows * a.ncols
    c = tr.counters
    c["intmat.snf_cells"] += cells
    c["intmat.snf_cells_max"] = max(c["intmat.snf_cells_max"], cells)
    c["intmat.entry_bits_max"] = max(c["intmat.entry_bits_max"],
                                     _bits(result[1]), _bits(result[2]))
    if tr.open["abgroups.FgAbGroup.__init__"]:
        c["abgroups.group_init_snf_calls"] += 1


def _after_cochains(tr: Tracer, args, kwargs, result) -> None:
    ec = args[0]
    tr.counters["bredon.columns"] += sum(ec.groups[n].ngens
                                         for n in range(ec.nmax + 1))


def _hom_check_runs(args, kwargs) -> bool:
    # AbHom(source, target, matrix, check=True) checks relations only
    # when asked and when the source has any
    check = args[4] if len(args) > 4 else kwargs.get("check", True)
    return bool(check) and args[1].rels.ncols > 0


AFTER = {"intmat.smith_normal_form": _after_snf,
         "bredon.EquivariantCochains.__init__": _after_cochains}
GATE = {"abgroups.AbHom.__init__": _hom_check_runs}


def _wrap(tr: Tracer, fn, name: str):
    after = AFTER.get(name)
    gate = GATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if gate is not None and not gate(args, kwargs):
            return fn(*args, **kwargs)
        idx = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.finish(idx)
        if after is not None:
            t = time.perf_counter()
            after(tr, args, kwargs, result)
            if tr._stack:
                tr.hidden[tr._stack[-1]] += time.perf_counter() - t
        return result

    return traced


class _JsonProxy:
    """Stands in for the json module inside eqtwist.cli so that the
    dump of the payload to stdout gets its own span."""

    def __init__(self, tr: Tracer, real):
        self._real = real
        self.dumps = _wrap(tr, real.dumps, EMIT_SPAN)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Instrumentation:
    """Installs wrappers for every target and removes them again."""

    def __init__(self, tr: Tracer, extra_modules=()):
        self.tr = tr
        self.extra_modules = list(extra_modules)
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        importers = [m for k, m in sorted(sys.modules.items())
                     if k == "eqtwist" or k.startswith("eqtwist.")]
        importers += self.extra_modules
        for mod, qual in TARGETS:
            owner = sys.modules[f"eqtwist.{mod}"]
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, _wrap(self.tr, cls.__dict__[meth], name))
                continue
            original = getattr(owner, qual)
            traced = _wrap(self.tr, original, name)
            for m in importers:
                if getattr(m, qual, None) is original:
                    self._set(m, qual, traced)
        cli = sys.modules["eqtwist.cli"]
        self._set(cli, "json", _JsonProxy(self.tr, cli.json))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics over every span recorded, set-up included."""
    table = tr.span_table()

    def self_time(names):
        return sum((table.get(n, (0, 0.0))[1] for n in names), 0.0)

    out: dict[str, float] = {}
    for metric, span in CALL_COUNT_METRICS.items():
        out[metric] = table.get(span, (0, 0.0))[0]
    for metric, spans in SELF_TIME_METRICS.items():
        out[metric] = self_time(spans)
    for metric in COUNTER_METRICS:
        out[metric] = tr.counters[metric]
    inits = out["abgroups.group_inits"]
    out["abgroups.snf_per_group"] = (
        tr.counters["abgroups.group_init_snf_calls"] / inits if inits else 0.0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_time(
            [n for n in table if n.split(".")[0] == mod])
    out["untraced.self_s"] = self_time([JOB_SPAN])
    out["trace.spans"] = len(tr.start)
    return out
