"""The benchmark checks the smallest job of every workload against its
closed-form oracle before it times anything; a change that breaks an
oracle fails here, before a benchmark run.  Run under the benchmark's
tracer, that preflight must call every function a per-layer self-time
metric sums and reach every traced module: a metric that reads 0 on
working code would show nothing."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its families module by name, from bench/
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield bench_module("workloads")
    finally:
        sys.modules.pop("families", None)


def test_every_workload_passes_its_preflight(workloads, tmp_path):
    assert workloads.WORKLOADS
    workloads.preflight(str(tmp_path))


def test_the_traced_preflight_reaches_every_layer(workloads, tmp_path):
    tracer = bench_module("tracer")
    tr = tracer.Tracer()
    inst = tracer.Instrumentation(tr, [workloads, sys.modules["families"]])
    inst.install()
    try:
        workloads.preflight(str(tmp_path))
    finally:
        inst.uninstall()
    called = tr.span_table()
    # the dump of a payload gets its span from the timed jobs alone
    unreached = [metric for metric, spans in tracer.SELF_TIME_METRICS.items()
                 if metric != "cli.emit_s" and
                 not any(span in called for span in spans)]
    assert unreached == []
    layers = {span.split(".")[0] for span in called}
    assert [m for m in tracer.MODULES if m not in layers] == []
