"""The benchmark checks the smallest job of every workload against its
closed-form oracle before it times anything; a change that breaks an
oracle fails here, before a benchmark run."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_workload_passes_its_preflight(monkeypatch, tmp_path):
    # workloads.py imports its families module by name, from bench/
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
        assert workloads.WORKLOADS
        workloads.preflight(str(tmp_path))
    finally:
        sys.modules.pop("families", None)
