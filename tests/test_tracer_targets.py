"""The benchmark's span tracer wraps eqtwist callables by name; every
name it lists must still resolve, or its traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod, qual in tracer.TARGETS:
        owner = importlib.import_module(f"eqtwist.{mod}")
        if "." in qual:
            # methods are wrapped from the class's own namespace
            cls_name, meth = qual.split(".")
            assert meth in vars(getattr(owner, cls_name)), (mod, qual)
        else:
            assert callable(getattr(owner, qual, None)), (mod, qual)
