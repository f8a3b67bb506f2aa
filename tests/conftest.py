"""Suite-wide settings: one deterministic hypothesis profile, and one
spy on the eliminations abgroups runs."""

import pytest
from hypothesis import settings

from eqtwist import abgroups, intmat

settings.register_profile("pinned", derandomize=True, max_examples=60)
settings.load_profile("pinned")


@pytest.fixture
def eliminations(monkeypatch):
    """Record the shape of every Smith normal form and every
    `kernel_basis` elimination abgroups runs, directly or through the
    solvers of intmat, under "snf" and "kernel_basis"."""
    calls = {"snf": [], "kernel_basis": []}

    def spy(name, real):
        def counting(a):
            calls[name].append((a.nrows, a.ncols))
            return real(a)
        return counting

    snf = spy("snf", intmat.smith_normal_form)
    kernel = spy("kernel_basis", intmat.kernel_basis)
    monkeypatch.setattr(abgroups, "smith_normal_form", snf)
    monkeypatch.setattr(intmat, "smith_normal_form", snf)
    monkeypatch.setattr(abgroups, "kernel_basis", kernel)
    monkeypatch.setattr(intmat, "kernel_basis", kernel)
    return calls


@pytest.fixture
def snf_calls(eliminations):
    """The Smith normal forms alone, as a list of shapes."""
    return eliminations["snf"]
