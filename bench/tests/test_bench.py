"""The benchmark's own checks: generators, oracles, metric names, seeds.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import families as fam
import run
import tracer
import workloads
from eqtwist.equivariant import GSimplicialSet, fixed_point_system
from eqtwist.groups import OrbitCategory

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# generators ---------------------------------------------------------

def generated():
    for n in (3, 4, 6):
        yield fam.ngon(n, 2)
        yield fam.rotation_ngon(n, 2)
        yield fam.dn_polygon(n, 2)
    yield fam.s3_polygon(2)
    for kind in ("ngon", "rotation_ngon", "dn_polygon"):
        left = getattr(fam, kind)(3)
        yield fam.product_with_action(left, fam.ngon_space(4), 3)


@pytest.mark.parametrize("gx", list(generated()))
def test_generators_pass_the_library_validators(gx):
    gx.space.validate()
    gx.validate()
    again = GSimplicialSet.from_json(json.loads(json.dumps(gx.to_json())))
    assert again.perms == gx.perms
    fixed_point_system(gx, OrbitCategory(gx.group))


def test_dihedral_action_swaps_the_two_edge_families():
    gx = fam.dn_polygon(4)
    for name, perm in gx.perms.items():
        mirror = name.startswith("m")
        for i in range(4):
            assert perm[f"p{i}"][0] == ("q" if mirror else "p")
            assert perm[f"q{i}"][0] == ("p" if mirror else "q")


@pytest.mark.parametrize("coeff", workloads.ALL)
def test_sign_twisted_ngon_passes_the_library_validators(coeff):
    gx, cat, system, provider = fam.sign_twisted_ngon(5, coeff, 3)
    system.validate()
    provider.local.validate()
    provider.twist.validate()
    provider.twist.check_equivariant(gx)


# oracles ------------------------------------------------------------

def test_oracles_hold_at_the_smallest_size_of_every_family(tmp_path):
    workloads.preflight(str(tmp_path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_dealt_round_passes_its_oracles(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    if name == "bredon-torus":
        pool = wl.build(str(tmp_path), smallest=True)
        jobs = [(kind, 3, 3, c) for kind in ("torus", "cn", "dn")
                for c in workloads.ALL]
    elif name == "cartan-checks":
        pool = wl.build(str(tmp_path))
        jobs = [("crosscheck", n, c) for n in (3, 4) for c in workloads.ALL]
        jobs += [("axioms", g, "Z4", 2, 2) for g in wl.groups]
    else:
        pool = wl.build(str(tmp_path))
        jobs = [j for j in wl.deal(random.Random(7))
                if j[:2] != ("cartan-check", "s3")]
    for job in jobs:
        assert wl.run(pool, job), job


def test_a_wrong_answer_is_caught(tmp_path):
    wl = workloads.WORKLOADS["cli-mix"]
    pool = wl.build(str(tmp_path), smallest=True)
    job = ("bredon", "cn", 3, "Z")
    assert wl.run(pool, job)
    # the determinism check holds the first stdout of every job
    pool["stdout"][job] = pool["stdout"][job].replace("1", "2")
    assert not wl.run(pool, job)


# seeds --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_same_seed_deals_the_same_jobs(name):
    wl = workloads.WORKLOADS[name]

    def jobs(seed):
        rng = random.Random(seed)
        return [wl.deal(rng) for _ in range(4)]

    assert jobs(11) == jobs(11)
    assert jobs(11) != jobs(12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_size(name):
    wl = workloads.WORKLOADS[name]
    rng = random.Random(3)
    assert len({len(wl.deal(rng)) for _ in range(20)}) == 1


# metric names -------------------------------------------------------

def test_traced_metric_names_equal_the_benchmark_file():
    names = [m["name"] for m in bench_spec()["per_layer"]]
    assert tracer.metric_names() == names


def test_untraced_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed",
         "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    res = last_json_line(out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = bench_spec()["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']}: " in out


def test_traced_runs_with_one_seed_count_the_same(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["cli-mix"]
    monkeypatch.setattr(wl, "trace_rounds", 1)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    spec = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    counts = []
    for _ in range(2):
        attempted, failures, metrics, _ = run.traced_run(
            wl, 5, str(tmp_path / "inputs"))
        assert not failures
        assert list(metrics) == list(spec)
        assert {k: u for k, (_, u) in metrics.items()} == spec
        assert all(v > 0 for k, (v, u) in metrics.items() if u == "s")
        counts.append({k: v for k, (v, u) in metrics.items()
                       if u in ("count", "bits")})
    assert counts[0] == counts[1]


def test_spans_nest_and_uninstall_restores_the_package(tmp_path):
    tr = tracer.Tracer()
    inst = tracer.Instrumentation(tr, [workloads, fam])
    inst.install()
    try:
        wl = workloads.WORKLOADS["cartan-checks"]
        pool = wl.build(str(tmp_path), smallest=True)
        assert wl.run(pool, ("axioms", "1", "Z", 2, 2))
    finally:
        inst.uninstall()
    table = tr.span_table()
    assert table["cartan.check_axioms"][0] == 1
    assert table["intmat.smith_normal_form"][0] > 0
    for i in range(len(tr.start)):
        assert tr.end[i] >= tr.start[i]
        p = tr.parent[i]
        if p >= 0:
            assert tr.start[p] <= tr.start[i] and tr.end[i] <= tr.end[p]
    # uninstall puts every original back
    from eqtwist import abgroups, intmat
    assert abgroups.solve is intmat.solve
    assert not hasattr(intmat.solve, "__wrapped__")


def test_the_benchmark_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode != 0
    assert "correct" not in res.stdout
