"""The benchmark's workloads: seeded job decks, inputs and oracles.

A workload builds its inputs once (`build`, seed independent: every
input of the fixed ranges), then deals rounds of jobs from a seeded
random generator (`deal`).  A round holds one job of every cost class
of the workload, so the mix of a run does not depend on the seed; the
seed picks sizes, coefficients and variants inside each class and the
order of the round.  `run` executes one job and checks its result
against a closed-form answer; it returns False on a mismatch.

Oracles (M is the coefficient group, M[2] its 2-torsion):
  torus a x b, or C_n rotating the left factor    M, M^2, M
  D_n or S_3 on the left 2n-gon (interval x circle) M, M, 0
  sign-twisted n-gon                              M[2], M/2M, 0
  canonical theory axioms                         all hold
  K(Z/m, n) levels up to q                        m^C(q', n), q' = 0..q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import families as fam
from eqtwist import cli
from eqtwist.bredon import EquivariantCochains, untwisted_complex
from eqtwist.cartan import canonical_theory, check_axioms, crosscheck_theorem
from eqtwist.fixtures import fixture_path
from eqtwist.groups import FiniteGroup, OrbitCategory, all_subgroups

ALL = ["Z", "Z2", "Z4"]
TORSION = ["Z2", "Z4"]


def describe(nf: tuple[int, tuple[int, ...]]) -> str:
    """A normal form written the way FgAbGroup.describe writes it."""
    rank, torsion = nf
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"C{m}" for m in torsion)
    return " x ".join(parts) if parts else "0"


def torus_oracle(kind: str, coeff: str) -> list:
    if kind == "dn":
        return [fam.power(coeff, 1), fam.power(coeff, 1), fam.power(coeff, 0)]
    return [fam.power(coeff, 1), fam.power(coeff, 2), fam.power(coeff, 1)]


def sign_oracle(coeff: str) -> list:
    # M[2], then M/2M, which is Z/2 for every coefficient group used here
    return [fam.two_torsion(coeff), (0, (2,))]


class BredonTorus:
    """Untwisted Bredon H^0..H^2 of products of polygons."""

    name = "bredon-torus"
    sizes = (3, 4, 5)
    # one job per class and round; a class holds variants of similar
    # cost, in seconds at the baseline.  Two cheap equivariant jobs, two
    # mid and two heavy tori put the median in the middle of the mid
    # block and, once a run holds ten heavy jobs, the tail inside the
    # heavy block; short rounds keep a run close to its time limit.  The
    # 5 x 5 torus (3.5 s with Z, 7.5 s with torsion) is left out so that
    # a run holds enough heavy jobs for a stable tail.
    classes = [
        ("torus", [(3, 4), (4, 3)], TORSION),       # 0.62
        ("torus", [(4, 4)], ["Z"]),                 # 0.62
        ("torus", [(3, 5), (5, 3)], TORSION),       # 1.3-1.5
        ("torus", [(4, 4)], TORSION),               # 1.3-1.4
    ]
    # the equivariant minority, 0.01-0.08 s each: C_n rotating or D_n
    # reflecting the left factor
    equivariant = [["cn"], ["dn"]]
    trace_rounds = 1

    def build(self, workdir: str, smallest: bool = False) -> dict:
        sizes = self.sizes[:1] if smallest else self.sizes
        pool = {}
        for a in sizes:
            lefts = {"torus": fam.ngon(a), "cn": fam.rotation_ngon(a),
                     "dn": fam.dn_polygon(a)}
            for kind, left in lefts.items():
                # the product keeps the left factor's group, and with it
                # the orbit category and the coefficient systems
                cat = OrbitCategory(left.group)
                systems = {c: fam.constant_system(cat, c) for c in ALL}
                for b in sizes:
                    gx = fam.product_with_action(left, fam.ngon_space(b), 3)
                    pool[(kind, a, b)] = (gx, cat, systems)
        return pool

    def smallest(self) -> list:
        return [(kind, 3, 3, "Z") for kind in ("torus", "cn", "dn")]

    def deal(self, rng) -> list:
        jobs = []
        for kind, sizes, coeffs in self.classes:
            a, b = rng.choice(sizes)
            jobs.append((kind, a, b, rng.choice(coeffs)))
        for kinds in self.equivariant:
            jobs.append((rng.choice(kinds), rng.choice(self.sizes),
                         rng.choice(self.sizes), rng.choice(ALL)))
        rng.shuffle(jobs)
        return jobs

    def run(self, pool, job) -> bool:
        kind, a, b, coeff = job
        gx, cat, systems = pool[(kind, a, b)]
        ec = EquivariantCochains(gx, cat, systems[coeff], 3)
        cc = untwisted_complex(ec)
        got = [cc.cohomology(n).group.normal_form() for n in range(3)]
        return got == torus_oracle(kind, coeff)


class CartanChecks:
    """Axiom checks of canonical theories and the comparison theorem."""

    name = "cartan-checks"
    groups = ("1", "C2", "C3", "S3")
    # (groups, level bounds p, coefficients), one job per class and
    # round, with i drawn from 2..4; costs in seconds at the baseline.
    # Four light jobs sit below the seven of 0.12-0.37 s that hold the
    # median; the two heavy classes and the crosschecks at n = 9, 10 hold
    # the tail.  S_3 stops at p = 3 and C_n at p = 4 uses Z only: one S_3
    # check at p = 4 takes about 6 s, which would leave too few jobs in
    # a run for a stable tail.
    axiom_classes = [
        (["1"], [4], ALL),                  # 0.21-0.3
        (["1"], [4], ALL),
        (["1"], [4], ALL),
        (["S3"], [2], ALL),                 # 0.29-0.31
        (["S3"], [2], ALL),
        (["C2", "C3"], [3], ALL),           # 0.12-0.23
        (["C2", "C3"], [3], ALL),
        (["C2", "C3"], [2], ALL),           # 0.04-0.06
        (["1"], [2, 3], ALL),               # 0.02-0.09
        (["C2", "C3"], [4], ["Z"]),         # 0.55
        (["S3"], [3], ["Z", "Z2"]),         # 0.9-0.95
    ]
    crosscheck_classes = [(range(3, 6), ALL),       # 0.01-0.05
                          (range(6, 9), ALL),       # 0.03-0.13
                          (range(9, 11), TORSION)]  # 0.3-0.37
    nmax = 2
    trace_rounds = 2

    def build(self, workdir: str, smallest: bool = False) -> dict:
        pool = {}
        for gname in self.groups[:1] if smallest else self.groups:
            if gname == "1":
                group = FiniteGroup.trivial()
            elif gname == "S3":
                group = FiniteGroup.symmetric3()
            else:
                group = FiniteGroup.cyclic(int(gname[1:]))
            cat = OrbitCategory(group)
            for c in ALL:
                pool[("axioms", gname, c)] = (cat, fam.constant_system(cat, c))
        for n in range(3, 4 if smallest else 11):
            for c in ALL:
                pool[("crosscheck", n, c)] = fam.sign_twisted_ngon(
                    n, c, self.nmax + 1)
        return pool

    def smallest(self) -> list:
        return [("axioms", "1", "Z", 2, 2), ("crosscheck", 3, "Z")]

    def deal(self, rng) -> list:
        jobs = []
        for gnames, ps, coeffs in self.axiom_classes:
            jobs.append(("axioms", rng.choice(gnames), rng.choice(coeffs),
                         rng.choice((2, 3, 4)), rng.choice(ps)))
        for ns, coeffs in self.crosscheck_classes:
            jobs.append(("crosscheck", rng.choice(ns), rng.choice(coeffs)))
        rng.shuffle(jobs)
        return jobs

    def run(self, pool, job) -> bool:
        if job[0] == "axioms":
            _, gname, coeff, i, p = job
            cat, system = pool[("axioms", gname, coeff)]
            return check_axioms(canonical_theory(cat, system, i, p)).all_ok
        _, n, coeff = job
        gx, cat, system, provider = pool[("crosscheck", n, coeff)]
        rep = crosscheck_theorem(gx, cat, system, provider, self.nmax)
        want = [describe(nf) for nf in sign_oracle(coeff)] + ["0"]
        return (rep["all_match"] and rep["iso"] is True
                and rep["commutes"] is True
                and [e["bredon"] for e in rep["degrees"]] == want
                and [e["lift"] for e in rep["degrees"]] == want)


# the command line mix ----------------------------------------------

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def subgroup_count(kind: str, n: int) -> int:
    """Subgroups of C_n, or of D_n (S_3 is D_3): tau(n) + sigma(n)."""
    if kind == "cn":
        return len(_divisors(n))
    return len(_divisors(n)) + sum(_divisors(n))


def fixed_cells(kind: str, n: int, members: list[str],
                affine: dict | None) -> dict:
    """Cells of the polygon fixed by the named elements, by dimension;
    `affine` gives each element of D_n or S_3 as i -> eps*i + c."""
    if members == ["e"]:
        if kind == "cn":
            return {"0": [f"v{i}" for i in range(n)],
                    "1": [f"e{i}" for i in range(n)], "2": []}
        return {"0": sorted([f"a{i}" for i in range(n)]
                            + [f"b{i}" for i in range(n)]),
                "1": sorted([f"p{i}" for i in range(n)]
                            + [f"q{i}" for i in range(n)]), "2": []}
    if kind == "cn":
        return {"0": [], "1": [], "2": []}
    # a mirror i -> c - i moves position x to 2c - x; no edge is fixed
    fixed = [x for x in range(2 * n)
             if all((affine[g][0] * x + 2 * affine[g][1]) % (2 * n) == x
                    for g in members)]
    names = [f"a{x // 2}" if x % 2 == 0 else f"b{x // 2}" for x in fixed]
    return {"0": sorted(names), "1": [], "2": []}


def _cohomology(nfs: list) -> dict:
    return {"cohomology": [{"degree": d, "rank": r, "torsion": list(t)}
                           for d, (r, t) in enumerate(nfs)]}


BASE_CHECKS = ["complex", "fixed point system", "coefficient system"]


class CliMix:
    """In-process cli.main over JSON files written at set-up."""

    name = "cli-mix"
    polys = range(3, 7)
    trace_rounds = 6

    def build(self, workdir: str, smallest: bool = False) -> dict:
        polys = self.polys[:1] if smallest else self.polys
        os.makedirs(workdir, exist_ok=True)
        paths = {}

        def put(key, data):
            path = os.path.join(workdir, f"{'_'.join(map(str, key))}.json")
            with open(path, "w") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
            paths[key] = path

        c2 = FiniteGroup.cyclic(2)
        for c in ALL:
            put(("coeffs", c), fam.coeff_json(c))
        put(("theory",), {"canonical": True, "i_max": 2, "p_max": 2})
        for k in (2, 3):
            put(("group", k), FiniteGroup.cyclic(k).to_json())
        put(("s3",), fam.s3_polygon(2).to_json())
        for n in polys:
            put(("dn", n), fam.dn_polygon(n, 2).to_json())
            cn = fam.rotation_ngon(n, 2)
            put(("cn", n), cn.to_json())
            put(("ngon", n), fam.ngon(n, 2).to_json())
            put(("sign", n), {"pi": c2.to_json(), "values":
                              fam.sign_twist_values(n, "t", "e")})
            put(("cnsign", n), {"pi": c2.to_json(), "values":
                                {f"e{i}": "t" for i in range(n)}})
            put(("cnphi", n), {"phi": {s.key: {"t": [[-1]]}
                                       for s in all_subgroups(cn.group)}})
            put(("kappa", n), {"kappa": {"basepoint": "v0", "paths": {"e": {
                f"v{i}": [[f"e{j}", 1] for j in range(i)]
                for i in range(n)}}}})
            put(("edges", n), {"edges": {"e": {
                f"e{i}": [[-1 if i == n - 1 else 1]] for i in range(n)}}})
        put(("phi",), {"phi": {"e": {"t": [[-1]]}}})
        paths[("broken",)] = fixture_path("broken_delta2.json")
        paths[("refs1",)] = fixture_path("refs1.json")
        paths[("nonnatural",)] = fixture_path("twist_refs1_nonnatural.json")
        affine = {("s3", 3): fam.s3_affine()[1]}
        for n in polys:
            affine[("dn", n)] = fam.dihedral_group(n)[1]
        # a rerun of any job must print the same bytes
        return {"paths": paths, "affine": affine, "stdout": {}}

    def smallest(self) -> list:
        """One job of every subcommand and input kind at n = 3."""
        return [
            ("validate", "dn", 3, "Z"), ("validate", "sign", 3, "Z4"),
            ("validate", "kappa", 3, "Z"), ("validate", "broken"),
            ("validate", "nonnatural"), ("fixedpoints", "dn", 3),
            ("fixedpoints", "cn", 3), ("fixedpoints", "s3", 3),
            ("bredon", "cn", 3, "Z"), ("bredon", "dn", 3, "Z2"),
            ("twisted", "sign", 3, "Z4"), ("twisted", "cnsign", 3, "Z"),
            ("twisted", "kappa", 3, "Z2"), ("cartan-check", "group", 2, "Z"),
            ("crosscheck", 3, "Z2"), ("em-info", 2, 2, 3),
        ]

    def deal(self, rng) -> list:
        ns = list(self.polys)

        def c():
            return rng.choice(ALL)

        def shape():
            return rng.choice([("cn", rng.choice(ns)),
                               ("dn", rng.choice((3, 4))), ("s3", 3)])

        # costs at the baseline: 1-8 ms for most jobs, which hold the
        # median; 30-70 ms for the cartan-check over C_n and crosscheck;
        # 0.15-0.4 s for D_6 validation, the S_3 cartan-check and em-info
        # at q = 6, which hold the tail
        jobs = [
            ("validate", "dn", rng.choice((3, 4)), c()),
            ("validate", "dn", 6, c()),
            ("validate", "sign", rng.choice(ns), c()),
            ("validate", "kappa", rng.choice(ns), c()),
            ("validate", "broken"),
            ("validate", "nonnatural"),
            ("fixedpoints",) + shape(),
            ("bredon",) + shape() + (c(),),
            ("twisted", rng.choice(("sign", "cnsign")), rng.choice(ns), c()),
            ("twisted", "kappa", rng.choice(ns), c()),
            ("cartan-check", "group", rng.choice((2, 3)), c()),
            ("cartan-check", "s3", 3, c()),
            ("crosscheck", rng.choice(ns), c()),
            ("em-info", rng.choice((2, 3)), rng.choice((1, 2)),
             rng.choice((3, 4))),
            ("em-info", rng.choice((2, 3)), rng.choice((1, 2)), 6),
        ]
        rng.shuffle(jobs)
        jobs.append(rng.choice(jobs))
        return jobs

    def argv(self, p: dict, job: tuple) -> list[str]:
        cmd = job[0]
        if cmd == "validate":
            kind = job[1]
            if kind == "broken":
                return ["validate", "--complex", p[("broken",)]]
            if kind == "nonnatural":
                return ["validate", "--complex", p[("refs1",)],
                        "--twist", p[("nonnatural",)]]
            n, coeff = job[2], job[3]
            if kind == "dn":
                return ["validate", "--complex", p[("dn", n)],
                        "--coeffs", p[("coeffs", coeff)]]
            return ["validate"] + self._twist_args(p, kind, n, coeff)
        if cmd == "fixedpoints":
            return ["fixedpoints", "--complex", p[self._shape_key(job[1:3])]]
        if cmd == "bredon":
            return ["bredon", "--complex", p[self._shape_key(job[1:3])],
                    "--coeffs", p[("coeffs", job[3])], "--nmax", "1"]
        if cmd == "twisted":
            return (["twisted"] + self._twist_args(p, job[1], job[2], job[3])
                    + ["--nmax", "1"])
        if cmd == "cartan-check":
            head = ["cartan-check", "--theory", p[("theory",)],
                    "--coeffs", p[("coeffs", job[3])]]
            if job[1] == "group":
                return head + ["--group", p[("group", job[2])]]
            return head + ["--complex", p[("s3",)]]
        if cmd == "crosscheck":
            return (["crosscheck"]
                    + self._twist_args(p, "sign", job[1], job[2])
                    + ["--nmax", "1"])
        return ["em-info", "--A", f"Z{job[1]}", "--n", str(job[2]),
                "--q", str(job[3])]

    @staticmethod
    def _shape_key(shape) -> tuple:
        return ("s3",) if shape[0] == "s3" else tuple(shape)

    @staticmethod
    def _twist_args(p, kind, n, coeff) -> list[str]:
        base = "cn" if kind == "cnsign" else "ngon"
        args = ["--complex", p[(base, n)], "--coeffs", p[("coeffs", coeff)],
                "--twist", p[(kind, n)]]
        if kind == "kappa":
            return args + ["--action", p[("edges", n)]]
        if kind == "cnsign":
            return args + ["--action", p[("cnphi", n)]]
        return args + ["--action", p[("phi",)]]

    def expect(self, pool, job: tuple, code: int, out: str, err: str) -> bool:
        cmd = job[0]
        if cmd == "validate" and job[1] in ("broken", "nonnatural"):
            return code == 1 and out == "" and err.startswith("error: ")
        if code != 0:
            return False
        data = json.loads(out)
        if cmd == "validate":
            extra = {"dn": [],
                     "sign": ["twisting identities",
                              "classifying map naturality",
                              "coefficient action"],
                     "kappa": ["edge paths", "edge holonomies"]}[job[1]]
            return data == {"ok": True, "checked": BASE_CHECKS + extra}
        if cmd == "fixedpoints":
            kind, n = job[1], job[2]
            subs = data["subgroups"]
            if len(subs) != subgroup_count("cn" if kind == "cn" else "dn", n):
                return False
            order = [(len(s["subgroup"].split(",")), s["subgroup"])
                     for s in subs]
            return order == sorted(order) and all(
                s["order"] == len(s["subgroup"].split(","))
                and s["cells"] == fixed_cells(kind, n,
                                              s["subgroup"].split(","),
                                              pool["affine"].get((kind, n)))
                for s in subs)
        if cmd == "bredon":
            coeff = job[3]
            h1 = fam.power(coeff, 1 if job[1] == "cn" else 0)
            return data == _cohomology([fam.power(coeff, 1), h1])
        if cmd == "twisted":
            return data == _cohomology(sign_oracle(job[3]))
        if cmd == "cartan-check":
            return (data["all_ok"] is True and data["i_max"] == 2
                    and data["p_max"] == 2)
        if cmd == "crosscheck":
            want = [describe(nf) for nf in sign_oracle(job[2])]
            return (data["all_match"] is True and data["iso"] is True
                    and data["commutes"] is True
                    and [e["bredon"] for e in data["degrees"]] == want
                    and [e["lift"] for e in data["degrees"]] == want)
        m, n, q = job[1], job[2], job[3]
        return data["orders"] == [m ** math.comb(k, n) for k in range(q + 1)]

    def run(self, pool, job) -> bool:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(pool["paths"], job))
        text = out.getvalue()
        first = pool["stdout"].setdefault(job, text)
        return first == text and self.expect(pool, job, code, text,
                                                 err.getvalue())


WORKLOADS = {w.name: w for w in (BredonTorus(), CartanChecks(), CliMix())}


def preflight(workdir: str) -> None:
    """Check the smallest job of every family against its oracle, so a
    broken library fails at set-up, before any timing.  Every layer of
    the package runs here, which the traced run records as set-up."""
    for wl in WORKLOADS.values():
        pool = wl.build(os.path.join(workdir, "preflight"), smallest=True)
        for job in wl.smallest():
            if not wl.run(pool, job):
                raise RuntimeError(f"{wl.name}: {job} disagrees with its "
                                   "oracle")
