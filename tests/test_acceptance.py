"""Acceptance gate: one checked criterion per test, exact arithmetic.

Each test prints a single pass or fail line so the gate can be read
off the run log directly.  Expected values are integers throughout;
nothing is compared up to tolerance.
"""

import contextlib
import io
import itertools
import json
import time

import pytest

from eqtwist import cli
from eqtwist.abgroups import FgAbGroup
from eqtwist.bredon import (
    EquivariantCochains,
    twisted_complex,
)
from eqtwist.cartan import (
    AxiomReport,
    LiftSystem,
    canonical_theory,
    check_axioms,
    crosscheck_theorem,
    kernel_term,
    moore_homotopy,
    vertical_homotopy,
)
from eqtwist.classifying import SimplicialFiniteGroup, classifying_complex
from eqtwist.coefficients import CoefficientSystem
from eqtwist.em import CocycleModel
from eqtwist.equivariant import GSimplicialSet
from eqtwist.fixtures import fixture_path
from eqtwist.groups import FiniteGroup
from eqtwist.simplicial import SimplicialMap, nondeg, standard_simplex
from eqtwist.twisting import GroupTwist, classifying_map

from helpers import (
    c2_category,
    circle_gx,
    constant_setup,
    delta2_gx,
    nonconstant_system,
    normal_forms,
    refs1_gx,
    refs1_setup,
    s1_twisted,
    s1_untwisted,
    sphere2_gx,
    triangle_kappa,
    with_blinded_psi,
    with_zero_delta,
    zero_theory,
)
from verification import (
    classifying_twist,
    cocycle_of_map,
    contraction_identities,
    contraction_is_natural,
    element_in_image,
    finite_simplicial_group,
    map_values_of_cocycle,
    materialize_cocycles,
    projection_right,
    total_complex,
)

Z = FgAbGroup.from_relations(1, [[0]])
Z2 = FgAbGroup.from_relations(1, [[2]])
Z4 = FgAbGroup.from_relations(1, [[4]])


def run_criterion(num, name, body, limit=None):
    t0 = time.monotonic()
    try:
        body()
        dt = time.monotonic() - t0
        if limit is not None and dt >= limit:
            raise AssertionError(
                f"time budget exceeded: {dt:.2f}s, allowed {limit}s")
    except BaseException:
        print(f"criterion {num} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {num} ({name}): PASS ({dt:.2f}s)", flush=True)


def trivial_setup(gx, coeff):
    cat, system = constant_setup(gx, coeff)
    return gx, cat, system, None


def test_criterion_1_classical_reductions():
    def body():
        for gx, expected in (
                (circle_gx(), [(1, ()), (1, ())]),
                (sphere2_gx(), [(1, ()), (0, ()), (1, ())]),
                (delta2_gx(), [(1, ()), (0, ()), (0, ())])):
            t0 = time.monotonic()
            forms = normal_forms(*trivial_setup(gx, Z), len(expected) - 1)
            assert forms == expected
            assert time.monotonic() - t0 < 1.0

    run_criterion(1, "classical reductions", body)


def test_criterion_2_local_coefficients():
    def body():
        assert normal_forms(*s1_twisted(Z), 1) == [(0, ()), (0, (2,))]
        assert normal_forms(*s1_twisted(Z4), 1) == [(0, (2,)), (0, (2,))]

    run_criterion(2, "local coefficients on the circle", body)


def test_criterion_3_bredon_untwisted():
    def body():
        assert normal_forms(*refs1_setup(Z), 1) == [(1, ()), (0, ())]
        space = refs1_gx().space
        forgotten = GSimplicialSet(space, FiniteGroup.cyclic(1), {})
        assert normal_forms(*trivial_setup(forgotten, Z), 1) == [
            (1, ()), (1, ())]

    run_criterion(3, "equivariant constant coefficients", body)


def test_criterion_4_twisting_suite():
    def body():
        trunc = 4
        for pi in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(4),
                   FiniteGroup.symmetric3()):
            sg = SimplicialFiniteGroup.constant(pi, trunc)
            wbar = classifying_complex(sg, trunc)
            tau = classifying_twist(sg, wbar)
            values = {cid: tau(nondeg(cid))
                      for q in range(1, trunc + 1)
                      for cid in wbar.complex.cells[q]}
            GroupTwist(wbar.complex, pi, values)
            pc, _fiber, _base = total_complex(sg, trunc)
            pc.complex.validate()
            projection_right(pc).validate()
        c2 = FiniteGroup.cyclic(2)
        d2 = standard_simplex(2)
        sg2 = SimplicialFiniteGroup.constant(c2, 2)
        wbar2 = classifying_complex(sg2, 2)
        good = GroupTwist(
            d2, c2, {"0-1": "t", "0-2": "t", "1-2": "e", "0-1-2": "t"})
        classifying_map(d2, good, wbar2)
        bad_values = {"0-1": "t", "0-2": "e", "1-2": "e", "0-1-2": "e"}
        with pytest.raises(ValueError):
            GroupTwist(d2, c2, bad_values)
        bad = GroupTwist(d2, c2, bad_values, check=False)
        with pytest.raises(ValueError):
            classifying_map(d2, bad, wbar2)
        for gx, cat, system, provider in (
                s1_twisted(Z), s1_twisted(Z4), triangle_kappa(Z),
                triangle_kappa(Z4), refs1_setup(Z),
                trivial_setup(sphere2_gx(), Z4)):
            ec = EquivariantCochains(gx, cat, system,
                                     gx.space.truncation)
            cc = twisted_complex(ec, provider)
            for n in range(len(cc.diffs) - 1):
                assert cc.diffs[n + 1].compose(cc.diffs[n]).is_zero_map

    run_criterion(4, "twisting functions and products", body, limit=10.0)


def test_criterion_5_eilenberg_maclane_suite():
    def body():
        k = CocycleModel(Z2, 1, 4)
        assert [g.order() for g in k.levels] == [1, 2, 4, 8, 16]
        gx = circle_gx()
        cat, system = constant_setup(gx, Z4)
        theory = canonical_theory(cat, system, 2, 3)
        sab = kernel_term(theory, 1).objects["e"]
        assert moore_homotopy(sab)[0].order() == 1
        assert moore_homotopy(sab)[1].order() == 4
        assert moore_homotopy(sab)[2].order() == 1
        for a, space in itertools.product(
                (Z2, Z4), (circle_gx().space, delta2_gx().space)):
            km = CocycleModel(a, 1, space.truncation)
            mat = materialize_cocycles(km)
            edges = sorted(space.cells.get(1, []))
            seen = set()
            valid = 0
            for combo in itertools.product(a.elements(),
                                           repeat=len(edges)):
                values = dict(zip(edges, combo))
                ok = True
                for tid in space.cells.get(2, []):
                    t = nondeg(tid)
                    zs = []
                    for i in (0, 1, 2):
                        f = space.face(i, t)
                        zs.append(a.zero() if f.word else values[f.base])
                    if a.from_vector([x + y for x, y in
                                      zip(zs[0], zs[2])]) != zs[1]:
                        ok = False
                if not ok:
                    with pytest.raises(ValueError):
                        map_values_of_cocycle(space, km, mat, values)
                    continue
                valid += 1
                vm = map_values_of_cocycle(space, km, mat, values)
                SimplicialMap(space, mat.complex, vm)
                seen.add(tuple(sorted((c, str(r)) for c, r in vm.items())))
                back = cocycle_of_map(space, km, mat, vm)
                assert all(back[c] == values[c]
                           for c in space.cells.get(1, []))
            order = a.order()
            expected = order if not space.cells.get(2) else order ** 2
            assert valid == expected
            assert len(seen) == valid

    run_criterion(5, "cocycle models and representability", body,
                  limit=30.0)


def test_criterion_6_axiom_suite():
    def body():
        cat = c2_category()
        constant = CoefficientSystem.constant(cat, Z2)
        noncon = nonconstant_system(cat, Z2, Z, [[1]])
        for system in (constant, noncon):
            assert check_axioms(
                canonical_theory(cat, system, 2, 3)).all_ok
        def verdicts(rep):
            return [rep.ok(a) for a in AxiomReport.AXIOMS]
        broken_exact = with_zero_delta(
            canonical_theory(cat, constant, 2, 3), at=1)
        assert verdicts(check_axioms(broken_exact)) == [
            True, False, True, True, True]
        assert verdicts(check_axioms(zero_theory(cat, constant, 2, 3))) == [
            True, True, True, False, True]
        noncon4 = nonconstant_system(cat, Z4, Z2, [[2]])
        blinded = with_blinded_psi(
            canonical_theory(cat, noncon4, 2, 3), "e", at_i=0)
        assert verdicts(check_axioms(blinded)) == [
            True, True, True, True, False]

    run_criterion(6, "theory axioms and planted failures", body,
                  limit=60.0)


def test_criterion_7_contraction_family():
    def body():
        sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 5)
        contraction_identities(sg, 3)
        cat = c2_category()
        system = CoefficientSystem.constant(cat, Z2)
        zn = kernel_term(canonical_theory(cat, system, 1, 5), 0)
        for s in cat.subgroups:
            named, _tables = finite_simplicial_group(zn.objects[s.key])
            contraction_identities(named, 3)
        contraction_is_natural(cat, zn, 3)

    run_criterion(7, "contraction identities and naturality", body)


def test_criterion_8_vertical_homotopy():
    def body():
        cases = [
            (s1_untwisted(Z2), {(0,): True, (1,): False}),
            (s1_untwisted(Z), {(0,): True, (1,): False, (2,): False,
                               (-3,): False}),
            (s1_twisted(Z), {(0,): True, (1,): False, (2,): True,
                             (-3,): False}),
        ]
        for (gx, cat, system, provider), want in cases:
            ec = EquivariantCochains(gx, cat, system, 2)
            theory = canonical_theory(cat, system, 2, 3)
            ls = LiftSystem(ec, theory, provider, 2)
            zero = ls.groups[1].zero()
            homotopic = {el: vertical_homotopy(ls, 1, el, zero)
                         for el in want}
            image = {el: element_in_image(ls.diffs[0], el) for el in want}
            assert homotopic == image
            assert homotopic == want

    run_criterion(8, "null homotopies match the coboundary image", body,
                  limit=60.0)


def test_criterion_9_main_comparison():
    def body():
        for setup in (s1_untwisted(Z2), s1_twisted(Z), s1_twisted(Z4),
                      refs1_setup(Z), triangle_kappa(Z)):
            gx, cat, system, provider = setup
            report = crosscheck_theorem(gx, cat, system, provider, 2)
            assert report["all_match"] is True
            assert all(e["match"] for e in report["degrees"])
            assert report["iso"] is True
            assert report["commutes"] is True

    run_criterion(9, "cohomology comparison with the lift complex", body,
                  limit=120.0)


def test_criterion_10_deterministic_output():
    def body():
        def capture(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            assert code == 0
            return buf.getvalue()

        commands = [
            ["bredon", "--complex", str(fixture_path("s1.json")),
             "--coeffs", str(fixture_path("coeffs_z.json")),
             "--nmax", "2"],
            ["crosscheck", "--complex", str(fixture_path("s1.json")),
             "--coeffs", str(fixture_path("coeffs_z4.json")),
             "--twist", str(fixture_path("twist_s1_z4.json")),
             "--action", str(fixture_path("action_s1_z4_sign.json"))],
        ]
        for argv in commands:
            first = capture(argv)
            second = capture(argv)
            assert first == second
            json.loads(first)

    run_criterion(10, "byte identical reruns", body)
