"""Cartan theories: axioms, lift systems, the comparison theorem."""

import pytest

from eqtwist import cartan
from eqtwist.abgroups import BudgetExceeded, FgAbGroup, column_budget
from eqtwist.bredon import EquivariantCochains, TrivialTwistProvider
from eqtwist.cartan import (
    AxiomReport,
    LiftSystem,
    canonical_theory,
    check_axioms,
    contraction_is_natural,
    crosscheck_theorem,
    element_in_image,
    finite_simplicial_group,
    kernel_term,
    theory_cohomology,
    vertical_homotopy,
)
from eqtwist.classifying import (
    SimplicialFiniteGroup,
    contraction_identities,
)
from eqtwist.coefficients import CoefficientSystem
from eqtwist.groups import FiniteGroup

from helpers import (
    c2_category,
    circle_gx,
    constant_setup,
    nonconstant_system,
    refs1_setup,
    s1_twisted,
    s1_untwisted,
    triangle_kappa,
    vertical_homotopy_oracle,
    with_blinded_psi,
    with_zero_delta,
    zero_theory,
)

Z = FgAbGroup.from_relations(1, [[0]])
Z2 = FgAbGroup.from_relations(1, [[2]])
Z4 = FgAbGroup.from_relations(1, [[4]])


def verdicts(report: AxiomReport):
    return [report.ok(a) for a in AxiomReport.AXIOMS]


def test_axioms_pass_for_the_trivial_group():
    gx = circle_gx()
    cat, system = constant_setup(gx, Z2)
    report = check_axioms(canonical_theory(cat, system, 2, 3))
    assert report.all_ok
    assert verdicts(report) == [True] * 5


def test_axioms_pass_for_constant_coefficients_over_c2():
    cat = c2_category()
    system = CoefficientSystem.constant(cat, Z2)
    report = check_axioms(canonical_theory(cat, system, 2, 3))
    assert report.all_ok


def test_axioms_pass_for_a_nonconstant_system_over_c2():
    cat = c2_category()
    system = nonconstant_system(cat, Z2, Z, [[1]])
    report = check_axioms(canonical_theory(cat, system, 2, 3))
    assert report.all_ok


def test_zero_differential_breaks_exactness_only():
    cat = c2_category()
    system = CoefficientSystem.constant(cat, Z2)
    broken = with_zero_delta(canonical_theory(cat, system, 2, 3), at=1)
    assert verdicts(check_axioms(broken)) == [True, False, True, True, True]


def test_zero_theory_breaks_simplicial_triviality_only():
    cat = c2_category()
    system = CoefficientSystem.constant(cat, Z2)
    assert verdicts(check_axioms(zero_theory(cat, system, 2, 3))) == [
        True, True, True, False, True]


def test_blinded_psi_breaks_equivariance_only():
    cat = c2_category()
    system = nonconstant_system(cat, Z4, Z2, [[2]])
    broken = with_blinded_psi(canonical_theory(cat, system, 2, 3), "e",
                              at_i=0)
    assert verdicts(check_axioms(broken)) == [True, True, True, True, False]


def test_kernel_term_sits_inside_the_differential_kernel():
    gx = circle_gx()
    cat, system = constant_setup(gx, Z4)
    theory = canonical_theory(cat, system, 2, 3)
    zn = kernel_term(theory, 1)
    sab = zn.objects["e"]
    assert [g.order() for g in sab.levels] == [1, 4, 16, 64]
    for q in range(theory.p_max + 1):
        comp = theory.deltas[1]["e"][q].compose(zn.inclusions["e"][q])
        assert comp.is_zero_map


def test_lift_system_of_the_twisted_circle():
    gx, cat, system, provider = s1_twisted(Z4)
    ec = EquivariantCochains(gx, cat, system, 2)
    theory = canonical_theory(cat, system, 2, 3)
    ls = LiftSystem(ec, theory, provider, 2)
    assert ls.groups[0].order() == 4
    assert ls.groups[1].order() == 4
    assert ls.cohomology(0).group.normal_form() == (0, (2,))
    assert ls.cohomology(1).group.normal_form() == (0, (2,))
    assert ls.bredon_iso(0).is_iso()
    assert ls.bredon_iso(1).is_iso()
    assert theory_cohomology(ec, theory, provider, 1).normal_form() == \
        (0, (2,))


def test_lift_system_rejects_foreign_coefficients():
    gx, cat, system, provider = s1_untwisted(Z2)
    ec = EquivariantCochains(gx, cat, system, 2)
    other = CoefficientSystem.constant(cat, Z2)
    theory = canonical_theory(cat, other, 2, 3)
    with pytest.raises(ValueError, match="disagree on coefficients"):
        LiftSystem(ec, theory, provider, 1)


def test_lift_system_respects_the_theory_truncation():
    gx, cat, system, provider = s1_untwisted(Z2)
    ec = EquivariantCochains(gx, cat, system, 2)
    theory = canonical_theory(cat, system, 2, 3)
    with pytest.raises(ValueError, match="degree bound"):
        LiftSystem(ec, theory, provider, 3)


def _comparison_cases():
    yield "s1 constant Z2", s1_untwisted(Z2)
    yield "s1 sign on Z", s1_twisted(Z)
    yield "s1 sign on Z4", s1_twisted(Z4)
    yield "reflection circle Z", refs1_setup(Z)
    yield "triangle holonomy Z", triangle_kappa(Z)


@pytest.mark.parametrize("name,setup", list(_comparison_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_comparison_theorem(name, setup):
    gx, cat, system, provider = setup
    report = crosscheck_theorem(gx, cat, system, provider, 2)
    assert len(report["degrees"]) == 3
    assert all(entry["match"] for entry in report["degrees"])
    assert report["all_match"] is True
    # the explicit cochain-level map is an isomorphism of complexes
    assert report["iso"] is True
    assert report["commutes"] is True


def test_comparison_accepts_an_explicit_theory():
    gx, cat, system, provider = s1_untwisted(Z2)
    theory = canonical_theory(cat, system, 3, 3)
    report = crosscheck_theorem(gx, cat, system, provider, 1, theory=theory)
    assert report["all_match"] is True
    assert report["iso"] is True


def test_comparison_lets_an_exhausted_budget_through(monkeypatch):
    gx, cat, system, provider = s1_twisted(Z4)
    with column_budget(3), pytest.raises(BudgetExceeded):
        crosscheck_theorem(gx, cat, system, provider, 2)

    # raised inside the iso step, whose ValueError means "no iso"
    def exhausted(self, n):
        raise BudgetExceeded("synthetic")
    monkeypatch.setattr(LiftSystem, "bredon_iso", exhausted)
    with pytest.raises(BudgetExceeded):
        crosscheck_theorem(gx, cat, system, provider, 2)


def _lift_system(setup):
    gx, cat, system, provider = setup
    ec = EquivariantCochains(gx, cat, system, 2)
    return LiftSystem(ec, canonical_theory(cat, system, 2, 3), provider, 2)


def _oracle_system():
    return _lift_system(s1_untwisted(Z2))


def test_homotopy_oracle_agrees_with_the_coboundary_image():
    ls = _oracle_system()
    zero = ls.groups[1].zero()
    results = {}
    for el in ls.groups[1].elements():
        found, tried = vertical_homotopy_oracle(ls, 1, el, zero)
        assert found is element_in_image(ls.diffs[0], el)
        results[el] = (found, tried)
    # exhaustive search over all cylinder lifts, frozen trace
    assert results == {(0,): (True, 4), (1,): (False, 30)}


def test_homotopy_oracle_is_reflexive():
    ls = _oracle_system()
    assert vertical_homotopy_oracle(ls, 1, (1,), (1,)) == (True, 13)


def test_homotopy_oracle_reports_an_exhausted_budget():
    ls = _oracle_system()
    found, tried = vertical_homotopy_oracle(ls, 1, (1,), ls.groups[1].zero(),
                                            budget=2)
    assert found is None
    assert tried == 3


def _homotopy_cases():
    yield "s1 constant Z2", s1_untwisted(Z2)
    yield "s1 constant Z4", s1_untwisted(Z4)
    yield "s1 sign on Z2", s1_twisted(Z2)
    yield "s1 sign on Z4", s1_twisted(Z4)
    yield "reflection circle Z2", refs1_setup(Z2)


def test_vertical_homotopy_agrees_with_the_search_and_the_image():
    pairs = 0
    for name, setup in _homotopy_cases():
        ls = _lift_system(setup)
        lifts = ls.groups[1]
        for f in lifts.elements():
            for g in lifts.elements():
                found = vertical_homotopy(ls, 1, f, g)
                assert found is vertical_homotopy_oracle(ls, 1, f, g)[0], \
                    (name, f, g)
                assert found is element_in_image(
                    ls.diffs[0], lifts.add(f, lifts.neg(g))), (name, f, g)
                pairs += 1
    assert pairs == 44


def test_vertical_homotopy_builds_the_cylinder_once(monkeypatch):
    built = {"cylinder": 0, "kernel term": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cartan, "cylinder_with_action",
                        counting("cylinder", cartan.cylinder_with_action))
    monkeypatch.setattr(cartan, "kernel_term",
                        counting("kernel term", cartan.kernel_term))
    ls = _lift_system(s1_untwisted(Z4))
    lifts = ls.groups[1]
    pairs = [(f, g) for f in lifts.elements() for g in lifts.elements()]
    assert len(pairs) == 16
    found = [vertical_homotopy(ls, 1, f, g) for f, g in pairs]
    assert found == [element_in_image(ls.diffs[0], lifts.add(f, lifts.neg(g)))
                     for f, g in pairs]
    assert built == {"cylinder": 1, "kernel term": 1}


def test_vertical_homotopy_needs_the_next_differential():
    ls = _oracle_system()
    with pytest.raises(ValueError, match="next differential"):
        vertical_homotopy(ls, 2, (0,), (0,))


def test_contraction_identities_for_the_constant_group():
    sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 5)
    contraction_identities(sg, 3)


def test_contraction_identities_for_the_kernel_term():
    cat = c2_category()
    system = CoefficientSystem.constant(cat, Z2)
    theory = canonical_theory(cat, system, 1, 5)
    zn = kernel_term(theory, 0)
    for s in cat.subgroups:
        sg, _names = finite_simplicial_group(zn.objects[s.key])
        contraction_identities(sg, 3)
    contraction_is_natural(cat, zn, 3)
