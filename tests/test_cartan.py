"""Cartan theories: axioms, lift systems, the comparison theorem."""

import pytest

from eqtwist import bredon, cartan, em
from eqtwist.abgroups import AbHom, BudgetExceeded, FgAbGroup, column_budget
from eqtwist.bredon import EquivariantCochains
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
    moore_homotopy,
    theory_cohomology,
    vertical_homotopy,
)
from eqtwist.classifying import (
    SimplicialFiniteGroup,
    contraction_identities,
)
from eqtwist.coefficients import CoefficientSystem
from eqtwist.fixtures import fixture_path, load_json, load_setup
from eqtwist.groups import FiniteGroup, OrbitCategory

from helpers import (
    IdentityTwistProvider,
    c2_category,
    circle_gx,
    constant_setup,
    load_gx,
    nonconstant_system,
    reference_moore_homotopy,
    refs1_setup,
    s1_twisted,
    s1_untwisted,
    triangle_kappa,
    vertical_homotopy_oracle,
    with_blinded_psi,
    with_broken_face,
    with_nonzero_square,
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


def test_axiom_3_eliminates_no_matrix_with_two_nonzero_dimensions(
        eliminations):
    # the unnormalized complex of a canonical term is made of +-I blocks
    # between equal summands, which its reduction cancels: what is left
    # to eliminate has no rows or no columns, and a reduced coboundary
    # with no entry is the zero map, which needs no kernel elimination
    cat = OrbitCategory(FiniteGroup.trivial())
    theory = canonical_theory(cat, CoefficientSystem.constant(cat, Z2), 3, 4)
    for term in theory.terms:
        for calls in eliminations.values():
            calls.clear()
        assert all(g.is_trivial for g in moore_homotopy(term.objects["e"]))
        assert eliminations["snf"] and eliminations["kernel_basis"] == []
        for calls in eliminations.values():
            assert all(0 in shape for shape in calls), calls


GROUPS = {"1": FiniteGroup.trivial(), "C2": FiniteGroup.cyclic(2),
          "S3": FiniteGroup.symmetric3()}
MOORE_CASES = [(g, c, b) for g in GROUPS for c in ("Z", "Z2", "Z4")
               for b in ((2, 2), (3, 3), (3, 4), (4, 5))
               if g != "S3" or b[1] <= 3]


@pytest.mark.parametrize("group,coeff,bounds", MOORE_CASES)
def test_homotopy_agrees_with_the_moore_subgroups(group, coeff, bounds):
    # every term object and every kernel term object, through the
    # unnormalized complex and through the normalized one
    cat = OrbitCategory(GROUPS[group])
    system = CoefficientSystem.constant(
        cat, {"Z": Z, "Z2": Z2, "Z4": Z4}[coeff])
    theory = canonical_theory(cat, system, *bounds)
    terms = theory.terms + [kernel_term(theory, n)
                            for n in range(theory.i_max)]
    for term in terms:
        for s in cat.subgroups:
            sab = term.objects[s.key]
            assert [g.normal_form() for g in moore_homotopy(sab)] == \
                [g.normal_form() for g in reference_moore_homotopy(sab)]


def test_a_broken_face_fails_axiom_1_and_skips_its_homotopy():
    cat = OrbitCategory(FiniteGroup.trivial())
    theory = canonical_theory(cat, CoefficientSystem.constant(cat, Z2), 2, 3)
    broken = with_broken_face(theory, at=1, level=2, face=1)
    report = check_axioms(broken)
    assert report.failures[1][0] == "A^1: face identity fails at (3,0,2)"
    assert report.failures[3] == []
    assert report.info[3] == [
        "A^1(e) is not simplicial; homotopy not checked there"]
    # its faces make no complex, so pi cannot be read there
    with pytest.raises(ValueError, match="d o d != 0"):
        moore_homotopy(broken.terms[1].objects["e"])


def test_axiom_5_builds_each_psi_once(monkeypatch):
    # cartan-check --bounds 3,4 with coeffs_z4.json over the trivial
    # group: psi of each of the two automorphisms once per (i, q), the
    # identity and the 4 products a*b once per (i, q) each, and the 20
    # restriction maps of canonical_theory: 20 + 40 + 20 + 80 = 160
    built = []
    real = em.CochainModel.postcompose_hom

    def counting(self, *args):
        built.append(args)
        return real(self, *args)

    monkeypatch.setattr(em.CochainModel, "postcompose_hom", counting)
    cat = OrbitCategory(FiniteGroup.trivial())
    system = CoefficientSystem.from_json(
        cat, load_json(fixture_path("coeffs_z4.json")))
    report = check_axioms(canonical_theory(cat, system, 3, 4))
    assert len(built) <= 160
    assert report.lines() == [
        "checked within bounds i_max=3, p_max=4",
        "axiom 1: pass",
        "  note: multiplicative structure not modelled",
        "axiom 2: pass",
        "  note: degree 0 read as defining Z^0, not checked",
        "axiom 3: pass",
        "axiom 4: pass",
        "axiom 5: pass",
    ]


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


def test_a_nonzero_square_is_reported_not_raised():
    cat = OrbitCategory(FiniteGroup.trivial())
    system = CoefficientSystem.constant(cat, Z)
    broken = with_nonzero_square(canonical_theory(cat, system, 3, 2))
    assert broken.deltas[1]["e"][2].matrix.rows == ((2, -1, 1),)
    report = check_axioms(broken)
    assert not report.all_ok
    assert "delta.delta != 0 at e, degree 0, level 2" in report.failures[1]
    # exactness is undefined where the square fails, so it is skipped
    assert report.info[2][0] == (
        "not a complex at degree 1, e, level 2; exactness not checked there")


def test_axioms_compose_each_square_once(monkeypatch):
    # C_2 with Z/2 at bounds (3, 3): the squares delta^d o delta^(d-1)
    # for d = 1, 2 over four levels are 8, since the two orbits share
    # their differentials; axiom 1 composes each, and axiom 2 reuses
    # its verdict
    cat = c2_category()
    theory = canonical_theory(cat, CoefficientSystem.constant(cat, Z2), 3, 3)
    deltas = {id(h) for dd in theory.deltas for homs in dd.values()
              for h in homs}
    squares = []
    real = AbHom.compose

    def spy(self, first):
        if id(self) in deltas and id(first) in deltas:
            squares.append((id(self), id(first)))
        return real(self, first)

    monkeypatch.setattr(AbHom, "compose", spy)
    assert check_axioms(theory).all_ok
    assert len(squares) == len(set(squares)) == 8


def _one_group_per_orbit(cat: OrbitCategory,
                         a: FgAbGroup) -> CoefficientSystem:
    """The constant system of a, with an equal but distinct group at
    each orbit, as a "values" coefficient file gives."""
    values = {s.key: FgAbGroup.from_relations(a.ngens, a.rels.cols())
              for s in cat.subgroups}
    maps = {m.key: AbHom(values[m.tgt.key], values[m.src.key],
                         AbHom.identity(a).matrix)
            for m in cat.all_morphisms()}
    return CoefficientSystem(cat, values, maps)


@pytest.mark.parametrize("group", [FiniteGroup.cyclic(2),
                                   FiniteGroup.symmetric3()])
def test_orbits_that_share_their_objects_report_as_orbits_that_do_not(group):
    # the constant system shares one group, so its orbits share every
    # object of the theory; the other system shares none.  A verdict of
    # one orbit that leaked to another, or went missing there, would
    # make the reports differ; with_blinded_psi fails at one orbit only
    cat = OrbitCategory(group)
    reports = []
    for system in (CoefficientSystem.constant(cat, Z4),
                   _one_group_per_orbit(cat, Z4)):
        theory = canonical_theory(cat, system, 2, 2)
        shared = {id(theory.terms[0].objects[s.key]) for s in cat.subgroups}
        assert len(shared) == (1 if system.values["e"] is Z4
                               else len(cat.subgroups))
        planted = [theory, with_zero_delta(theory),
                   with_nonzero_square(theory),
                   zero_theory(cat, system, 2, 2)]
        planted += [with_blinded_psi(theory, s.key) for s in cat.subgroups]
        reports.append([check_axioms(t).lines() for t in planted])
    assert reports[0] == reports[1]
    blinded = reports[0][4:]
    assert all(lines[:8] == reports[0][0][:7] + ["axiom 5: fail"]
               for lines in blinded)
    assert len({tuple(lines) for lines in blinded}) == len(cat.subgroups)


@pytest.mark.parametrize("group", [FiniteGroup.cyclic(2),
                                   FiniteGroup.symmetric3()])
def test_check_axioms_eliminates_once_per_distinct_input(eliminations, group):
    # with one coefficient group the orbits share their objects, so the
    # checks cost as many eliminations as over the trivial group's orbit
    counts = []
    for g in (FiniteGroup.trivial(), group):
        cat = OrbitCategory(g)
        theory = canonical_theory(cat, CoefficientSystem.constant(cat, Z2),
                                  2, 2)
        before = sum(map(len, eliminations.values()))
        assert check_axioms(theory).all_ok
        counts.append(sum(map(len, eliminations.values())) - before)
    assert counts[0] == counts[1]


def test_a_nonzero_square_skips_exactness_at_both_degrees_it_breaks():
    # the 1 planted in delta^1 spoils delta^1 o delta^0 and
    # delta^2 o delta^1 on both orbits; exactness is reported nowhere else
    cat = c2_category()
    system = CoefficientSystem.constant(cat, Z2)
    report = check_axioms(with_nonzero_square(
        canonical_theory(cat, system, 3, 3)))
    assert report.failures[1][-4:] == [
        f"delta.delta != 0 at {o}, degree {d}, level 3"
        for d in (0, 1) for o in ("e", "e,t")]
    assert report.failures[2] == []
    assert report.info[2] == [
        f"not a complex at degree {d}, {o}, level 3; "
        f"exactness not checked there"
        for d in (1, 2) for o in ("e", "e,t")] + [
        "degree 0 read as defining Z^0, not checked"]


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


def test_lift_systems_over_one_theory_build_each_psi_once(monkeypatch):
    # the group twist hands out one action hom per element, which the
    # theory's psi memo is keyed on, so a second lift system adds
    # nothing; with no twist a lift system builds no psi at all
    built = []
    real = em.CochainModel.postcompose_hom

    def spy(self, *args):
        built.append(args)
        return real(self, *args)

    def theory_of(setup):
        gx, cat, system, provider = setup
        ec = EquivariantCochains(gx, cat, system, 2)
        return ec, canonical_theory(cat, system, 3, 3), provider

    twisted = theory_of(s1_twisted(Z4))
    untwisted = theory_of(refs1_setup(Z2))
    monkeypatch.setattr(em.CochainModel, "postcompose_hom", spy)
    LiftSystem(*twisted, 2)
    first = len(built)
    LiftSystem(*twisted, 2)
    assert first and len(built) == first
    built.clear()
    LiftSystem(*untwisted, 2)
    assert untwisted[2] is None and built == []


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


# every bundled complex that loads: all but broken_delta2.json, which
# fails a face identity
FIXTURE_COMPLEXES = ["delta2.json", "refs1.json", "s1.json", "sphere0.json",
                     "sphere2.json", "triangle.json"]


@pytest.mark.parametrize("coeff", [Z, Z2, Z4], ids=["Z", "Z2", "Z4"])
@pytest.mark.parametrize("name", FIXTURE_COMPLEXES)
def test_no_twist_compares_as_the_identity_twist(name, coeff):
    gx = load_gx(name)
    cat, system = constant_setup(gx, coeff)
    nmax = min(2, gx.space.truncation)
    assert crosscheck_theorem(gx, cat, system, None, nmax) == \
        crosscheck_theorem(gx, cat, system, IdentityTwistProvider(system),
                           nmax)


def test_comparison_reuses_the_twisted_coboundaries(monkeypatch):
    # crosscheck on s1.json with Z/4 and the sign twist: the commutation
    # check reads the three differentials of the twisted complex
    built = []
    real = bredon.twisted_coboundary

    def counting(ec, provider, n):
        built.append(n)
        return real(ec, provider, n)

    monkeypatch.setattr(bredon, "twisted_coboundary", counting)
    monkeypatch.setattr(cartan, "twisted_coboundary", counting,
                        raising=False)
    setup = load_setup(fixture_path("s1.json"),
                       fixture_path("coeffs_z4.json"),
                       fixture_path("twist_s1_z4.json"),
                       fixture_path("action_s1_z4_sign.json"))
    report = crosscheck_theorem(setup.gx, setup.cat, setup.system,
                                setup.provider, 2)
    assert sorted(built) == [0, 1, 2]
    assert [(e["bredon"], e["lift"], e["match"])
            for e in report["degrees"]] == [("C2", "C2", True),
                                            ("C2", "C2", True),
                                            ("0", "0", True)]
    assert report["all_match"] is True
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
