"""A group twist and its action are checked once: each check against the
reference that checked every simplex.

`GroupTwist.validate` reads the identities at nondegenerate cells off
the face table, `check_naturality` builds one classifying map, and
`LocalSystem.validate` reads no inverse.  Each must pass what its
reference in `helpers` passes and raise the same message where that one
raises, on every twist of small complexes, on edits of twists of
classifying complexes and a torus, and on orbit-constant twists of
complexes with an action, with and without one cell broken.
"""

import itertools
import json
import random

import pytest

from eqtwist import twisting
from eqtwist.abgroups import AbHom, FgAbGroup
from eqtwist.coefficients import CoefficientSystem, LocalSystem
from eqtwist.equivariant import fixed_point_system
from eqtwist.fixtures import fixture_path, load_setup
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.intmat import IntMatrix
from eqtwist.simplicial import (FiniteSimplicialSet, parse_ref,
                                standard_simplex)
from eqtwist.twisting import GroupTwist, check_naturality

from helpers import (c2_category, circle_gx, dihedral_polygon, ngon_space,
                     nonconstant_system, reference_local_system_check,
                     reference_naturality, reference_twist_check, refs1_gx,
                     rotated_ngon, sphere2_gx, times_polygon, torus_twist,
                     triangle_gx, universal_twist)

C2, C3, S3 = (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
              FiniteGroup.symmetric3())


def outcome(check, *args):
    """None when the check passes, else its message."""
    try:
        check(*args)
    except ValueError as ex:
        return str(ex)
    return None


def higher_cells(space: FiniteSimplicialSet) -> list[str]:
    return [cid for q in range(1, space.truncation + 1)
            for cid in space.cells[q]]


def assert_same_identities(space, pi, values) -> str | None:
    twist = GroupTwist(space, pi, values, check=False)
    got = outcome(twist.validate)
    assert got == outcome(reference_twist_check, twist), values
    return got


# every assignment of a small complex ---------------------------------

SMALL = {
    "d2": (standard_simplex(2), [C2, C3, S3]),
    "d3": (standard_simplex(3), [C2]),
    **{f"{n}-gon": (ngon_space(n), [C2, C3]) for n in range(3, 7)},
    "triangle": (triangle_gx().space, [C2, C3, S3]),
    "circle": (circle_gx().space, [C2, S3]),
    "sphere2": (sphere2_gx().space, [C2, S3]),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_twist_of_a_small_complex_gets_the_reference_outcome(name):
    space, groups = SMALL[name]
    cells = higher_cells(space)
    for pi in groups:
        failures = set()
        for choice in itertools.product(pi.names, repeat=len(cells)):
            failures.add(
                assert_same_identities(space, pi, dict(zip(cells, choice))))
        assert None in failures
        if space.truncation >= 2 and space.cells[2]:
            assert len(failures) > 1


def test_values_outside_the_table_get_the_reference_outcome():
    space = standard_simplex(2)
    cells = higher_cells(space)
    messages = set()
    for choice in itertools.product(["e", "t", "zz"], repeat=len(cells)):
        values = dict(zip(cells, choice))
        messages.add(assert_same_identities(space, C2, values))
        for extra in ("0", "zz"):
            messages.add(assert_same_identities(space, C2,
                                                {**values, extra: "e"}))
        del values[cells[-1]]
        messages.add(assert_same_identities(space, C2, values))
    assert "twist value on '0-1' not in the group" in messages
    assert "no twist value on '0-1-2'" in messages
    assert "twist 'values' key 'zz' names no cell of dimension >= 1" in \
        messages


# edits of valid twists on classifying complexes and a torus -----------

EDITED = {
    **{f"W-bar {name} T={t}": (lambda pi=pi, t=t: universal_twist(pi, t))
       for name, pi in (("C2", C2), ("C3", C3), ("S3", S3))
       for t in (3, 4)},
    "3x3 torus C3": lambda: torus_twist(C3, 3, 3),
}


@pytest.mark.parametrize("name", sorted(EDITED))
def test_edits_of_a_valid_twist_get_the_reference_outcome(name):
    base = EDITED[name]()
    assert outcome(reference_twist_check, base) is None
    cells = higher_cells(base.space)
    rng = random.Random(name)
    messages = []
    for k in range(400):
        values = dict(base.values)
        # one edit in two, two cells at once in the other
        for cid in rng.sample(cells, 1 + k % 2):
            values[cid] = rng.choice(base.pi.names)
        messages.append(assert_same_identities(base.space, base.pi, values))
    assert None in messages
    assert any(m and m.startswith("tau(d1 x)") for m in messages)


# naturality of orbit-constant twists ----------------------------------

NATURAL = {
    "refs1": refs1_gx, "circle": circle_gx, "triangle": triangle_gx,
    "sphere2": sphere2_gx,
    **{f"C{n} {n}-gon": (lambda n=n: rotated_ngon(n)) for n in (3, 4, 6)},
    **{f"D{n} {2 * n}-gon": (lambda n=n: dihedral_polygon(n))
       for n in (3, 4)},
    "C3 3-gon x 3-gon": lambda: times_polygon(rotated_ngon(3), 3),
}


def orbit_constant(gx, pi: FiniteGroup, rng: random.Random, count: int):
    """Up to count twists constant on orbits: every one when there are
    few, else a sample."""
    orbits = [o for q in range(1, gx.space.truncation + 1)
              for o in gx.orbits(q)]
    if len(pi.names) ** len(orbits) <= count:
        choices = itertools.product(pi.names, repeat=len(orbits))
    else:
        choices = ([rng.choice(pi.names) for _o in orbits]
                   for _k in range(count))
    for choice in choices:
        yield {cid: u for o, u in zip(orbits, choice) for cid in o.members}


def pullbacks(gx, pi: FiniteGroup, side: int):
    """When gx is a product, the twists pulled back from the polygon on
    the given side, 0 or 1, along which its edges carry the identity or
    the generator of pi.  They satisfy the identities; the group acts
    on the left side alone, so those from the right are orbit constant
    and those from the left need not be."""
    cells = higher_cells(gx.space)
    if not all(")x(" in cid for cid in cells):
        return
    # the factor's reference of each cell, a cell "(rx)x(ry)"; one whose
    # word ends in s0 twists by e, any other is an edge's degeneracy
    refs = {cid: parse_ref(cid[1:-1].split(")x(")[side]) for cid in cells}
    edges = sorted({r.base for r in refs.values() if r.word[-1:] != (0,)})
    for choice in itertools.product(pi.names[:2], repeat=len(edges)):
        on_edge = dict(zip(edges, choice))
        yield {cid: pi.identity if r.word[-1:] == (0,) else on_edge[r.base]
               for cid, r in refs.items()}


@pytest.mark.parametrize("name", sorted(NATURAL))
def test_naturality_gets_the_reference_outcome(name):
    gx = NATURAL[name]()
    cat = OrbitCategory(gx.group)
    ph = fixed_point_system(gx, cat)
    rng = random.Random(name)
    cells = higher_cells(gx.space)
    seen = []

    def compare(pi, values) -> bool:
        """Whether the twist satisfies the identities; if it does, the
        naturality outcomes are compared too."""
        if assert_same_identities(gx.space, pi, values) is not None:
            seen.append("identities")
            return False
        twist = GroupTwist(gx.space, pi, values, check=False)
        got = outcome(check_naturality, ph, twist)
        assert got == outcome(reference_naturality, ph, twist), values
        if got is None:
            # orbit constancy, which the loader no longer checks
            assert outcome(twist.check_equivariant, gx) is None
        seen.append(got)
        return True

    for pi in (C2, C3):
        bases = list(orbit_constant(gx, pi, rng, 64)) + \
            list(pullbacks(gx, pi, 1)) + list(pullbacks(gx, pi, 0))
        for base in bases:
            if not compare(pi, base):
                continue
            # every one-cell break of a small complex, else eight
            breaks = [(cid, u) for cid in cells for u in pi.names
                      if u != base[cid]]
            if len(breaks) > 64:
                breaks = rng.sample(breaks, 8)
            for cid, u in breaks:
                compare(pi, {**base, cid: u})
    assert None in seen
    if gx.group.order > 1:
        assert any(m and m.startswith("classifying maps disagree")
                   for m in seen)


# the action of pi on the coefficients ---------------------------------

def scalar_actions(system: CoefficientSystem, pi: FiniteGroup, scalars):
    """phi with each element acting by a scalar on every value, one
    scalar per (orbit, element); the identity of pi may act by any."""
    keys = [(s.key, u) for s in system.cat.subgroups for u in pi.names]
    for choice in itertools.product(scalars, repeat=len(keys)):
        yield {k: AbHom(system.values[k[0]], system.values[k[0]],
                        IntMatrix([[a]], 1))
               for k, a in zip(keys, choice)}


LOCAL_CASES = {
    "C2 on constant Z4": (CoefficientSystem.constant(
        c2_category(), FgAbGroup.cyclic(4)), C2, (-1, 1, 3)),
    "C2 on Z restricted to Z2": (nonconstant_system(
        c2_category(), FgAbGroup.cyclic(2), FgAbGroup.free(1), [[1]]),
        C2, (-1, 0, 1)),
    "C3 on constant Z3": (CoefficientSystem.constant(
        OrbitCategory(FiniteGroup.trivial()), FgAbGroup.cyclic(3)),
        C3, (0, 1, 2, 4)),
}


@pytest.mark.parametrize("name", sorted(LOCAL_CASES))
def test_every_scalar_action_gets_the_reference_outcome(name):
    system, pi, scalars = LOCAL_CASES[name]
    seen = set()
    for phi in scalar_actions(system, pi, scalars):
        got = outcome(LocalSystem, system, pi, phi)
        assert got == outcome(reference_local_system_check, system, pi,
                              phi), phi
        seen.add(got)
    assert None in seen and len(seen) > 2


# what runs ------------------------------------------------------------

def test_validate_reads_only_the_face_table(monkeypatch):
    twists = []
    for pi in (C2, S3):
        good = universal_twist(pi, 4)
        # a nondegenerate cell of W-bar pi has no coordinate e
        cid = good.space.cells[3][-1]
        twists += [good, GroupTwist(good.space, pi, {**good.values, cid: "e"},
                                    check=False)]

    def refused(*args):
        raise AssertionError("a twist check walked the simplices")
    for name in ("all_refs", "face", "degeneracy"):
        monkeypatch.setattr(FiniteSimplicialSet, name, refused)
    for good, bad in zip(twists[::2], twists[1::2]):
        good.validate()
        with pytest.raises(ValueError, match="^tau"):
            bad.validate()


def test_naturality_builds_one_classifying_map(monkeypatch):
    calls = {"classifying_map": 0, "classifying_complex": 0}

    def spy(name):
        real = getattr(twisting, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(twisting, name, counted)

    spy("classifying_map")
    spy("classifying_complex")
    for gx in (refs1_gx(), dihedral_polygon(3),
               times_polygon(rotated_ngon(3), 3)):
        cat = OrbitCategory(gx.group)
        twist = GroupTwist(gx.space, C2, {cid: "e" for cid in
                                          higher_cells(gx.space)})
        check_naturality(fixed_point_system(gx, cat), twist)
        assert calls == {"classifying_map": 1, "classifying_complex": 1}
        calls.update(dict.fromkeys(calls, 0))


def test_the_loader_checks_orbit_constancy_by_naturality(monkeypatch,
                                                         tmp_path):
    def refused(self, gx):
        raise AssertionError("check_equivariant ran")
    monkeypatch.setattr(GroupTwist, "check_equivariant", refused)
    natural, sign = tmp_path / "twist.json", tmp_path / "action.json"
    natural.write_text(json.dumps({
        "pi": C2.to_json(), "values": {"p": "t", "q": "t"}}))
    sign.write_text(json.dumps({"phi": {"e": {"t": [[-1]]},
                                        "e,t": {"t": [[-1]]}}}))
    setup = load_setup(fixture_path("refs1.json"),
                       fixture_path("coeffs_z.json"), str(natural), str(sign))
    assert setup.checked[-2:] == ["classifying map naturality",
                                  "coefficient action"]
    with pytest.raises(ValueError, match="^classifying maps disagree along"):
        load_setup(fixture_path("refs1.json"),
                   twist_path=fixture_path("twist_refs1_nonnatural.json"))
