"""Group actions on complexes, fixed complexes, orbit decompositions."""

import pytest

from eqtwist.equivariant import GSimplicialSet, OGComplex, fixed_point_system
from eqtwist.groups import FiniteGroup, OrbitCategory, subgroup_key
from eqtwist.simplicial import (FiniteSimplicialSet, SimplexRef, SimplicialMap,
                                nondeg)

from helpers import ACTION_SPACES, load_gx, refs1_gx, reference_orbits


def test_refs1_orbits():
    gx = refs1_gx()
    vertex_orbits = gx.orbits(0)
    assert sorted(o.rep for o in vertex_orbits) == ["a", "b"]
    for o in vertex_orbits:
        assert o.stab_key == "e,t"
        assert o.members == (o.rep,)
    edge_orbits = gx.orbits(1)
    assert len(edge_orbits) == 1
    orb = edge_orbits[0]
    assert sorted(orb.members) == ["p", "q"]
    assert orb.stab_key == "e"
    # the transporter carries the representative onto each member
    for cid in orb.members:
        assert gx.perms[orb.transporters[cid]][orb.rep] == cid


def test_refs1_fixed_complexes():
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    ph = fixed_point_system(gx, cat)
    full = ph.complexes["e"]
    assert sorted(full.cells[1]) == ["p", "q"]
    fixed = ph.complexes["e,t"]
    assert sorted(fixed.cells[0]) == ["a", "b"]
    assert fixed.cells[1] == []
    # conjugation by t swaps the two arcs on the free complex
    flip = ph.maps["e|e|t"]
    assert flip.values["p"] == nondeg("q")
    assert flip.values["q"] == nondeg("p")


def test_free_action_has_empty_fixed_complex():
    gx = load_gx("sphere0.json")
    cat = OrbitCategory(gx.group)
    ph = fixed_point_system(gx, cat)
    assert ph.complexes["e,t"].cells[0] == []
    orbs = gx.orbits(0)
    assert len(orbs) == 1
    assert sorted(orbs[0].members) == ["n", "s"]


def test_action_closure_from_generators():
    # a four cycle given only by its generator
    c4 = FiniteGroup.cyclic(4)
    fs = FiniteSimplicialSet(1, {0: ["0", "1", "2", "3"]}, {})
    rot = {str(k): str((k + 1) % 4) for k in range(4)}
    gx = GSimplicialSet(fs, c4, {c4.names[1]: rot})
    two = c4.mul(c4.names[1], c4.names[1])
    assert gx.perms[two]["0"] == "2"
    assert len(gx.orbits(0)) == 1


def test_action_must_commute_with_faces():
    # swap the two vertices of an edge without moving the edge
    fs = FiniteSimplicialSet(
        1, {0: ["x", "y"], 1: ["f"]},
        {"f": (SimplexRef((), "y"), SimplexRef((), "x"))})
    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        GSimplicialSet(fs, c2, {"t": {"x": "y", "y": "x", "f": "f"}})


def test_identity_must_be_identity():
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    ph = fixed_point_system(gx, cat)
    ident = ph.maps["e|e|e"]
    for ids in ph.complexes["e"].cells.values():
        for cid in ids:
            assert ident.values[cid] == nondeg(cid)


def test_og_complex_names_the_first_pair_that_is_not_functorial():
    # let the flip of the free complex fix the arc p, so that it squares
    # to no identity; the pair reported is the first whose composite,
    # built in full, differs
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    good = fixed_point_system(gx, cat)
    flip = good.maps["e|e|t"]
    maps = dict(good.maps)
    maps["e|e|t"] = SimplicialMap(flip.source, flip.target,
                                  {**flip.values, "p": nondeg("p")},
                                  check=False)
    want = next(
        f"functoriality fails at {f.key} ; {h.key}"
        for f, h in cat.composable_pairs()
        if maps[f.key].compose(maps[h.key]).values
        != maps[cat.compose(f, h).key].values)
    with pytest.raises(ValueError) as ex:
        OGComplex(cat, good.complexes, maps)
    assert str(ex.value) == want


@pytest.mark.parametrize("case", sorted(ACTION_SPACES))
def test_orbits_are_found_once_and_agree_with_a_fresh_search(case):
    gx = ACTION_SPACES[case]()
    for q in range(gx.space.truncation + 1):
        first = gx.orbits(q)
        want = reference_orbits(gx, q)
        assert [(o.rep, o.members, o.stabilizer, o.transporters, o.stab_key)
                for o in first] == \
            [(o.rep, o.members, o.stabilizer, o.transporters,
              subgroup_key(o.stabilizer)) for o in want]
        # the second call hands out the same orbits in a list of its own
        again = gx.orbits(q)
        assert again is not first
        assert len(again) == len(first)
        assert all(a is b for a, b in zip(again, first))
