"""Group actions on complexes, fixed complexes, orbit decompositions."""

import random
import re

import pytest

from eqtwist.equivariant import GSimplicialSet, OGComplex, fixed_point_system
from eqtwist.groups import FiniteGroup, OrbitCategory, subgroup_key
from eqtwist.simplicial import (FiniteSimplicialSet, SimplexRef, SimplicialMap,
                                nondeg)

from helpers import (ACTION_SPACES, dihedral_polygon, load_gx, refs1_gx,
                     reference_action_check, reference_fixed_point_maps,
                     reference_orbits, reference_system_check, rotated_ngon,
                     times_polygon)


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
    with pytest.raises(ValueError) as ex:
        GSimplicialSet(fs, c2, {"t": {"x": "y", "y": "x", "f": "f"}})
    assert str(ex.value) == "t fails to commute with d0 at 'f'"


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


# every complex with an action of ACTION_SPACES, and products of the
# kind the Bredon torus benchmark loads: C_n or D_n acting on a polygon
# times an m-gon
LOADED = {
    **ACTION_SPACES,
    **{f"{kind}{n} polygon x {m}-gon":
       lambda act=act, n=n, m=m: times_polygon(act(n), m)
       for kind, act in [("C", rotated_ngon), ("D", dihedral_polygon)]
       for n in range(3, 6) for m in range(3, 6)},
}


def outcome(check, *args):
    """None when the check passes, else its error and message."""
    try:
        check(*args)
    except (ValueError, KeyError, IndexError) as ex:
        return type(ex).__name__, str(ex)
    return None


def action_mutations(gx: GSimplicialSet, rng: random.Random, rounds: int):
    """(what, space, perms) for single edits of a built action: two
    images of one element swapped within a dimension, or made one, one
    cell sent across dimensions, one element acting as another (which
    breaks a product of the group law), and the face list of one cell
    reversed."""
    space, names = gx.space, gx.group.names
    cells = [cid for ids in space.cells.values() for cid in ids]
    higher = [cid for q in range(1, space.truncation + 1)
              for cid in space.cells[q]]

    def edited():
        return {a: dict(p) for a, p in gx.perms.items()}

    out = []
    for _ in range(rounds):
        a, x = rng.choice(names), rng.choice(cells)
        same = [y for y in space.cells[space.dim_of(x)] if y != x]
        if same:
            y = rng.choice(same)
            perms = edited()
            perms[a][x], perms[a][y] = perms[a][y], perms[a][x]
            out.append((f"{a} swaps the images of {x!r}, {y!r}", space,
                        perms))
            perms = edited()
            perms[a][x] = perms[a][y]
            out.append((f"{a} sends {x!r} where it sends {y!r}", space,
                        perms))
        other = [y for y in cells if space.dim_of(y) != space.dim_of(x)]
        if other:
            y = rng.choice(other)
            perms = edited()
            perms[a][x] = y
            out.append((f"{a} sends {x!r} to {y!r}", space, perms))
        if len(names) > 1:
            a, b = rng.sample(names, 2)
            perms = edited()
            perms[a] = dict(perms[b])
            out.append((f"{a} acts as {b}", space, perms))
        if higher:
            c = rng.choice(higher)
            faces = {**space.face_table,
                     c: tuple(reversed(space.face_table[c]))}
            flipped = FiniteSimplicialSet(space.truncation, space.cells,
                                          faces, check=False)
            out.append((f"faces of {c!r} reversed", flipped, edited()))
    return out


def system_mutations(ph: OGComplex, rng: random.Random, rounds: int):
    """(what, maps) for single edits of the maps of a built fixed-point
    system, each value kept a cell of its map's target: two values of
    one map swapped, one value moved to another cell, one map replaced
    by another map between the same complexes, and one value of an
    identity moved."""
    cat = ph.cat

    def cells(cx):
        return [cid for ids in cx.cells.values() for cid in ids]

    def edited(m, values):
        old = ph.maps[m.key]
        return {**ph.maps, m.key: SimplicialMap(old.source, old.target,
                                                values, check=False)}

    morphisms = [m for m in cat.all_morphisms()
                 if cells(ph.maps[m.key].source)]
    twins = [(m, n) for m in morphisms for n in morphisms
             if m is not n and (m.src, m.tgt) == (n.src, n.tgt)]
    identities = [m for m in morphisms if m.is_identity()]
    out = []
    for _ in range(rounds):
        m = rng.choice(morphisms)
        values = dict(ph.maps[m.key].values)
        if len(values) > 1:
            x, y = rng.sample(sorted(values), 2)
            values[x], values[y] = values[y], values[x]
            out.append((f"{m.key} swaps {x!r}, {y!r}", edited(m, values)))
        for m, what in ((rng.choice(morphisms), "moves"),
                        (rng.choice(identities), "moves, as an identity,")):
            values = dict(ph.maps[m.key].values)
            x = rng.choice(sorted(values))
            y = rng.choice(cells(ph.maps[m.key].target))
            values[x] = nondeg(y)
            out.append((f"{m.key} {what} {x!r} to {y!r}", edited(m, values)))
        if twins:
            m, n = rng.choice(twins)
            out.append((f"{m.key} acts as {n.key}",
                        edited(m, ph.maps[n.key].values)))
    return out


@pytest.mark.parametrize("case", sorted(LOADED))
def test_action_checks_agree_with_the_name_level_checks(case):
    gx = LOADED[case]()
    assert outcome(reference_action_check, gx.space, gx.group,
                   gx.perms) is None
    for what, space, perms in action_mutations(gx, random.Random(case), 4):
        assert outcome(GSimplicialSet, space, gx.group, perms) == \
            outcome(reference_action_check, space, gx.group, perms), what


@pytest.mark.parametrize("case", sorted(LOADED))
def test_fixed_point_system_agrees_with_the_name_level_system(case):
    gx = LOADED[case]()
    cat = OrbitCategory(gx.group)
    ph = fixed_point_system(gx, cat)
    complexes, maps = reference_fixed_point_maps(gx, cat)
    assert outcome(reference_system_check, cat, complexes, maps) is None
    assert ph.complexes.keys() == complexes.keys()
    for key, cx in complexes.items():
        assert ph.complexes[key].cells == cx.cells
        assert ph.complexes[key].face_table == cx.face_table
    assert ph.maps.keys() == maps.keys()
    for key, m in maps.items():
        assert ph.maps[key].values == m.values
        assert ph.maps[key].source is ph.complexes[key.split("|")[1]]
        assert ph.maps[key].target is ph.complexes[key.split("|")[0]]
    for what, edit in system_mutations(ph, random.Random(case), 4):
        assert outcome(OGComplex, cat, ph.complexes, edit) == \
            outcome(reference_system_check, cat, ph.complexes, edit), what


# each message of the loading checks, by a pattern
CHECKS = {
    "dimension": r"\S+ moves .* across dimensions",
    "bijection": r"\S+ does not act bijectively",
    "group law": r"action fails the group law",
    "faces": r"\S+ fails to commute with d\d+ at .*",
    "identity": r"identity of \S+ acts nontrivially",
    "functoriality": r"functoriality fails at \S+ ; \S+",
}


def test_the_mutations_reach_every_check():
    # the sweeps above are worth as much as the checks they make fail
    seen = set()
    for case in ["D3 polygon", "D3 polygon x 5-gon", "S3 hexagon"]:
        gx = LOADED[case]()
        got = [outcome(GSimplicialSet, space, gx.group, perms)
               for _, space, perms in action_mutations(gx,
                                                       random.Random(case), 3)]
        ph = fixed_point_system(gx, OrbitCategory(gx.group))
        got += [outcome(OGComplex, ph.cat, ph.complexes, edit)
                for _, edit in system_mutations(ph, random.Random(case), 3)]
        seen |= {name for name, pattern in CHECKS.items() for res in got
                 if res and re.fullmatch(pattern, res[1])}
    assert seen == set(CHECKS)


def test_a_degenerate_transport_value_leaves_the_fixed_complex():
    # collapse the arc p onto the vertex a under the flip: no automorphism
    # does that, so the value is refused before any functoriality pair
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    good = fixed_point_system(gx, cat)
    flip = good.maps["e|e|t"]
    maps = {**good.maps, "e|e|t": SimplicialMap(
        flip.source, flip.target,
        {**flip.values, "p": SimplexRef((0,), "a")}, check=False)}
    with pytest.raises(ValueError) as ex:
        OGComplex(cat, good.complexes, maps)
    assert str(ex.value) == "transport along e|e|t leaves the fixed complex"


def test_a_transport_value_outside_the_fixed_complex_is_refused():
    # the identity of the reflection's fixed complex sends the vertex a
    # to the arc p, which the reflection moves
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    good = fixed_point_system(gx, cat)
    ident = good.maps["e,t|e,t|e"]
    maps = {**good.maps, "e,t|e,t|e": SimplicialMap(
        ident.source, ident.target, {**ident.values, "a": nondeg("p")},
        check=False)}
    with pytest.raises(ValueError) as ex:
        OGComplex(cat, good.complexes, maps)
    assert str(ex.value) == \
        "transport along e,t|e,t|e leaves the fixed complex"


def test_loading_reads_tables_and_pushes_no_reference(monkeypatch):
    # the D_6 polygon's action and fixed-point system are checked on
    # the face table and on cell numbers: no face operator and no
    # simplicial map is applied
    gx = dihedral_polygon(6)
    calls = {"face": 0, "apply": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(FiniteSimplicialSet, "face",
                        spy("face", FiniteSimplicialSet.face))
    monkeypatch.setattr(SimplicialMap, "apply",
                        spy("apply", SimplicialMap.apply))
    loaded = GSimplicialSet(gx.space, gx.group, gx.perms)
    fixed_point_system(loaded, OrbitCategory(loaded.group))
    assert calls == {"face": 0, "apply": 0}
