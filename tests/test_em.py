"""Cocycle models of Eilenberg-MacLane type and representability."""

import itertools

import pytest

from eqtwist.abgroups import FgAbGroup
from eqtwist.cartan import canonical_theory, kernel_term, moore_homotopy
from eqtwist.em import CocycleModel
from eqtwist.simplicial import SimplicialMap, nondeg

from helpers import circle_gx, constant_setup, delta2_gx
from verification import (cocycle_of_map, map_values_of_cocycle,
                          materialize_cocycles)


def cyclic(k):
    return FgAbGroup.from_relations(1, [[k]])


def test_cocycle_levels_count_z2():
    k = CocycleModel(cyclic(2), 1, 4)
    assert [g.order() for g in k.levels] == [1, 2, 4, 8, 16]


def test_cocycle_levels_count_z4():
    k = CocycleModel(cyclic(4), 1, 3)
    assert [g.order() for g in k.levels] == [1, 4, 16, 64]


def test_cocycle_level_simplices_are_normalized_cocycles():
    # degree 2 of K(Z/2, 1): functions on the three edges of a
    # 2-simplex satisfying the additive cocycle identity
    k = CocycleModel(cyclic(2), 1, 2)
    incl = k.inclusions[2]
    assert len(k.ambient.subsets[2]) == 3
    for el in k.levels[2].elements():
        amb = incl.apply(el)
        v01, v02, v12 = k.ambient.levels[2].to_vector(amb)
        assert (v01 + v12 - v02) % 2 == 0


def test_moore_homotopy_of_the_z4_model():
    gx = circle_gx()
    cat, system = constant_setup(gx, cyclic(4))
    theory = canonical_theory(cat, system, 2, 3)
    sab = kernel_term(theory, 1).objects["e"]
    assert [g.order() for g in sab.levels] == [1, 4, 16, 64]
    assert moore_homotopy(sab)[0].order() == 1
    assert moore_homotopy(sab)[1].order() == 4
    assert moore_homotopy(sab)[2].order() == 1


def _valid_assignments(fs, a):
    """All 1-cochains on fs, flagged by the degree 2 cocycle condition."""
    edges = sorted(fs.cells.get(1, []))
    for combo in itertools.product(a.elements(), repeat=len(edges)):
        values = dict(zip(edges, combo))
        ok = True
        for tid in fs.cells.get(2, []):
            t = nondeg(tid)
            zs = []
            for i in (0, 1, 2):
                f = fs.face(i, t)
                zs.append(a.zero() if f.word else values[f.base])
            lhs = a.from_vector([x + z for x, z in zip(zs[0], zs[2])])
            if lhs != zs[1]:
                ok = False
        yield values, ok


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("space", ["s1", "delta2"])
def test_representability_bijection(order, space):
    a = cyclic(order)
    fs = (circle_gx() if space == "s1" else delta2_gx()).space
    k = CocycleModel(a, 1, fs.truncation)
    mat = materialize_cocycles(k)
    maps = []
    count_valid = 0
    for values, ok in _valid_assignments(fs, a):
        if not ok:
            with pytest.raises(ValueError, match="do not form a cocycle"):
                map_values_of_cocycle(fs, k, mat, values)
            continue
        count_valid += 1
        vm = map_values_of_cocycle(fs, k, mat, values)
        # differential compatibility: the values define a simplicial map
        SimplicialMap(fs, mat.complex, vm)
        maps.append(tuple(sorted((c, str(r)) for c, r in vm.items())))
        back = cocycle_of_map(fs, k, mat, vm)
        for cid in fs.cells.get(1, []):
            assert back[cid] == values[cid]
    expected = order if space == "s1" else order ** 2
    assert count_valid == expected
    # distinct cocycles give distinct maps
    assert len(set(maps)) == count_valid


@pytest.mark.parametrize("order", [2, 4])
def test_every_simplicial_map_comes_from_a_cocycle(order):
    # brute force over all candidate value tables on the 2-simplex:
    # exactly the cocycles survive the simplicial map validation
    a = cyclic(order)
    fs = delta2_gx().space
    k = CocycleModel(a, 1, fs.truncation)
    mat = materialize_cocycles(k)
    target = mat.complex
    v_ref = mat.ref_of(0, k.levels[0].elements()[0])
    refs1 = [mat.ref_of(1, el) for el in k.levels[1].elements()]
    refs2 = [mat.ref_of(2, el) for el in k.levels[2].elements()]
    edges = sorted(fs.cells[1])
    tri = fs.cells[2][0]
    found = 0
    for combo in itertools.product(refs1, repeat=3):
        for top in refs2:
            values = {vid: v_ref for vid in fs.cells[0]}
            values.update(zip(edges, combo))
            values[tri] = top
            try:
                SimplicialMap(fs, target, values)
            except ValueError:
                continue
            found += 1
    assert found == order ** 2
