"""Finite groups, subgroup lattices, and the orbit category."""

import pytest
from hypothesis import given, strategies as st

from eqtwist.groups import (FiniteGroup, OrbitCategory, all_subgroups,
                            subgroup_key)

from helpers import (abelian, dihedral, permutation_group, quaternion8,
                     reference_all_subgroups, reference_closure,
                     reference_orbit_category, symmetric4)


def test_cyclic_groups():
    c4 = FiniteGroup.cyclic(4)
    assert c4.order == 4
    g = c4.names[1]
    assert c4.mul(g, c4.mul(g, c4.mul(g, g))) == c4.identity
    assert c4.inv(g) == c4.mul(g, c4.mul(g, g))


def test_symmetric3():
    s3 = FiniteGroup.symmetric3()
    assert s3.order == 6
    # count elements by order
    orders = sorted(
        next(k for k in range(1, 7)
             if _power(s3, n, k) == s3.identity)
        for n in s3.names)
    assert orders == [1, 2, 2, 2, 3, 3]


def _power(g, n, k):
    out = g.identity
    for _ in range(k):
        out = g.mul(out, n)
    return out


def test_subgroup_lattice_sizes():
    assert len(all_subgroups(FiniteGroup.trivial())) == 1
    assert len(all_subgroups(FiniteGroup.cyclic(2))) == 2
    assert len(all_subgroups(FiniteGroup.cyclic(4))) == 3
    # S3: trivial, three reflections, one rotation, whole group
    assert len(all_subgroups(FiniteGroup.symmetric3())) == 6


REFERENCE_GROUPS = {
    **{f"C{n}": lambda n=n: FiniteGroup.cyclic(n) for n in range(1, 13)},
    "S3": FiniteGroup.symmetric3,
    **{f"D{n}": lambda n=n: dihedral(n) for n in range(3, 7)},
    "C2^3": lambda: abelian(2, 2, 2),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_cyclic_extension_agrees_with_closing_every_subset(name):
    grp = REFERENCE_GROUPS[name]()
    assert [(s.order, s.key) for s in all_subgroups(grp)] == \
        reference_all_subgroups(grp)


# subgroup counts beyond the reach of the subset closure
COUNTED_GROUPS = {
    "C2^3": (lambda: abelian(2, 2, 2), 16),
    "Q8": (quaternion8, 6),
    "C4xC4": (lambda: abelian(4, 4), 15),
    "D8": (lambda: dihedral(8), 19),
    "S4": (symmetric4, 30),
}


@pytest.mark.parametrize("name", sorted(COUNTED_GROUPS))
def test_known_subgroup_counts(name):
    build, count = COUNTED_GROUPS[name]
    grp = build()
    subgroups = all_subgroups(grp)
    assert len(subgroups) == count
    assert len({s.members for s in subgroups}) == count
    for s in subgroups:
        assert grp.identity in s.members
        assert {grp.mul(a, b) for a in s.members for b in s.members} \
            <= s.members
    assert [(s.order, s.key) for s in subgroups] == \
        sorted((s.order, s.key) for s in subgroups)


S4 = symmetric4()
S4_SUBGROUPS = {s.members for s in all_subgroups(S4)}


@given(st.sets(st.sampled_from(S4.names), max_size=4))
def test_every_generated_subgroup_of_s4_is_listed(gens):
    assert reference_closure(S4, gens) in S4_SUBGROUPS


def test_orbit_category_composition_closes():
    for grp in (FiniteGroup.cyclic(2), FiniteGroup.symmetric3()):
        cat = OrbitCategory(grp)
        mors = cat.all_morphisms()
        keys = {m.key for m in mors}
        for f in mors:
            for h in mors:
                if f.src.key != h.tgt.key:
                    continue
                assert cat.compose(h, f).key in keys


def test_coset_morphism_endpoints():
    cat = OrbitCategory(FiniteGroup.cyclic(2))
    triv = cat.by_key["e"]
    whole = cat.by_key["e,t"]
    m = cat.coset_morphism(triv, whole, "e")
    assert m.src.key == "e" and m.tgt.key == "e,t"
    flip = cat.coset_morphism(triv, triv, "t")
    assert flip.src.key == "e" and flip.tgt.key == "e"
    assert not flip.is_identity()


def test_subgroup_keys_sorted():
    assert subgroup_key({"t", "e"}) == "e,t"


def _relabelled_s3():
    # S_3 with its identity at index 3, so that the least index of a
    # coset need not be the identity's
    s3 = FiniteGroup.symmetric3()
    order = [3, 1, 4, 0, 5, 2]  # new index -> old index
    new = {old: k for k, old in enumerate(order)}
    return FiniteGroup([s3.names[o] for o in order],
                       [[new[s3.table[a][b]] for b in order] for a in order])


ORBIT_GROUPS = {
    **REFERENCE_GROUPS,
    "S3-relabelled": _relabelled_s3,
    "Q8": quaternion8,
    "C4xC4": lambda: abelian(4, 4),
    "S4": symmetric4,
}


@pytest.mark.parametrize("name", sorted(ORBIT_GROUPS))
def test_orbit_category_agrees_with_the_name_level_construction(name):
    grp = ORBIT_GROUPS[name]()
    cat, ref = OrbitCategory(grp), reference_orbit_category(grp)
    keys = [s.key for s in cat.subgroups]
    assert keys == [s.key for s in ref.subgroups]
    for h in keys:
        for k in keys:
            assert [m.key for m in cat.hom(h, k)] == \
                [m.key for m in ref.hom(h, k)]
    assert [(m.key, m.coset) for m in cat.all_morphisms()] == \
        [(m.key, m.coset) for m in ref.all_morphisms()]
    for k in keys:
        assert cat.identity(k).key == ref.identity(k).key
    for f in cat.all_morphisms():
        for tgt in keys:
            for h in cat.hom(f.tgt.key, tgt):
                assert cat.compose(f, h).key == ref.compose(f, h).key
    for src in cat.subgroups:
        for tgt in cat.subgroups:
            for g in grp.names:
                try:
                    want = ref.coset_morphism(src, tgt, g).key
                except KeyError:
                    with pytest.raises(KeyError):
                        cat.coset_morphism(src, tgt, g)
                else:
                    assert cat.coset_morphism(src, tgt, g).key == want


@pytest.mark.parametrize("name", sorted(ORBIT_GROUPS))
def test_composites_are_the_composable_pairs_in_order(name):
    cat = OrbitCategory(ORBIT_GROUPS[name]())
    keys = [s.key for s in cat.subgroups]
    # every subgroup's key, none, and every other one
    for ends in (set(keys), set(), set(keys[::2])):
        want = [(f.key, h.key, cat.compose(f, h).key)
                for f, h in cat.composable_pairs() if h.tgt.key in ends]
        assert [(f.key, h.key, hf.key)
                for f, h, hf in cat.composites(ends)] == want


def test_orbit_category_of_s4_x_c2_counts_cosets():
    grp = permutation_group((1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5),
                            (0, 1, 2, 3, 5, 4))
    assert grp.order == 48
    cat = OrbitCategory(grp)
    trivial, whole = cat.subgroups[0].key, cat.subgroups[-1].key
    assert (len(cat.by_key[trivial].members),
            len(cat.by_key[whole].members)) == (1, 48)
    for s in cat.subgroups:
        assert len(cat.hom(trivial, s.key)) == 48 // s.order
        assert len(cat.hom(s.key, whole)) == 1
