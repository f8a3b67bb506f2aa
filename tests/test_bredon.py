"""Bredon cochains, twisted coboundaries, and known cohomology."""

import pytest

from eqtwist.abgroups import AbHom, FgAbGroup
from eqtwist.bredon import (
    EquivariantCochains,
    TrivialTwistProvider,
    coboundary,
    twisted_complex,
    twisted_coboundary,
    untwisted_complex,
)
from eqtwist.equivariant import GSimplicialSet
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.intmat import IntMatrix
from eqtwist.simplicial import SimplexRef, nondeg

from helpers import (
    ACTION_SPACES,
    circle_gx,
    constant_setup,
    delta2_gx,
    evaluate_cochain,
    nonconstant_system,
    normal_forms,
    refs1_gx,
    refs1_setup,
    s1_twisted,
    s1_untwisted,
    sphere2_gx,
    torus_gx,
    triangle_kappa,
)

Z = FgAbGroup.from_relations(1, [[0]])
Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.from_relations(1, [[4]])


def trivial_setup(gx, coeff):
    cat, system = constant_setup(gx, coeff)
    return gx, cat, system, TrivialTwistProvider(system)


def test_circle_integral_cohomology():
    assert normal_forms(*s1_untwisted(Z), 2) == [(1, ()), (1, ()), (0, ())]


def test_two_sphere_integral_cohomology():
    forms = normal_forms(*trivial_setup(sphere2_gx(), Z), 2)
    assert forms == [(1, ()), (0, ()), (1, ())]


def test_standard_simplex_is_acyclic():
    forms = normal_forms(*trivial_setup(delta2_gx(), Z), 2)
    assert forms == [(1, ()), (0, ()), (0, ())]


def test_circle_sign_local_system_on_z():
    assert normal_forms(*s1_twisted(Z), 1) == [(0, ()), (0, (2,))]


def test_circle_sign_local_system_on_z4():
    assert normal_forms(*s1_twisted(Z4), 1) == [(0, (2,)), (0, (2,))]


def test_circle_sign_twist_through_z4_structure_group():
    # the loop goes to the order 4 generator, acting through the sign
    assert normal_forms(*s1_twisted(Z, order=4), 1) == [(0, ()), (0, (2,))]


def test_reflection_circle_bredon_cohomology():
    assert normal_forms(*refs1_setup(Z), 1) == [(1, ()), (0, ())]


def test_reflection_circle_forgotten_to_the_trivial_group():
    space = refs1_gx().space
    gx = GSimplicialSet(space, FiniteGroup.cyclic(1), {})
    assert normal_forms(*trivial_setup(gx, Z), 1) == [(1, ()), (1, ())]


def test_triangle_holonomy_coboundary_matrix():
    gx, cat, system, provider = triangle_kappa(Z)
    ec = EquivariantCochains(gx, cat, system, 2)
    assert [o.rep for o in ec.orbits[0]] == ["v0", "v1", "v2"]
    assert [o.rep for o in ec.orbits[1]] == ["e01", "e02", "e12"]
    d0 = twisted_coboundary(ec, provider, 0)
    assert [list(r) for r in d0.matrix.rows] == [
        [-1, 1, 0],
        [-1, 0, 1],
        [0, -1, -1],
    ]


def test_triangle_holonomy_cohomology():
    assert normal_forms(*triangle_kappa(Z), 2) == [
        (0, ()), (0, (2,)), (0, ())]


def _setups():
    yield s1_twisted(Z)
    yield s1_twisted(Z4)
    yield s1_twisted(Z, order=4)
    yield triangle_kappa(Z)
    yield triangle_kappa(Z4)
    yield refs1_setup(Z)
    yield trivial_setup(sphere2_gx(), Z4)


def test_twisted_coboundaries_square_to_zero():
    for gx, cat, system, provider in _setups():
        ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
        cc = twisted_complex(ec, provider)
        for n in range(len(cc.diffs) - 1):
            assert cc.diffs[n + 1].compose(cc.diffs[n]).is_zero_map


def test_untwisted_complex_known_answers():
    cases = [(refs1_setup(Z), [(1, ()), (0, ())]),
             (s1_untwisted(Z4), [(0, (4,)), (0, (4,))])]
    for (gx, cat, system, _provider), want in cases:
        ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
        cc = untwisted_complex(ec)
        assert [cc.cohomology(n).group.normal_form()
                for n in range(2)] == want


def test_evaluate_cochain_reads_components():
    gx, cat, system, provider = s1_untwisted(Z)
    ec = EquivariantCochains(gx, cat, system, 2)
    assert evaluate_cochain(ec, 0, (5,), "e", nondeg("v")) == (5,)
    assert evaluate_cochain(ec, 1, (3,), "e", nondeg("e")) == (3,)
    # normalized cochains vanish on degenerate simplices
    assert evaluate_cochain(ec, 1, (3,), "e", SimplexRef((0,), "v")) == (0,)


def test_the_six_by_six_torus():
    gx = torus_gx(6, 6)
    cells = gx.space.cells
    assert [len(cells[q]) for q in range(3)] == [36, 108, 72]
    assert sum((-1) ** q * len(ids) for q, ids in cells.items()) == 0
    z2 = FgAbGroup.from_relations(1, [[2]])
    for coeff, want in [(Z, [(1, ()), (2, ()), (1, ())]),
                        (z2, [(0, (2,)), (0, (2, 2)), (0, (2,))])]:
        cat, system = constant_setup(gx, coeff)
        ec = EquivariantCochains(gx, cat, system, 3)
        cc = untwisted_complex(ec)
        assert [cc.cohomology(n).group.normal_form()
                for n in range(3)] == want


def _constant(space, coeff):
    def build():
        gx = space()
        return (gx, *constant_setup(gx, coeff))
    return build


def _refs1_doubling():
    gx = refs1_gx()
    cat = OrbitCategory(gx.group)
    return gx, cat, nonconstant_system(cat, Z4, Z2, [[2]])


# each complex of ACTION_SPACES with Z, Z/2 and Z/4 coefficients, and
# the reflection circle with a restriction that doubles
COBOUNDARY_CASES = {f"{name} {coeff.describe()}": _constant(space, coeff)
                    for name, space in ACTION_SPACES.items()
                    for coeff in (Z, Z2, Z4)}
COBOUNDARY_CASES["refs1 doubling"] = _refs1_doubling


class _Reads(dict):
    """A dict that records the key of every read by index."""

    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("case", sorted(COBOUNDARY_CASES))
def test_the_untwisted_coboundary_composes_nothing(monkeypatch, case):
    # the cochains measured are the second set on their complex, so they
    # resolve no face: they read the faces the first set resolved.  The
    # coboundaries they must give come from a fresh copy of the complex.
    gx, cat, system = COBOUNDARY_CASES[case]()
    first = EquivariantCochains(gx, cat, system, gx.space.truncation)
    for n in range(first.nmax):
        coboundary(first, n)
    ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
    fresh = EquivariantCochains(*COBOUNDARY_CASES[case](),
                                gx.space.truncation)
    trivial = TrivialTwistProvider(fresh.system)
    for n in range(ec.nmax):
        want = twisted_coboundary(fresh, trivial, n)
        products, homs, faces = [], [], []
        real_product, real_hom = IntMatrix.__matmul__, AbHom.__init__

        def product(a, b):
            products.append((a, b))
            return real_product(a, b)

        def hom(self, *args, **kwargs):
            homs.append(self)
            real_hom(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(IntMatrix, "__matmul__", product)
            m.setattr(AbHom, "__init__", hom)
            m.setattr(gx.space, "face_table",
                      _Reads(gx.space.face_table, faces))
            got = coboundary(ec, n)
        # the one hom built is the coboundary itself
        assert products == []
        assert homs == [got]
        assert faces == []
        assert got.matrix == want.matrix


def test_cochains_of_the_four_by_four_torus_run_no_elimination(snf_calls):
    gx = torus_gx(4, 4)
    cat, system = constant_setup(gx, Z2)
    snf_calls.clear()
    ec = EquivariantCochains(gx, cat, system, 3)
    assert [ec.groups[n].ngens for n in range(4)] == [16, 48, 32, 0]
    assert snf_calls == []
