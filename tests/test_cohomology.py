"""Cohomology of whole complexes against a reference and two oracles.

The package's `CochainComplex.cohomology` must agree with the
kernel-presenting reference of `helpers`, over the bundled fixtures and
small tori: the same normal form, representatives that are cocycles,
and an explicit isomorphism onto the reference's group.  On the polygon and torus families
over the trivial group, the Euler characteristic and the universal
coefficient theorem must hold.  Over a group twist, the twisted
cohomology of a complex must be the untwisted Bredon cohomology of its
covering space.  With constant coefficients, the Bredon cohomology of a
complex with an action must be the cohomology of its orbit space.
"""

import math

import pytest

from eqtwist.abgroups import AbHom, FgAbGroup
from eqtwist.bredon import (EquivariantCochains, twisted_complex,
                            untwisted_complex)
from eqtwist.equivariant import GSimplicialSet
from eqtwist.fixtures import fixture_path, load_setup
from eqtwist.groups import FiniteGroup
from eqtwist.intmat import IntMatrix, solve

from helpers import (abelian, bar_complex, constant_setup, dihedral,
                     dihedral_polygon, load_gx, ngon_space, ngon_twisted,
                     normal_forms, orbit_space, reference_cohomology_at,
                     rotated_ngon, s3_polygon, times_polygon, torus_gx,
                     trivial_action, twisted_cover)

COEFFS = {"Z": FgAbGroup.free(1), "Z2": FgAbGroup.cyclic(2),
          "Z4": FgAbGroup.cyclic(4)}

# complex, twist, action: each bundled complex untwisted, and each
# bundled twist of the circle and the triangle, with and without the
# action file it loads with
FIXTURE_SETUPS = [
    ("delta2.json", None, None),
    ("refs1.json", None, None),
    ("s1.json", None, None),
    ("sphere0.json", None, None),
    ("sphere2.json", None, None),
    ("triangle.json", None, None),
    ("s1.json", "twist_s1_z2.json", None),
    ("s1.json", "twist_s1_z2.json", "action_s1_z2_sign.json"),
    ("s1.json", "twist_s1_z4.json", None),
    ("s1.json", "twist_s1_z4.json", "action_s1_z4_sign.json"),
    ("triangle.json", "twist_triangle.json", "action_triangle.json"),
]


def assert_matches_reference(cc):
    """Each H^n of cc has the reference's normal form, its
    representatives are cocycles, and writing them in the reference's
    generators is an isomorphism onto the reference's group."""
    for n, at in enumerate(cc.groups):
        incoming = cc.diffs[n - 1] if n else None
        outgoing = cc.diffs[n] if n < len(cc.diffs) else None
        got = cc.cohomology(n)
        want = reference_cohomology_at(at, incoming, outgoing)
        assert got.group.normal_form() == want.group.normal_form(), n
        for v in got.rep_vectors:
            assert outgoing is None or not any(
                outgoing.target.from_vector(outgoing.matrix.apply(v))), n
        kref = IntMatrix.from_cols(want.rep_vectors, at.ngens)
        pieces = [kref] + ([incoming.matrix] if incoming else []) + [at.rels]
        ys = solve(IntMatrix.hstack(pieces),
                   IntMatrix.from_cols(got.rep_vectors, at.ngens))
        assert ys is not None, n
        iso = AbHom(got.group, want.group, ys.top(kref.ncols), check=True)
        assert iso.is_iso(), n


@pytest.mark.parametrize("coeffs", ["z", "z2", "z4"])
@pytest.mark.parametrize("space,twist,action", FIXTURE_SETUPS)
def test_fixture_cohomology_matches_the_reference(space, twist, action,
                                                  coeffs):
    setup = load_setup(*(None if f is None else str(fixture_path(f))
                         for f in (space, f"coeffs_{coeffs}.json", twist,
                                   action)))
    ec = EquivariantCochains(setup.gx, setup.cat, setup.system,
                             setup.gx.space.truncation)
    if twist is None:
        assert_matches_reference(untwisted_complex(ec))
    else:
        assert_matches_reference(twisted_complex(ec, setup.provider))


@pytest.mark.parametrize("coeff", sorted(COEFFS))
def test_torus_cohomology_matches_the_reference(coeff):
    for a in range(1, 5):
        for b in range(1, 5):
            gx = torus_gx(a, b)
            cat, system = constant_setup(gx, COEFFS[coeff])
            ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
            assert_matches_reference(untwisted_complex(ec))


def test_blocks_of_several_generators_cancel_whole():
    # with Z + Z/2 every cell carries two generators and every unit block
    # is 2 x 2; with the trivial group there is nothing to cancel
    z_z2 = FgAbGroup.from_relations(2, [[0], [2]])
    for coeff, kept in ((z_z2, [2, 4, 2, 0]), (FgAbGroup.trivial(), None)):
        gx = torus_gx(3, 3)
        cat, system = constant_setup(gx, coeff)
        cc = untwisted_complex(EquivariantCochains(gx, cat, system,
                                                   gx.space.truncation))
        assert_matches_reference(cc)
        reduced = cc.reduced()
        if kept is None:
            assert reduced.rels == [g.rels for g in cc.groups]
        else:
            assert [rels.nrows for rels in reduced.rels] == kept


def test_torus_cohomology_eliminates_only_the_reduced_complex(eliminations):
    # the 4x4 torus has 16, 48 and 32 cells; its unit blocks cancel down
    # to one, two and one, where the full terms took a 48 x 112 kernel
    gx = torus_gx(4, 4)
    cat, system = constant_setup(gx, COEFFS["Z2"])
    cc = untwisted_complex(EquivariantCochains(gx, cat, system,
                                               gx.space.truncation))
    for calls in eliminations.values():
        calls.clear()
    assert [cc.cohomology(n).group.normal_form() for n in range(3)] == \
        [(0, (2,)), (0, (2, 2)), (0, (2,))]
    shapes = eliminations["snf"] + eliminations["kernel_basis"]
    assert shapes and max(rows for rows, _cols in shapes) <= 4
    # one Smith normal form per degree, the one that presents H: the
    # reduced terms are matrices, and nothing presents them
    assert len(eliminations["snf"]) == 3


def test_bar_complex_cohomology_presents_only_cyclic_groups(eliminations):
    # W-bar C_6 at T=4 with Z/2: every H^n is Z/2 on one generator, and
    # no reduced term, however large, is presented
    gx = bar_complex(abelian(6), 4)
    cat, system = constant_setup(gx, COEFFS["Z2"])
    cc = untwisted_complex(EquivariantCochains(gx, cat, system, 4))
    for calls in eliminations.values():
        calls.clear()
    assert [cc.cohomology(n).group.normal_form() for n in range(4)] == \
        [(0, (2,))] * 4
    assert eliminations["snf"]
    assert max(max(shape) for shape in eliminations["snf"]) <= 1


REDUCED_TO_ZERO = {
    "4x4 torus": (lambda: torus_gx(4, 4), [(0, (2,)), (0, (2, 2)), (0, (2,))]),
    "W-bar C6 at T=4": (lambda: bar_complex(abelian(6), 4), [(0, (2,))] * 3),
}


@pytest.mark.parametrize("name", sorted(REDUCED_TO_ZERO))
def test_a_coboundary_reduced_to_no_entry_runs_no_kernel(name, eliminations):
    # with Z/2 the unit blocks of both complexes cancel down to
    # coboundaries with no entry: zero maps, so each H^n is its reduced
    # term, presented by that term's own relations
    build, want = REDUCED_TO_ZERO[name]
    gx = build()
    cat, system = constant_setup(gx, COEFFS["Z2"])
    cc = untwisted_complex(EquivariantCochains(gx, cat, system,
                                               gx.space.truncation))
    assert all(not any(d.sparse) for d in cc.reduced().diffs)
    for calls in eliminations.values():
        calls.clear()
    assert [cc.cohomology(n).group.normal_form() for n in range(3)] == want
    assert eliminations["kernel_basis"] == []
    assert len(eliminations["snf"]) == 3


# group cohomology on the classifying complex W-bar pi, degrees 0..3 of
# the truncation at 4, where (|pi| - 1)^q cells in degree q fill in as
# their unit blocks cancel; the reference runs where |pi| <= 4

BAR_CASES = [(f"C{m} Z", abelian(m), "Z",
              [(1, ()), (0, ()), (0, (m,)), (0, ())]) for m in range(2, 7)] + [
    ("C6 Z2", abelian(6), "Z2", [(0, (2,))] * 4),
    ("S3 Z", dihedral(3), "Z", [(1, ()), (0, ()), (0, (2,)), (0, ())]),
]


@pytest.mark.parametrize("name,pi,coeff,want", BAR_CASES,
                         ids=[c[0] for c in BAR_CASES])
def test_group_cohomology_of_the_bar_complex(name, pi, coeff, want):
    gx = bar_complex(pi, 4)
    cat, system = constant_setup(gx, COEFFS[coeff])
    cc = untwisted_complex(EquivariantCochains(gx, cat, system, 4))
    assert [cc.cohomology(n).group.normal_form() for n in range(4)] == want
    if len(pi.names) <= 4:
        assert_matches_reference(cc)


# generated families: oracles over the trivial group -------------------

def ngon_gx(n: int) -> GSimplicialSet:
    return GSimplicialSet(ngon_space(n), FiniteGroup.trivial(), {})


FAMILY = [(f"{n}-gon", ngon_gx(n)) for n in range(3, 9)] + \
    [(f"{a}x{b} torus", torus_gx(a, b)) for a in (3, 4) for b in (3, 4)]


def cohomology_forms(gx, coeff: FgAbGroup) -> list[tuple[int, tuple]]:
    """H^0.. of X with constant coefficients, up to one degree above
    the top cell, where it vanishes."""
    cat, system = constant_setup(gx, coeff)
    ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
    assert ec.nmax >= gx.space.dimension
    cc = untwisted_complex(ec)
    return [cc.cohomology(n).group.normal_form()
            for n in range(ec.nmax + 1)] + [(0, ())]


def cyclic_sum(orders: list[int]) -> FgAbGroup:
    return FgAbGroup.from_relations(
        len(orders), [[m if i == j else 0 for j in range(len(orders))]
                      for i, m in enumerate(orders)])


@pytest.mark.parametrize("name,gx", FAMILY, ids=[n for n, _ in FAMILY])
def test_euler_characteristic_and_universal_coefficients(name, gx):
    integral = cohomology_forms(gx, FgAbGroup.free(1))
    cells = gx.space.cells
    assert sum((-1) ** n * rank for n, (rank, _t) in enumerate(integral)) \
        == sum((-1) ** q * len(ids) for q, ids in cells.items())
    for m in (2, 3, 4):
        # H^n(X; Z/m) = H^n(X; Z) (x) Z/m  +  Tor(H^{n+1}(X; Z), Z/m)
        want = []
        for (rank, torsion), (_r, torsion_up) in zip(integral, integral[1:]):
            orders = [m] * rank + [math.gcd(t, m) for t in torsion + torsion_up]
            want.append(cyclic_sum(orders).normal_form())
        assert cohomology_forms(gx, FgAbGroup.cyclic(m))[:-1] == want, m


# the circle's group twists, with and without their sign actions
S1_TWISTS = [t for t in FIXTURE_SETUPS if t[0] == "s1.json" and t[1]]
C3_ON_Z2 = ((0, -1), (1, -1))


def assert_cover_agrees(gx, cat, system, provider, group_twist=None):
    """The cover of group_twist, provider itself by default, has the
    twisted cohomology of provider as its untwisted cohomology."""
    nmax = gx.space.dimension + 1
    assert normal_forms(*twisted_cover(gx, group_twist or provider),
                        nmax) == \
        normal_forms(gx, cat, system, provider, nmax)


@pytest.mark.parametrize("coeffs", ["z", "z2", "z4"])
@pytest.mark.parametrize("space,twist,action", S1_TWISTS)
def test_twisted_circle_is_its_cover(space, twist, action, coeffs):
    s = load_setup(fixture_path(space), fixture_path(f"coeffs_{coeffs}.json"),
                   fixture_path(twist),
                   fixture_path(action) if action else None)
    # with no action file the loader gives no twist, and the cover is
    # that of the circle's twist under the trivial action
    group_twist = s.provider or trivial_action(s.system, s.twist)
    assert_cover_agrees(s.gx, s.cat, s.system, s.provider, group_twist)


@pytest.mark.parametrize("coeff", sorted(COEFFS))
@pytest.mark.parametrize("n", range(3, 8))
def test_sign_twisted_polygon_is_its_cover(n, coeff):
    assert_cover_agrees(*ngon_twisted(n, COEFFS[coeff]))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_order_three_action_on_z2_is_its_cover(n):
    # the 1-gon is the circle; the generator acts without fixed vectors
    # and A - 1 has determinant 3.  A^-1 is conjugate to A in GL_2(Z),
    # so these normal forms cannot tell on which side tau acts
    setup = ngon_twisted(n, FgAbGroup.free(2), 3, C3_ON_Z2)
    assert normal_forms(*setup, 2) == [(0, ()), (0, (3,)), (0, ())]
    assert_cover_agrees(*setup)


# orbit spaces: with constant coefficients M, the Bredon cohomology of
# X is the cohomology of X/G with coefficients in M

ORBIT_SPACE_CASES = [(name, load_gx(name)) for name in
                     ("refs1.json", "sphere0.json")] + \
    [(f"C{n} {n}-gon", rotated_ngon(n)) for n in range(3, 7)] + \
    [(f"D{n} {2 * n}-gon", dihedral_polygon(n)) for n in range(3, 7)] + \
    [("S3 hexagon", s3_polygon()),
     ("C3 3-gon x 3-gon", times_polygon(rotated_ngon(3), 3)),
     ("D3 6-gon x 4-gon", times_polygon(dihedral_polygon(3), 4))]


@pytest.mark.parametrize("coeff", sorted(COEFFS))
@pytest.mark.parametrize("name,gx", ORBIT_SPACE_CASES,
                         ids=[c[0] for c in ORBIT_SPACE_CASES])
def test_constant_coefficients_see_the_orbit_space(name, gx, coeff):
    quotient = orbit_space(gx)
    assert sum(map(len, quotient.space.cells.values())) < \
        sum(map(len, gx.space.cells.values()))
    cat, system = constant_setup(gx, COEFFS[coeff])
    qcat, qsystem = constant_setup(quotient, COEFFS[coeff])
    assert normal_forms(gx, cat, system, None, 2) == \
        normal_forms(quotient, qcat, qsystem, None, 2)
