"""Coboundary assembly and unit-block reduction against the references
that built a list of placed blocks, sliced target rows, found each orbit
morphism by element name and cancelled in closures over every degree.

The coboundaries must be the same matrices on every complex with an
action, with Z, Z/2, Z/4 and, over C_2, a `values` system, untwisted,
under a group twist and under edge-path transport; `assemble_hom` must
agree on generated block lists whose keys repeat and cancel, and refuse
a misfit block with the same message.  The reduction must cancel the
same blocks in the same order: the same relations, reduced coboundaries,
kept generators and inclusion, on tori, classifying complexes and the
complexes with an action.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from eqtwist.abgroups import (FgAbGroup, ReducedComplex, assemble_hom,
                              direct_sum)
from eqtwist.bredon import (EquivariantCochains, GroupTwistProvider,
                            twisted_coboundary, untwisted_complex)
from eqtwist.coefficients import CoefficientSystem
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.intmat import IntMatrix

from helpers import (ACTION_SPACES, ReferenceReducedComplex, bar_complex,
                     constant_setup, edge_path_provider,
                     reference_assemble_hom, reference_from_blocks,
                     reference_twisted_coboundary, sign_local_system,
                     sign_twist, torus_gx)
from test_cli import C2_VALUES

COEFFS = {"Z": FgAbGroup.free(1), "Z2": FgAbGroup.cyclic(2),
          "Z4": FgAbGroup.cyclic(4)}


def _systems(gx):
    """The coefficient systems of gx by name: constant Z, Z/2 and Z/4,
    and C2_VALUES where the group is C_2."""
    cat = OrbitCategory(gx.group)
    out = {name: CoefficientSystem.constant(cat, coeff)
           for name, coeff in COEFFS.items()}
    if gx.group.names == ["e", "t"]:
        out["C2 values"] = CoefficientSystem.from_json(cat, C2_VALUES)
    return cat, out


# every complex with an action, each coefficient system it carries
ASSEMBLY_CASES = [(space, coeffs) for space in sorted(ACTION_SPACES)
                  for coeffs in sorted(_systems(ACTION_SPACES[space]())[1])]
# the complexes with edge-path transport: a free action leaves no
# basepoint, and the reflection of the circle fixes two vertices that no
# fixed edge joins
EDGE_PATH_SPACES = {"delta2.json", "s1.json", "sphere2.json",
                    "triangle.json"}


@pytest.mark.parametrize("space,coeffs", ASSEMBLY_CASES)
def test_coboundaries_match_the_reference_assembly(space, coeffs):
    gx = ACTION_SPACES[space]()
    cat, systems = _systems(gx)
    system = systems[coeffs]
    twist = sign_twist(gx)
    providers = [None, GroupTwistProvider(
        sign_local_system(system, twist.pi, -1), twist, gx=gx)]
    edge = edge_path_provider(gx, cat, system)
    assert (edge is not None) == (space in EDGE_PATH_SPACES)
    if edge is not None:
        providers.append(edge)
    ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
    for provider in providers:
        for n in range(ec.nmax):
            assert twisted_coboundary(ec, provider, n).matrix == \
                reference_twisted_coboundary(ec, provider, n).matrix, n


@st.composite
def block_lists(draw):
    """Two direct sums and blocks between them; keys repeat, and a block
    is followed by its negative one time in three."""
    sizes = st.lists(st.integers(0, 3), min_size=1, max_size=4)
    rows, cols = draw(sizes), draw(sizes)
    entries = st.integers(-3, 3)
    blocks = []
    for _ in range(draw(st.integers(0, 10))):
        ti = draw(st.integers(0, len(rows) - 1))
        sj = draw(st.integers(0, len(cols) - 1))
        b = IntMatrix([[draw(entries) for _ in range(cols[sj])]
                       for _ in range(rows[ti])], cols[sj])
        blocks.append(((ti, sj), b))
        if draw(st.integers(0, 2)) == 0:
            blocks.append(((ti, sj), -b))
    return (direct_sum([FgAbGroup.free(k) for k in cols]),
            direct_sum([FgAbGroup.free(k) for k in rows]), blocks)


@given(block_lists())
def test_assemble_hom_matches_the_reference(case):
    source, target, blocks = case
    got = assemble_hom(source, target, iter(blocks))
    assert got.matrix == reference_assemble_hom(source, target, blocks).matrix
    assert (got.source, got.target) == (source, target)


def _raised(build) -> str:
    with pytest.raises(ValueError) as ex:
        build()
    return str(ex.value)


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (0, 1)])
def test_a_misfit_block_is_refused_as_before(shape):
    z = FgAbGroup.free(1)
    source, target = direct_sum([z, z]), direct_sum([z, z])
    good = ((0, 1), IntMatrix([[1]]))
    bad = ((1, 0), IntMatrix([[1] * shape[1]] * shape[0], shape[1]))
    for blocks in ([bad], [good, bad], [bad, good]):
        assert _raised(lambda: assemble_hom(source, target, blocks)) == \
            _raised(lambda: reference_assemble_hom(source, target, blocks)) \
            == "block shape mismatch"


@pytest.mark.parametrize("r,c", [(2, 0), (0, 3), (2, 2), (1, 3)])
def test_an_overhanging_block_is_refused_as_before(r, c):
    block = IntMatrix([[1, 2], [3, 4]])
    placed = [(0, 0, block), (r, c, block)]
    assert _raised(lambda: IntMatrix.from_blocks(3, 4, placed)) == \
        _raised(lambda: reference_from_blocks(3, 4, placed)) == \
        "block does not fit"


# the reduction -------------------------------------------------------

@functools.cache
def _complex(name: str):
    kind, *args = name.split()
    if kind == "torus":
        return torus_gx(*map(int, args[0].split("x")))
    if kind == "WC":
        return bar_complex(FiniteGroup.cyclic(int(args[0])), int(args[1]))
    if kind == "WS3":
        return bar_complex(FiniteGroup.symmetric3(), int(args[0]))
    return ACTION_SPACES[" ".join(args)]()


# a x b tori, W-bar C_m at T <= 4, W-bar S_3 at T = 4 and the complexes
# with an action, by name
REDUCED = [f"torus {a}x{b}" for a in range(3, 7) for b in range(3, 7)] + \
    [f"WC {m} {t}" for m in range(2, 7) for t in range(1, 5)] + \
    ["WS3 4"] + [f"action {name}" for name in sorted(ACTION_SPACES)]


def assert_same_reduction(cc):
    got = ReducedComplex(cc.groups, cc.diffs)
    want = ReferenceReducedComplex(cc.groups, cc.diffs)
    assert got.rels == want.rels
    assert got.diffs == want.diffs
    assert got._kept == want._kept
    assert got._steps == want._steps
    for n, rels in enumerate(want.rels):
        for i in range(rels.nrows):
            unit = [int(j == i) for j in range(rels.nrows)]
            assert got.include(n, unit) == want.include(n, unit), (n, i)


@pytest.mark.parametrize("coeff", sorted(COEFFS))
@pytest.mark.parametrize("name", REDUCED)
def test_reduction_matches_the_reference(name, coeff):
    gx = _complex(name)
    cat, system = constant_setup(gx, COEFFS[coeff])
    ec = EquivariantCochains(gx, cat, system, gx.space.truncation)
    assert_same_reduction(untwisted_complex(ec))


def test_reduction_of_blocks_of_several_generators_matches_the_reference():
    # Z + Z/2 on the 3 x 3 torus: every unit block is 2 x 2
    z_z2 = FgAbGroup.from_relations(2, [[0], [2]])
    gx = torus_gx(3, 3)
    cat, system = constant_setup(gx, z_z2)
    cc = untwisted_complex(EquivariantCochains(gx, cat, system,
                                               gx.space.truncation))
    assert_same_reduction(cc)
