"""Twisting functions, twisted products, classifying maps.

The canonical twist on the classifying complex must satisfy the
twisting identities for each structure group, the twisted product must
be a simplicial set, and simpliciality of the induced classifying map
must be equivalent to the identities.
"""

import pytest

from eqtwist.classifying import SimplicialFiniteGroup, classifying_complex
from eqtwist.groups import FiniteGroup
from eqtwist.simplicial import nondeg, standard_simplex
from eqtwist.twisting import GroupTwist, classifying_map

from helpers import circle_gx, trivial_twist
from verification import classifying_twist, projection_right, total_complex

STRUCTURE_GROUPS = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4),
                    FiniteGroup.symmetric3()]


@pytest.mark.parametrize("pi", STRUCTURE_GROUPS,
                         ids=["Z2", "Z4", "S3"])
def test_canonical_twist_satisfies_identities(pi):
    trunc = 4
    sg = SimplicialFiniteGroup.constant(pi, trunc)
    wbar = classifying_complex(sg, trunc)
    tau = classifying_twist(sg, wbar)
    values = {cid: tau(nondeg(cid))
              for q in range(1, trunc + 1)
              for cid in wbar.complex.cells[q]}
    # the constructor re-proves the twisting identities
    GroupTwist(wbar.complex, pi, values)


@pytest.mark.parametrize("pi", STRUCTURE_GROUPS,
                         ids=["Z2", "Z4", "S3"])
def test_twisted_product_is_simplicial(pi):
    trunc = 4
    sg = SimplicialFiniteGroup.constant(pi, trunc)
    pc, fiber, base = total_complex(sg, trunc)
    pc.complex.validate()
    # the base projection of a twisted product stays simplicial
    projection_right(pc).validate()


VALID_D2 = {"0-1": "t", "0-2": "t", "1-2": "e", "0-1-2": "t"}
INVALID_D2 = {"0-1": "t", "0-2": "e", "1-2": "e", "0-1-2": "e"}


def test_theta_simplicial_for_valid_twist():
    c2 = FiniteGroup.cyclic(2)
    d2 = standard_simplex(2)
    tw = GroupTwist(d2, c2, VALID_D2)
    sg = SimplicialFiniteGroup.constant(c2, 2)
    wbar = classifying_complex(sg, 2)
    classifying_map(d2, tw, wbar)

    s1 = circle_gx().space
    tw = GroupTwist(s1, c2, {"e": "t"})
    sg = SimplicialFiniteGroup.constant(c2, 3)
    wbar = classifying_complex(sg, 3)
    classifying_map(s1, tw, wbar)


def test_theta_breaks_for_planted_invalid_twist():
    c2 = FiniteGroup.cyclic(2)
    d2 = standard_simplex(2)
    # the identities reject the assignment outright
    with pytest.raises(ValueError):
        GroupTwist(d2, c2, INVALID_D2)
    # and the induced map to the classifying complex is not simplicial
    bad = GroupTwist(d2, c2, INVALID_D2, check=False)
    sg = SimplicialFiniteGroup.constant(c2, 2)
    wbar = classifying_complex(sg, 2)
    with pytest.raises(ValueError):
        classifying_map(d2, bad, wbar)


def test_degenerate_references_twist_trivially():
    c2 = FiniteGroup.cyclic(2)
    s1 = circle_gx().space
    tw = GroupTwist(s1, c2, {"e": "t"})
    from eqtwist.simplicial import SimplexRef
    # an innermost s_0 kills the twist
    assert tw.value(SimplexRef((0,), "v")) == "e"
    assert tw.value(SimplexRef((1, 0), "v")) == "e"
    # outer degeneracies keep the base value
    assert tw.value(SimplexRef((1,), "e")) == "t"
    assert tw.value(nondeg("e")) == "t"


def test_trivial_twist_always_valid():
    for pi in STRUCTURE_GROUPS:
        s1 = circle_gx().space
        trivial_twist(s1, pi).validate()
