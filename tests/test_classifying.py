"""Classifying complexes, total complexes, and the contraction family."""

import pytest

from eqtwist.classifying import SimplicialFiniteGroup, classifying_complex
from eqtwist.groups import FiniteGroup
from eqtwist.simplicial import SimplexRef, nondeg

from verification import (basepoint_tuple, classifying_twist, contraction,
                          contraction_identities, group_complex,
                          projection_right, total_complex, total_elements,
                          total_face)


def test_classifying_level_counts():
    for order in (2, 4):
        pi = FiniteGroup.cyclic(order)
        sg = SimplicialFiniteGroup.constant(pi, 4)
        wbar = classifying_complex(sg, 4)
        for q in range(5):
            total = sum(1 for _ in wbar.complex.all_refs(q))
            assert total == order ** q
    s3 = SimplicialFiniteGroup.constant(FiniteGroup.symmetric3(), 3)
    wbar = classifying_complex(s3, 3)
    assert sum(1 for _ in wbar.complex.all_refs(3)) == 6 ** 3


def test_total_complex_level_counts():
    pi = FiniteGroup.cyclic(2)
    sg = SimplicialFiniteGroup.constant(pi, 3)
    for q in range(4):
        assert len(total_elements(sg, q)) == 2 ** (q + 1)


def test_classifying_complex_connected_single_vertex():
    sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 3)
    wbar = classifying_complex(sg, 3)
    assert len(wbar.complex.cells[0]) == 1


def test_classifying_twist_undefined_on_vertices():
    sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 2)
    wbar = classifying_complex(sg, 2)
    tau = classifying_twist(sg, wbar)
    vertex = wbar.complex.cells[0][0]
    with pytest.raises(ValueError):
        tau(nondeg(vertex))


@pytest.mark.parametrize("pi", [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4),
                                FiniteGroup.symmetric3()],
                         ids=["Z2", "Z4", "S3"])
def test_contraction_identities(pi):
    qmax = 3
    sg = SimplicialFiniteGroup.constant(pi, qmax + 2)
    contraction_identities(sg, qmax)


def test_contraction_collapses_to_basepoint():
    pi = FiniteGroup.cyclic(4)
    sg = SimplicialFiniteGroup.constant(pi, 4)
    for q in range(3):
        for t in total_elements(sg, q):
            top = contraction(sg, q, q, t)
            assert total_face(sg, q + 1, q + 1, top) == basepoint_tuple(sg, q)
            bottom = contraction(sg, 0, q, t)
            assert total_face(sg, 0, q + 1, bottom) == t


def test_group_complex_of_constant_group_is_a_point_tower():
    # in a constant simplicial group every positive simplex is degenerate
    sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 3)
    fiber = group_complex(sg, 3)
    assert len(fiber.complex.cells[0]) == 2
    for q in range(1, 4):
        assert fiber.complex.cells[q] == []


def test_total_complex_fibers_over_base():
    sg = SimplicialFiniteGroup.constant(FiniteGroup.cyclic(2), 3)
    pc, fiber, base = total_complex(sg, 3)
    pr = projection_right(pc)
    # fibers over the vertex: |pi| many vertices upstairs
    assert len(pc.complex.cells[0]) == 2
    pr.validate()
