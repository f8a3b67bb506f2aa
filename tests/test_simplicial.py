"""Simplicial sets with explicit degeneracy words: normal forms,
identities, products, cylinders."""

from hypothesis import given, strategies as st

from eqtwist.simplicial import (FiniteSimplicialSet, SimplexRef,
                                SimplicialMap, fmt_ref, insert_degeneracy,
                                nondeg, pair_normalize, parse_ref,
                                standard_simplex, valid_words, word_is_valid)

from helpers import circle_gx, triangle_gx
from verification import (cylinder_with_ends, product, projection_left,
                          projection_right)


def nondeg_counts(fs):
    return tuple(len(fs.cells[q]) for q in range(fs.truncation + 1))


def test_standard_simplex_counts_and_identities():
    d2 = standard_simplex(2)
    d2.validate()
    assert nondeg_counts(d2) == (3, 3, 1)
    d3 = standard_simplex(3)
    d3.validate()
    assert nondeg_counts(d3) == (4, 6, 4, 1)


def test_total_simplex_counts_match_yoneda():
    # q-simplices of Delta[n], degenerate ones included, biject with
    # monotone maps [q] -> [n]
    import math
    for n in (1, 2):
        dn = standard_simplex(n, truncation=4)
        for q in range(5):
            got = sum(1 for _ in dn.all_refs(q))
            want = math.comb(n + q + 1, q + 1)
            assert got == want


def test_face_identities_on_all_references():
    fs = standard_simplex(2, truncation=4)
    for q in range(2, 5):
        for ref in fs.all_refs(q):
            for j in range(1, q + 1):
                for i in range(j):
                    lhs = fs.face(i, fs.face(j, ref))
                    rhs = fs.face(j - 1, fs.face(i, ref))
                    assert lhs == rhs


def test_degeneracy_words_stay_normal():
    fs = circle_gx().space
    for q in range(4):
        for ref in fs.all_refs(q):
            assert word_is_valid(ref.word, fs.dim_of(ref.base))
            assert all(a > b for a, b in zip(ref.word, ref.word[1:]))


@given(st.integers(0, 3), st.integers(0, 2))
def test_insert_degeneracy_keeps_validity(length, base_dim):
    for word in valid_words(length, base_dim):
        dim = base_dim + length
        for i in range(dim + 1):
            out = insert_degeneracy(word, i)
            assert word_is_valid(out, base_dim)
            assert len(out) == length + 1


def test_ref_string_round_trip():
    for text in ["v", "s0 v", "s2 s0 e"]:
        assert fmt_ref(parse_ref(text)) == text
    ref = SimplexRef((3, 1), "c")
    assert parse_ref(fmt_ref(ref)) == ref


def test_pair_normalize_extracts_common_letters():
    rx = SimplexRef((2, 0), "x")
    ry = SimplexRef((0,), "y")
    word, nx, ny = pair_normalize(rx, ry)
    assert word == (0,)
    assert not (set(nx.word) & set(ny.word))
    # disjoint words pass through untouched
    word, nx, ny = pair_normalize(SimplexRef((1,), "x"), SimplexRef((0,), "y"))
    assert word == ()
    assert (nx.word, ny.word) == ((1,), (0,))


def test_torus_as_product_of_circles():
    s1 = circle_gx().space
    pc = product(s1, s1, truncation=3)
    pc.complex.validate()
    assert nondeg_counts(pc.complex)[:3] == (1, 3, 2)
    # Euler characteristic of the torus vanishes
    assert 1 - 3 + 2 == 0
    projection_left(pc).validate()
    projection_right(pc).validate()


def test_square_as_product_of_intervals():
    d1 = standard_simplex(1)
    pc = product(d1, d1)
    pc.complex.validate()
    assert nondeg_counts(pc.complex) == (4, 5, 2)


def test_cylinder_of_circle():
    s1 = circle_gx().space
    pc, i0, i1, pr = cylinder_with_ends(s1)
    pc.complex.validate()
    i0.validate()
    i1.validate()
    assert nondeg_counts(pc.complex) == (2, 4, 2, 0)
    # both ends section the projection
    for q, ids in s1.cells.items():
        for cid in ids:
            assert pr.apply(i0.values[cid]) == nondeg(cid)
            assert pr.apply(i1.values[cid]) == nondeg(cid)


def test_simplicial_map_rejects_broken_values():
    s1 = circle_gx().space
    tri = triangle_gx().space
    # send the loop somewhere its endpoints cannot match
    vals = {"v": nondeg("v0"), "e": nondeg("e12")}
    try:
        SimplicialMap(s1, tri, vals)
        assert False, "expected a failed simpliciality check"
    except ValueError:
        pass


def test_validate_names_the_broken_simplex():
    fs = standard_simplex(2)
    faces = dict(fs.face_table)
    good = faces["0-1-2"]
    faces["0-1-2"] = (good[0], good[1], good[0])
    try:
        FiniteSimplicialSet(2, fs.cells, faces)
        assert False, "expected the face identity to fail"
    except ValueError as ex:
        assert "0-1-2" in str(ex)
