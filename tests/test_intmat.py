"""Exact matrix layer: Smith normal form, solving, determinants."""

import math

from hypothesis import given, strategies as st

from eqtwist.intmat import IntMatrix, determinant, smith_normal_form, solve


entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m, max_size=m).map(
                    lambda rows: IntMatrix(rows, n))))


def is_unimodular(m):
    return abs(determinant(m)) == 1


@given(matrices())
def test_snf_factorization(a):
    d, u, v = smith_normal_form(a)
    assert (u @ a) @ v == d
    assert is_unimodular(u)
    assert is_unimodular(v)


@given(matrices())
def test_snf_divisibility_chain(a):
    d, _, _ = smith_normal_form(a)
    diag = list(d.diagonal())
    for i, x in enumerate(diag):
        assert x >= 0
        if i + 1 < len(diag) and diag[i + 1]:
            assert x != 0
            assert diag[i + 1] % x == 0
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.rows[i][j] == 0


@given(matrices(), st.data())
def test_solve_recovers_solvable_systems(a, data):
    x = data.draw(st.lists(entries, min_size=a.ncols, max_size=a.ncols))
    b = a.apply(x)
    got = solve(a, list(b))
    assert got is not None
    assert a.apply(got) == b


def test_solve_reports_unsolvable():
    a = IntMatrix([[2]], 1)
    assert solve(a, [1]) is None
    assert solve(a, [4]) == (2,)


def test_hstack_and_block_diag_shapes():
    a = IntMatrix([[1, 2]], 2)
    b = IntMatrix([[3]], 1)
    h = IntMatrix.hstack([a, b])
    assert h.rows == ((1, 2, 3),)
    d = IntMatrix.block_diag([a, b])
    assert d.rows == ((1, 2, 0), (0, 0, 3))


@given(matrices(3), st.data())
def test_matmul_against_apply(a, data):
    x = data.draw(st.lists(entries, min_size=a.ncols, max_size=a.ncols))
    ident = IntMatrix.identity(a.nrows)
    assert ident @ a == a
    assert (ident @ a).apply(x) == a.apply(x)


@given(st.lists(st.lists(entries, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_determinant_multiplicative(rows):
    a = IntMatrix(rows, 3)
    b = IntMatrix([[0, 1, 2], [1, 1, 0], [0, 0, 1]], 3)
    assert determinant(a @ b) == determinant(a) * determinant(b)
