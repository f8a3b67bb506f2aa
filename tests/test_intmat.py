"""Exact matrix layer: Smith normal form, solving, determinants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from eqtwist.abgroups import FgAbGroup
from eqtwist.bredon import EquivariantCochains, untwisted_complex
from eqtwist.intmat import IntMatrix, kernel_basis, smith_normal_form, solve

from helpers import (constant_setup, dense_smith_normal_form, determinant,
                     torus_gx)


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
    d, u, v, uinv = smith_normal_form(a)
    assert (u @ a) @ v == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    ident = IntMatrix.identity(a.nrows)
    assert u @ uinv == ident
    assert uinv @ u == ident


@given(matrices())
def test_snf_divisibility_chain(a):
    d, _, _, _ = smith_normal_form(a)
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


@given(matrices(), st.data())
def test_solve_with_a_matrix_agrees_column_by_column(a, data):
    rhs = st.lists(entries, min_size=a.nrows, max_size=a.nrows)
    cols = data.draw(st.lists(rhs, max_size=3))
    # at least one more right-hand side is solvable by construction
    xs = data.draw(st.lists(st.lists(entries, min_size=a.ncols,
                                     max_size=a.ncols), min_size=1,
                            max_size=2))
    cols += [list(a.apply(x)) for x in xs]
    b = IntMatrix.from_cols(cols, a.nrows)
    each = [solve(a, c) for c in cols]
    got = solve(a, b)
    if None in each:
        assert got is None
    else:
        assert got == IntMatrix.from_cols(each, a.ncols)
        assert a @ got == b
    # the solvable columns alone always solve together
    tail = IntMatrix.from_cols(cols[len(cols) - len(xs):], a.nrows)
    assert a @ solve(a, tail) == tail


def test_snf_of_empty_shapes():
    for m, n in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(m, n)
        d, u, v, uinv = smith_normal_form(a)
        assert d == a
        assert u == uinv == IntMatrix.identity(m)
        assert v == IntMatrix.identity(n)
    assert solve(IntMatrix.zeros(2, 0), [0, 0]) == ()
    assert solve(IntMatrix.zeros(2, 0), [0, 1]) is None
    assert solve(IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 3)) \
        == IntMatrix.zeros(0, 3)


def test_invariant_factors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    @given(matrices(5))
    def agree(a):
        d, _, _, _ = smith_normal_form(a)
        ours = [x for x in d.diagonal() if x]
        m = sympy.Matrix([list(r) for r in a.rows])
        # sympy lists the zero factors too
        theirs = [abs(int(x))
                  for x in invariant_factors(m, domain=sympy.ZZ) if x]
        assert ours == theirs
        assert len(ours) == m.rank()

    agree()


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


# the sparse elimination makes the dense one's operations ---------------

NONZERO = [1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]


@st.composite
def sparse_or_dense(draw, max_dim=9):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    # about 1 in 10, 4 in 10 or 12 in 13 entries nonzero
    zeros = draw(st.sampled_from([108, 18, 1]))
    entry = st.sampled_from([0] * zeros + NONZERO)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return IntMatrix(rows, n)


@settings(max_examples=400)
@given(sparse_or_dense())
def test_snf_makes_the_operations_of_the_dense_elimination(a):
    assert smith_normal_form(a) == dense_smith_normal_form(a)


def test_snf_of_a_torsion_block_and_a_coboundary_matches_the_dense_one():
    twos = IntMatrix.block_diag([IntMatrix([[2]])] * 40
                                + [IntMatrix([[4, 6], [6, 9]])])
    gx = torus_gx(4, 3)
    cat, system = constant_setup(gx, FgAbGroup.from_relations(1, [[2]]))
    cc = untwisted_complex(EquivariantCochains(gx, cat, system, 3))
    d1 = cc.diffs[1]
    # the matrix whose kernel gives H^1: the coboundary next to the
    # relations of its target
    coboundary = IntMatrix.hstack([d1.matrix, d1.target.rels])
    for a in (twos, d1.matrix, coboundary):
        assert smith_normal_form(a) == dense_smith_normal_form(a)


def dense_kernel_basis(a):
    # the columns j of the dense elimination's v with d_j = 0
    d, _u, v, _uinv = dense_smith_normal_form(a)
    k = min(a.nrows, a.ncols)
    return [v.col(j) for j in range(a.ncols) if j >= k or d.rows[j][j] == 0]


@settings(max_examples=400)
@given(sparse_or_dense())
def test_kernel_basis_is_the_free_columns_of_the_dense_v(a):
    assert kernel_basis(a) == dense_kernel_basis(a)


def _floor_cases():
    gx = torus_gx(4, 3)
    cat, system = constant_setup(gx, FgAbGroup.from_relations(1, [[2]]))
    d1 = untwisted_complex(EquivariantCochains(gx, cat, system, 3)).diffs[1]
    coboundary = IntMatrix.hstack([d1.matrix, d1.target.rels])
    # once the unit pivots are spent the floor is 2, and each later 2
    # ends the pivot search in its row and skips the divisibility scan
    yield IntMatrix.block_diag([IntMatrix([[2]])] * 40 + [coboundary])
    # under the floor 2, pivots 4 restart on a remainder 2 or fail the
    # scan next to a 6; a pivot 6 then passes the scan and raises the
    # floor to 6, which a later pivot meets and so skips the scan
    yield IntMatrix.block_diag([
        IntMatrix([[2]]), IntMatrix([[4, 6], [6, 4]]),
        IntMatrix([[4, 0], [0, 6]]), IntMatrix([[6, 12], [18, 6]]),
        IntMatrix([[4, 2, 6], [6, 4, 2], [2, 6, 4]])])
    yield IntMatrix([[4, 6, 2], [6, 4, 12], [2, 4, 6], [12, 6, 18]])


@pytest.mark.parametrize("a", list(_floor_cases()))
def test_the_divisor_floor_keeps_the_dense_operations(a):
    assert smith_normal_form(a) == dense_smith_normal_form(a)
    assert kernel_basis(a) == dense_kernel_basis(a)


# sparse products against a plain sum of products ----------------------

@st.composite
def product_pair(draw):
    a = draw(sparse_or_dense(6))
    k = draw(st.integers(0, 6))
    zeros = draw(st.sampled_from([108, 18, 1]))
    entry = st.sampled_from([0] * zeros + NONZERO)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=a.ncols, max_size=a.ncols))
    x = draw(st.lists(entry, min_size=a.ncols, max_size=a.ncols))
    return a, IntMatrix(rows, k), x


def _reference_product(a, b):
    return [[sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols))
             for j in range(b.ncols)] for i in range(a.nrows)]


@settings(max_examples=300)
@given(product_pair())
def test_sparse_products_match_the_sum_of_products(pair):
    a, b, x = pair
    got = a.apply(x)
    assert got == tuple(sum(a.rows[i][k] * x[k] for k in range(a.ncols))
                        for i in range(a.nrows))
    assert all(type(y) is int for y in got)
    assert a.apply([0] * a.ncols) == (0,) * a.nrows
    prod = a @ b
    assert prod == IntMatrix(_reference_product(a, b), b.ncols)
    assert _is_canonical(prod)
    zero = IntMatrix.zeros(b.nrows, b.ncols)
    assert _is_canonical(a @ zero)
    assert a @ zero == IntMatrix.zeros(a.nrows, b.ncols)


def test_products_of_empty_shapes():
    for m, k, n in [(0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 0, 0)]:
        a = IntMatrix([[1] * k] * m, k)
        b = IntMatrix([[2] * n] * k, n)
        prod = a @ b
        assert prod == IntMatrix([[2 * k] * n] * m, n)
        assert _is_canonical(prod)
        assert a.apply([5] * k) == (5 * k,) * m
        assert a.apply([0] * k) == (0,) * m


def _is_canonical(a):
    # what the public constructor would build from the same rows, stored
    # as one dict per row with no zero and no key outside the columns
    public = IntMatrix(a.rows, a.ncols)
    return (type(a.sparse) is tuple and len(a.sparse) == a.nrows
            and all(type(r) is dict for r in a.sparse)
            and all(type(j) is int and 0 <= j < a.ncols
                    and type(x) is int and x != 0
                    for r in a.sparse for j, x in r.items())
            and type(a.rows) is tuple
            and all(type(r) is tuple and len(r) == a.ncols for r in a.rows)
            and all(type(x) is int for r in a.rows for x in r)
            and a.nrows == len(a.rows)
            and a == public and hash(a) == hash(public))


@given(sparse_or_dense(5))
def test_built_matrices_have_the_public_shape(a):
    at = a.transpose()
    built = [*smith_normal_form(a), at, a @ at, at @ a,
             IntMatrix.hstack([a, a]), IntMatrix.identity(a.nrows),
             IntMatrix.zeros(a.nrows, a.ncols), a + a, a - a, -a,
             IntMatrix.block_diag([a, at]),
             IntMatrix.from_cols(a.cols(), a.nrows)]
    # overlapping blocks that cancel, and a row slice
    h, w = a.nrows, a.ncols
    cancelled = IntMatrix.from_blocks(h, w, [(0, 0, a), (0, 0, -a)])
    shifted = IntMatrix.from_blocks(h + 1, w + 1, [(0, 0, a), (1, 1, a),
                                                   (0, 0, -a)])
    top = a.top(h // 2)
    built += [cancelled, shifted, top]
    assert all(_is_canonical(m) for m in built)
    assert cancelled == IntMatrix.zeros(h, w)
    assert shifted == IntMatrix.from_blocks(h + 1, w + 1, [(1, 1, a)])
    assert top == IntMatrix(a.rows[: h // 2], w)
    assert at.transpose() == a
    assert IntMatrix.from_cols(a.cols(), a.nrows) == a
    assert at.rows == tuple(a.col(j) for j in range(a.ncols))


@pytest.mark.parametrize("r, c", [(1, 0), (0, 2), (1, 1)])
def test_from_blocks_refuses_a_block_that_does_not_fit(r, c):
    # a 2 x 2 block in a 2 x 3 matrix fits at (0, 0) and (0, 1) only
    block = IntMatrix([[1, 2], [3, 4]])
    assert IntMatrix.from_blocks(2, 3, [(0, 1, block)]).rows == (
        (0, 1, 2), (0, 3, 4))
    with pytest.raises(ValueError, match="does not fit"):
        IntMatrix.from_blocks(2, 3, [(r, c, block)])
