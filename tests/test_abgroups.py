"""Presented abelian groups: normal forms, kernels, cohomology."""

import pytest
from hypothesis import given, strategies as st

from eqtwist import cli
from eqtwist.abgroups import (AbHom, BudgetExceeded, CochainComplex,
                              FgAbGroup, Subquotient, assemble_hom,
                              cohomology_at, column_budget, direct_sum,
                              enumerate_automorphisms)
from eqtwist.fixtures import fixture_path
from eqtwist.intmat import IntMatrix, kernel_basis, solve

from helpers import (reference_cohomology_at, reference_equal_as_maps,
                     reference_is_iso)


def test_normal_forms():
    assert FgAbGroup.free(2).normal_form() == (2, ())
    assert FgAbGroup.cyclic(4).normal_form() == (0, (4,))
    assert FgAbGroup.trivial().normal_form() == (0, ())
    # relations enter as columns of the matrix
    mixed = FgAbGroup.from_relations(3, [[2, 0], [0, 6], [0, 0]])
    assert mixed.normal_form() == (1, (2, 6))
    # relations interact: Z^2 / <(2,0),(3,3)> has order 6
    g = FgAbGroup.from_relations(2, [[2, 3], [0, 3]])
    rank, torsion = g.normal_form()
    assert rank == 0
    prod = 1
    for t in torsion:
        prod *= t
    assert prod == 6


def test_reduce_and_vectors_round_trip():
    g = FgAbGroup.from_relations(2, [[4, 0], [0, 2]])
    for el in g.elements():
        assert g.reduce(el) == el
        assert g.from_vector(g.to_vector(el)) == el
    assert len(g.elements()) == 8
    assert g.add(g.from_vector((3, 1)), g.from_vector((1, 1))) == g.zero()


def test_kernel_of_multiplication():
    z = FgAbGroup.free(1)
    z4 = FgAbGroup.cyclic(4)
    # multiplication by 2 from Z/4 to Z/4 has kernel Z/2
    h = AbHom(z4, z4, IntMatrix([[2]], 1))
    ker, incl = h.kernel()
    assert ker.normal_form() == (0, (2,))
    for el in ker.elements():
        assert h.apply(incl.apply(el)) == z4.zero()
    # multiplication by 3 on Z is injective
    h = AbHom(z, z, IntMatrix([[3]], 1))
    ker, _ = h.kernel()
    assert ker.is_trivial


def test_cokernel_and_iso():
    z = FgAbGroup.free(1)
    h = AbHom(z, z, IntMatrix([[5]], 1))
    assert h.cokernel().normal_form() == (0, (5,))
    assert not h.is_iso()
    neg = AbHom(z, z, IntMatrix([[-1]], 1))
    assert neg.is_iso()
    assert neg.inverse().equal_as_maps(neg)


def test_factor_through():
    z4 = FgAbGroup.cyclic(4)
    double = AbHom(z4, z4, IntMatrix([[2]], 1))
    ker, incl = double.kernel()
    # the doubling map lands inside its own kernel
    fact = double.factor_through(incl)
    assert incl.compose(fact).equal_as_maps(double)


def test_cohomology_of_circle_complex():
    # 0 -> Z -0-> Z -> 0 models the circle
    z = FgAbGroup.free(1)
    zero = AbHom.zero(z, z)
    cc = CochainComplex([z, z], [zero])
    assert cc.cohomology(0).group.normal_form() == (1, ())
    assert cc.cohomology(1).group.normal_form() == (1, ())


def test_a_unit_block_between_unequal_groups_is_not_cancelled():
    # Z -> Z/2 by 1 is onto but no isomorphism: H^0 is 2Z, not 0
    z, z2 = FgAbGroup.free(1), FgAbGroup.cyclic(2)
    cc = CochainComplex([z, z2], [AbHom(z, z2, IntMatrix([[1]], 1))])
    assert cc.cohomology(0).group.normal_form() == (1, ())
    assert cc.cohomology(1).group.normal_form() == (0, ())
    assert cc.reduced().rels == [g.rels for g in cc.groups]


def test_a_block_that_is_not_plus_or_minus_identity_is_not_cancelled():
    # Z^2 -> Z^2 by diag(1, 2) leaves H^1 = Z/2: the block is a unit in
    # its first row only
    z2 = FgAbGroup.free(2)
    cc = CochainComplex([z2, z2], [AbHom(z2, z2, IntMatrix([[1, 0], [0, 2]]))])
    assert cc.cohomology(1).group.normal_form() == (0, (2,))
    assert cc.reduced().rels == [g.rels for g in cc.groups]


def test_cohomology_at_with_torsion():
    z = FgAbGroup.free(1)
    double = AbHom(z, z, IntMatrix([[2]], 1))
    sq = cohomology_at(z, double, None)
    assert sq.group.normal_form() == (0, (2,))


def test_direct_sum_offsets():
    z2 = FgAbGroup.cyclic(2)
    z = FgAbGroup.free(1)
    total = direct_sum([z2, z, z2])
    assert total.offsets == [0, 1, 2]
    assert total.normal_form() == (1, (2, 2))


def test_a_direct_sum_builds_its_relations_when_they_are_read(monkeypatch):
    summands = [FgAbGroup.cyclic(2), FgAbGroup.free(1),
                FgAbGroup.from_relations(2, [[2, 0], [0, 3]])]
    built = []
    real = IntMatrix.block_diag

    def block_diag(mats):
        built.append(len(mats))
        return real(mats)

    monkeypatch.setattr(IntMatrix, "block_diag", staticmethod(block_diag))
    total = direct_sum(summands)
    assert built == [] and total.ngens == 4
    assert total.rels == real([g.rels for g in summands])
    assert total.rels is total.rels
    assert built == [3]
    assert total.normal_form() == (1, (2, 6))


def test_column_budget_counts_every_direct_sum():
    z2 = FgAbGroup.cyclic(2)
    with column_budget(4):
        direct_sum([z2, z2])
        direct_sum([z2, z2])
        with pytest.raises(BudgetExceeded) as info:
            direct_sum([z2])
    assert not isinstance(info.value, ValueError)
    assert "5 generator columns" in str(info.value)
    assert "budget is 4" in str(info.value)
    # no limit outside a block
    total = direct_sum([z2] * 10)
    assert total.ngens == 10


def test_an_exhausted_cli_run_leaves_no_budget_behind(capsys):
    code = cli.main(["bredon", "--complex", str(fixture_path("refs1.json")),
                     "--coeffs", str(fixture_path("coeffs_z.json")),
                     "--nmax", "1", "--budget", "2"])
    capsys.readouterr()
    assert code == 2
    total = direct_sum([FgAbGroup.free(5)])
    assert total.ngens == 5


def test_assemble_hom_adds_blocks_that_share_a_key():
    z, z2 = FgAbGroup.free(1), FgAbGroup.free(2)
    blocks = [((0, 1), IntMatrix([[1, 2]])),
              ((0, 0), IntMatrix([[3]])),
              ((0, 1), IntMatrix([[-1, 5]])),
              ((1, 0), IntMatrix([[4]]))]
    h = assemble_hom(direct_sum([z, z2]), direct_sum([z, z]), blocks)
    assert h.matrix == IntMatrix([[3, 0, 7], [4, 0, 0]])


def test_assemble_hom_rejects_a_block_that_misfits_its_summands():
    z, z2 = FgAbGroup.free(1), FgAbGroup.free(2)
    with pytest.raises(ValueError, match="block shape mismatch"):
        assemble_hom(direct_sum([z, z2]), direct_sum([z]),
                     [((0, 1), IntMatrix([[1]]))])


def test_enumerate_automorphisms():
    z = FgAbGroup.free(1)
    auts = enumerate_automorphisms(z)
    assert len(auts) == 2
    z4 = FgAbGroup.cyclic(4)
    auts = enumerate_automorphisms(z4)
    assert len(auts) == 2  # 1 and 3
    z2 = FgAbGroup.free(2)
    assert enumerate_automorphisms(z2) is None
    klein = FgAbGroup.from_relations(2, [[2, 0], [0, 2]])
    assert len(enumerate_automorphisms(klein)) == 6


@given(st.integers(2, 12), st.integers(-20, 20))
def test_cyclic_reduction_is_mod(k, x):
    g = FgAbGroup.cyclic(k)
    assert g.reduce((x,)) == (x % k,)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_kernel_elements_die(rel_rows):
    g = FgAbGroup.from_relations(2, rel_rows)
    # doubling descends to every quotient
    h = AbHom(g, g, IntMatrix([[2, 0], [0, 2]], 2))
    ker, incl = h.kernel()
    if ker.is_finite:
        for el in ker.elements():
            assert h.apply(incl.apply(el)) == g.zero()


def test_each_presentation_is_eliminated_once(snf_calls):
    # Z/2 + Z/6 on three generators: no elimination until its coordinates
    # are read, then one, not one more per generator or per reader
    g = FgAbGroup(3, IntMatrix([[2, 0, 0], [0, 6, 0], [0, 6, 1]]))
    assert snf_calls == []
    assert g.normal_form() == (0, (2, 6))
    y = g.from_vector((1, 1, 1))
    assert g.from_vector(g.to_vector(y)) == y
    assert len(g.elements()) == 12
    assert len(snf_calls) == 1


def test_relation_checks_and_comparisons_run_no_elimination(snf_calls):
    g = FgAbGroup.from_relations(2, [[4], [0]])  # Z/4 + Z
    z2 = FgAbGroup.cyclic(2)
    shear = IntMatrix([[1, 1], [0, 1]])
    # the groups' own eliminations, which their first reads run
    g.normal_form(), z2.normal_form()
    snf_calls.clear()
    h = AbHom(g, g, shear, check=True)
    with pytest.raises(ValueError):
        AbHom(z2, g, IntMatrix([[1], [0]]), check=True)
    assert h.equal_as_maps(AbHom(g, g, IntMatrix([[5, 1], [0, 1]])))
    assert not h.equal_as_maps(AbHom.identity(g))
    assert AbHom(g, g, IntMatrix([[4, 0], [0, 0]])).is_zero_map
    assert not h.is_zero_map
    assert snf_calls == []


def test_factor_through_and_inverse_run_one_elimination_each(snf_calls):
    g = FgAbGroup.from_relations(2, [[4], [0]])  # Z/4 + Z
    double = AbHom(g, g, IntMatrix([[2, 0], [0, 0]]))
    _ker, incl = double.kernel()
    shear = AbHom(g, g, IntMatrix([[1, 1], [0, 1]]))
    snf_calls.clear()
    fact = double.factor_through(incl)
    assert len(snf_calls) == 1
    assert incl.compose(fact).equal_as_maps(double)
    snf_calls.clear()
    inv = shear.inverse()
    assert len(snf_calls) == 1
    assert inv.equal_as_maps(AbHom(g, g, IntMatrix([[1, -1], [0, 1]])))


@given(st.integers(0, 3).flatmap(lambda k: st.lists(
           st.lists(st.integers(-6, 6), min_size=k, max_size=k),
           min_size=3, max_size=3)),
       st.data())
def test_reduction_decides_relation_membership(rel_rows, data):
    ncols = len(rel_rows[0])
    g = FgAbGroup(3, IntMatrix(rel_rows, ncols))
    vec = st.lists(st.integers(-12, 12), min_size=3, max_size=3)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=ncols,
                                max_size=ncols))
    # one vector of the relation span, one arbitrary vector
    for x in (g.rels.apply(coeffs), data.draw(vec)):
        assert (g.from_vector(x) == g.zero()) == \
            (solve(g.rels, x) is not None)


# the coboundaries of the 2-simplex with Z/4 coefficients:
# C^0 = C^1 = (Z/4)^3, C^2 = Z/4, and a last map to the trivial group
Z4_CUBE = FgAbGroup(3, IntMatrix([[4, 0, 0], [0, 4, 0], [0, 0, 4]]))
SIMPLEX_GROUPS = [Z4_CUBE, Z4_CUBE, FgAbGroup.cyclic(4), FgAbGroup.trivial()]
SIMPLEX_MATRICES = [IntMatrix([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]),
                    IntMatrix([[1, -1, 1]]),
                    IntMatrix.zeros(0, 1)]


def simplex_diffs(planted=None):
    """The 2-simplex's differentials; `planted` replaces d^1."""
    mats = list(SIMPLEX_MATRICES)
    if planted is not None:
        mats[1] = planted
    return [AbHom(SIMPLEX_GROUPS[n], SIMPLEX_GROUPS[n + 1], m)
            for n, m in enumerate(mats)]


def test_a_complex_with_a_nonzero_square_is_refused():
    diffs = simplex_diffs(planted=IntMatrix([[1, 0, 1]]))
    with pytest.raises(ValueError, match="^d o d != 0 at degree 0$"):
        CochainComplex(SIMPLEX_GROUPS, diffs)


def test_cohomology_at_refuses_a_nonzero_square():
    d0, d1, _d2 = simplex_diffs(planted=IntMatrix([[1, 0, 1]]))
    with pytest.raises(ValueError, match="^not a complex: d o d != 0$"):
        cohomology_at(Z4_CUBE, d0, d1)


def test_each_square_of_a_complex_is_checked_once(monkeypatch):
    diffs = simplex_diffs()
    composites = []
    real = AbHom.compose

    def spy(self, first):
        composites.append((self, first))
        return real(self, first)

    monkeypatch.setattr(AbHom, "compose", spy)
    cc = CochainComplex(SIMPLEX_GROUPS, diffs)
    forms = [cc.cohomology(n).group.normal_form()
             for n in range(len(SIMPLEX_GROUPS))]
    assert forms == [(0, (4,)), (0, ()), (0, ()), (0, ())]
    assert len(composites) == len(diffs) - 1
    for n, (second, first) in enumerate(composites):
        assert second is diffs[n + 1] and first is diffs[n]


def test_cohomology_at_presents_no_kernel(eliminations, monkeypatch):
    d0, d1, _d2 = simplex_diffs()
    presented = []
    real = FgAbGroup.__init__

    def spy(self, ngens, rels):
        presented.append(ngens)
        real(self, ngens, rels)

    monkeypatch.setattr(FgAbGroup, "__init__", spy)
    for cohomology, kernels, groups in ((cohomology_at, 2, 1),
                                        (reference_cohomology_at, 3, 2)):
        presented.clear()
        eliminations["kernel_basis"].clear()
        h = cohomology(Z4_CUBE, d0, d1)
        assert h.group.normal_form() == (0, ())
        assert len(eliminations["kernel_basis"]) == kernels
        assert len(presented) == groups


def test_is_iso_presents_no_kernel(eliminations):
    z4 = FgAbGroup.cyclic(4)
    triple = AbHom(z4, z4, IntMatrix([[3]]))
    eliminations["snf"].clear()
    assert triple.is_iso()
    # one kernel, and one Smith normal form for the cokernel
    assert len(eliminations["kernel_basis"]) == 1
    assert len(eliminations["snf"]) == 1


# a presented group on 1..2 generators with 0..2 relations
small_groups = st.integers(1, 2).flatmap(lambda n: st.integers(0, 2).flatmap(
    lambda k: st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                       min_size=n, max_size=n)))


@given(small_groups, small_groups, st.data())
def test_is_iso_agrees_with_the_kernel_presenting_reference(src_rows,
                                                            tgt_rows, data):
    target = FgAbGroup(len(tgt_rows), IntMatrix(tgt_rows, len(tgt_rows[0])))
    n = len(src_rows)
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    mat = IntMatrix(data.draw(st.lists(entries, min_size=target.ngens,
                                       max_size=target.ngens)), n)
    # relations the map respects: combinations of a basis of the lattice
    # of x with mat x in im(target.rels), some dropped, some scaled
    lattice = [v[:n] for v in kernel_basis(
        IntMatrix.hstack([mat, target.rels]))]
    coeffs = data.draw(st.lists(st.lists(st.integers(-2, 2),
                                         min_size=len(lattice),
                                         max_size=len(lattice)),
                                max_size=3))
    rels = [[sum(c * v[i] for c, v in zip(cs, lattice)) for i in range(n)]
            for cs in coeffs]
    source = FgAbGroup(n, IntMatrix.from_cols(rels, n))
    h = AbHom(source, target, mat)
    assert h.is_iso() == reference_is_iso(h)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_map_equality_agrees_with_column_reduction(ngens, nrels, ncols,
                                                   data):
    def matrix(nrows, width, lo, hi):
        return IntMatrix(data.draw(st.lists(
            st.lists(st.integers(lo, hi), min_size=width, max_size=width),
            min_size=nrows, max_size=nrows)), width)

    rels = matrix(ngens, nrels, -4, 4)
    target = FgAbGroup(ngens, rels)
    source = FgAbGroup.free(ncols)
    a = matrix(ngens, ncols, -5, 5)
    kind = data.draw(st.sampled_from(["same", "relations", "perturbed"]))
    b = a
    if kind != "same":
        b = a + rels @ matrix(nrels, ncols, -3, 3)
    if kind == "perturbed":
        b = b + matrix(ngens, ncols, -1, 1)
    f, g = AbHom(source, target, a), AbHom(source, target, b)
    assert f.equal_as_maps(g) == reference_equal_as_maps(f, g)
    if kind != "perturbed":
        assert f.equal_as_maps(g)


@pytest.mark.parametrize("entry,equal", [(2, True), (1, False)])
def test_differing_matrices_into_z2(entry, equal):
    z, z2 = FgAbGroup.free(1), FgAbGroup.cyclic(2)
    f = AbHom(z, z2, IntMatrix([[entry]]))
    zero = AbHom.zero(z, z2)
    assert f.matrix != zero.matrix
    assert f.equal_as_maps(zero) is equal
    assert reference_equal_as_maps(f, zero) is equal


def test_map_equality_raises_on_a_row_mismatch():
    z = FgAbGroup.free(1)
    f = AbHom(z, z, IntMatrix([[1]]), check=False)
    g = AbHom(z, FgAbGroup.free(2), IntMatrix([[1], [0]]), check=False)
    with pytest.raises(ValueError, match="shape mismatch"):
        f.equal_as_maps(g)
