from fractions import Fraction

import pytest

from g2cert.errors import DegenerateFormError
from g2cert.lie import (
    LieAlgebra,
    centralizer,
    derivation_algebra,
    is_semisimple,
    killing_form,
    so_of_form,
    subalgebra_closure,
    transporter_into,
)
from g2cert.linalg import Matrix, Subspace

Z = Fraction(0)


@pytest.fixture(scope="module")
def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra(
        brackets=(
            ((Z, Z, Z), (Z, Fraction(2), Z), (Z, Z, Fraction(-2))),
            ((Z, Fraction(-2), Z), (Z, Z, Z), (Fraction(1), Z, Z)),
            ((Z, Z, Fraction(2)), (Fraction(-1), Z, Z), (Z, Z, Z)),
        ),
        name="sl2",
    )


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        LieAlgebra(brackets=(((Fraction(1),),),))


def test_jacobi_enforced_for_small_algebras():
    # [e1,e2] = e1 with all else zero violates Jacobi only in dim >= 3;
    # use the classic non-example [e1,e2]=e3, [e1,e3]=e3 variant, alone and
    # padded with an abelian summand to dimension 13
    for dim in (3, 13):
        bad = [[[Z] * dim for _ in range(dim)] for _ in range(dim)]
        bad[0][1][2] = Fraction(1)
        bad[1][0][2] = Fraction(-1)
        bad[0][2][0] = Fraction(1)
        bad[2][0][0] = Fraction(-1)
        bad[1][2][1] = Fraction(1)
        bad[2][1][1] = Fraction(-1)
        with pytest.raises(ValueError):
            LieAlgebra(brackets=tuple(tuple(tuple(p) for p in row) for row in bad))


def test_derivations_of_the_base_field(rational_line_algebra):
    assert derivation_algebra(rational_line_algebra).dim == 0


def test_derivations_of_matrix_algebra_are_inner(matrix_algebra_2x2):
    assert derivation_algebra(matrix_algebra_2x2).dim == 3


def test_derivations_of_split_cayley(cayley, derivations):
    assert derivations.dim == 14
    gram = cayley.form.gram
    for d in derivations.realization:
        assert all(x == 0 for x in d.apply(cayley.unit))
        assert (d.transpose() * gram + gram * d).is_zero()


def test_killing_abelian():
    kf = killing_form(LieAlgebra.abelian(2))
    assert kf.gram.is_zero()
    assert kf.signature == (0, 0, 2)


def test_killing_sl2(sl2):
    kf = killing_form(sl2)
    assert kf.gram.entry(0, 0) == 8
    assert kf.gram.entry(1, 2) == 4
    assert kf.gram.entry(2, 1) == 4
    assert kf.gram.entry(0, 1) == 0
    assert kf.gram.entry(0, 2) == 0
    assert kf.gram.entry(1, 1) == 0


def test_killing_of_derivations(derivations):
    kf = killing_form(derivations)
    assert kf.signature == (8, 6, 0)
    assert kf.nondegenerate


def test_killing_ad_invariance(derivations):
    """K([z,x],y) + K(x,[z,y]) = 0 on all basis triples."""
    k = killing_form(derivations).gram
    n = derivations.dim
    unit = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(n))
    for z in range(n):
        for x in range(n):
            zx = derivations.bracket(unit(z), unit(x))
            for y in range(n):
                zy = derivations.bracket(unit(z), unit(y))
                lhs = sum(zx[m] * k.entry(m, y) for m in range(n) if zx[m])
                rhs = sum(k.entry(x, m) * zy[m] for m in range(n) if zy[m])
                assert lhs + rhs == 0


def test_semisimplicity(sl2, derivations):
    assert not is_semisimple(LieAlgebra.abelian(3))
    assert is_semisimple(sl2)
    assert is_semisimple(derivations)


def test_so3():
    so3 = so_of_form(Matrix.identity(3))
    assert so3.dim == 3
    assert is_semisimple(so3)


def test_so34(so34):
    assert so34.dim == 21
    assert killing_form(so34).signature == (12, 9, 0)


def test_so34_jacobi(so34):
    assert so34.verify_jacobi()


def test_so_of_form_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        so_of_form(Matrix.diagonal([1, 0]))
    with pytest.raises(DegenerateFormError):
        so_of_form(Matrix([[0, 1], [0, 0]]))


def test_closure_whole_algebra(sl2):
    assert subalgebra_closure(sl2, Subspace.full(3)) == Subspace.full(3)


def test_closure_generates_sl2(sl2):
    seed = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert subalgebra_closure(sl2, seed).dim == 3


def test_closure_monotone_idempotent(sl2):
    seed = Subspace.from_vectors(3, [(0, 1, 0)])
    closed = subalgebra_closure(sl2, seed)
    assert closed.contains(seed)
    assert subalgebra_closure(sl2, closed) == closed


def test_closure_maximality_single_vector(ctx):
    so34 = ctx.so34
    seed = Subspace.from_vectors(
        21, list(ctx.g2_image.basis) + [ctx.complement.basis[0]]
    )
    assert subalgebra_closure(so34, seed).dim == 21


def test_centralizer_of_zero(sl2):
    assert centralizer(sl2, Subspace(3, ())).dim == 3


def test_centralizer_of_sl2_in_itself(sl2):
    assert centralizer(sl2, Subspace.full(3)).dim == 0


def test_centralizer_of_image_in_so34(ctx):
    assert centralizer(ctx.so34, ctx.g2_image).dim == 0


def test_transporter_into_whole(sl2):
    assert transporter_into(sl2, Subspace.full(3)).dim == 3


def test_transporter_into_zero_is_center(sl2):
    assert transporter_into(sl2, Subspace(3, ())).dim == 0
    abelian = LieAlgebra.abelian(2)
    assert transporter_into(abelian, Subspace(2, ())).dim == 2


def test_transporter_into_complement_is_zero(ctx):
    assert transporter_into(ctx.so34, ctx.complement).dim == 0


def test_direct_sum_killing_restriction():
    so3 = so_of_form(Matrix.identity(3))
    both = LieAlgebra.direct_sum(so3, so3)
    diag = Subspace.from_vectors(
        6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    )
    b = Matrix(diag.basis)
    restricted = b * killing_form(both).gram * b.transpose()
    assert restricted.rank() == 3


def test_from_matrix_basis_rejects_unclosed_family():
    mats = [Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])]  # [e,f] escapes
    with pytest.raises(ValueError):
        LieAlgebra.from_matrix_basis(mats)


def test_realization_consistency_enforced(sl2):
    wrong = (Matrix.identity(3),) * 3
    with pytest.raises(ValueError):
        LieAlgebra(brackets=sl2.brackets, realization=wrong)
