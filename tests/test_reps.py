from fractions import Fraction

import pytest

from g2cert.errors import DegenerateFormError, NotSemisimpleError
from g2cert.lie import LieAlgebra, killing_form, so_of_form
from g2cert.linalg import Matrix, Subspace, kernel_basis
from g2cert.reps import (
    Intertwiner,
    LieModule,
    adjoint_module,
    bracket_span,
    hom_space,
    invariant_bilinear_forms,
    is_irreducible,
    killing_orthocomplement,
    module_isomorphism,
    natural_module,
    restriction_module,
    submodule_generated,
    wedge_so_isomorphism,
    wedge_square,
)

Z = Fraction(0)


@pytest.fixture(scope="module")
def zero_module_2d():
    return LieModule(LieAlgebra.zero(), [], dim=2)


@pytest.fixture(scope="module")
def complement_module(ctx):
    return ctx.complement_module


def test_hom_space_no_constraints(zero_module_2d):
    homs = hom_space(zero_module_2d, zero_module_2d)
    assert len(homs) == 4


def test_hom_space_algebra_mismatch(zero_module_2d, natural_rep):
    with pytest.raises(ValueError):
        hom_space(zero_module_2d, natural_rep)


def test_endomorphisms_of_natural_rep(natural_rep):
    homs = hom_space(natural_rep, natural_rep)
    assert len(homs) == 1


def test_hom_adjoint_to_complement_vanishes(ctx, complement_module):
    adj = adjoint_module(ctx.derivations)
    assert hom_space(adj, complement_module) == []


def test_homomorphism_law_enforced():
    so3 = so_of_form(Matrix.identity(3))
    broken = list(so3.realization)
    broken[0] = Matrix.identity(3)
    with pytest.raises(ValueError):
        LieModule(so3, broken)


def test_homomorphism_law_exact_beyond_int64():
    """Conjugating by a matrix with a 2**40 entry gives a module whose scaled
    law has products far beyond int64; the check stays exact."""
    so3 = so_of_form(Matrix.identity(3))
    p = Matrix([[1, 2**40, 0], [0, 1, 0], [0, 0, 1]])
    p_inv = Matrix([[1, -(2**40), 0], [0, 1, 0], [0, 0, 1]])
    conj = [p * m * p_inv for m in so3.realization]
    assert LieModule(so3, conj).dim == 3
    conj[0] = conj[0] + Matrix.diagonal([1, 0, 0])
    with pytest.raises(ValueError):
        LieModule(so3, conj)


def test_natural_rep_irreducible(natural_rep):
    cert = is_irreducible(natural_rep)
    assert cert.irreducible
    assert cert.commutant_dim == 1


def test_so34_adjoint_irreducible(so34):
    cert = is_irreducible(adjoint_module(so34))
    assert cert.irreducible


def test_double_copy_has_commutant_four(natural_rep):
    doubled = LieModule.direct_sum(natural_rep, natural_rep)
    cert = is_irreducible(doubled)
    assert not cert.irreducible
    assert cert.commutant_dim == 4


def test_irreducibility_requires_semisimple():
    abelian = LieAlgebra.abelian(1)
    mod = LieModule(abelian, [Matrix.zeros(2, 2)])
    with pytest.raises(NotSemisimpleError):
        is_irreducible(mod)


def test_invariant_forms_no_constraints(zero_module_2d):
    forms = invariant_bilinear_forms(zero_module_2d)
    assert forms.dim == 4
    assert len(forms.symmetric_basis) == 3


def test_invariant_forms_natural_rep(ctx, natural_rep):
    forms = invariant_bilinear_forms(natural_rep)
    assert forms.dim == 1
    assert len(forms.symmetric_basis) == 1
    assert forms.signature == (3, 4, 0)
    # the line is spanned by the restricted Cayley Gram itself
    assert forms.generator == ctx.imaginary[1]


def test_invariant_forms_sl2_adjoint_is_killing_line():
    sl2 = LieAlgebra(
        brackets=(
            ((Z, Z, Z), (Z, Fraction(2), Z), (Z, Z, Fraction(-2))),
            ((Z, Fraction(-2), Z), (Z, Z, Z), (Fraction(1), Z, Z)),
            ((Z, Z, Fraction(2)), (Fraction(-1), Z, Z), (Z, Z, Z)),
        ),
        name="sl2",
    )
    forms = invariant_bilinear_forms(adjoint_module(sl2))
    assert forms.dim == 1
    k = killing_form(sl2).gram
    gen = forms.generator
    ratio = next(
        gen.entry(i, j) / k.entry(i, j)
        for i in range(3)
        for j in range(3)
        if k.entry(i, j)
    )
    assert gen == k.scale(ratio)


def test_uniqueness_up_to_scale(natural_rep):
    forms = invariant_bilinear_forms(natural_rep)
    a = forms.generator
    b = a.scale(Fraction(-7, 3))
    ratio = next(
        b.entry(i, j) / a.entry(i, j) for i in range(7) for j in range(7) if a.entry(i, j)
    )
    assert b == a.scale(ratio) and ratio == Fraction(-7, 3)


def test_orthocomplement_of_whole_algebra(so34):
    assert killing_orthocomplement(so34, Subspace.full(21)).dim == 0


def test_orthocomplement_diagonal_so3():
    so3 = so_of_form(Matrix.identity(3))
    both = LieAlgebra.direct_sum(so3, so3)
    diag = Subspace.from_vectors(
        6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    )
    comp = killing_orthocomplement(both, diag)
    assert comp.dim == 3
    anti = Subspace.from_vectors(
        6, [(1, 0, 0, -1, 0, 0), (0, 1, 0, 0, -1, 0), (0, 0, 1, 0, 0, -1)]
    )
    assert comp == anti


def test_orthocomplement_of_image(ctx):
    assert ctx.complement.dim == 7


def test_orthocomplement_rejects_degenerate_restriction():
    sl2 = LieAlgebra(
        brackets=(
            ((Z, Z, Z), (Z, Fraction(2), Z), (Z, Z, Fraction(-2))),
            ((Z, Fraction(-2), Z), (Z, Z, Z), (Fraction(1), Z, Z)),
            ((Z, Z, Fraction(2)), (Fraction(-1), Z, Z), (Z, Z, Z)),
        ),
    )
    nilpotent_line = Subspace.from_vectors(3, [(0, 1, 0)])  # K(e,e) = 0
    with pytest.raises(DegenerateFormError):
        killing_orthocomplement(sl2, nilpotent_line)


def test_complement_is_invariant(ctx):
    """Restricting the action to the complement must succeed exactly."""
    mod = restriction_module(ctx.so34_as_g2_module, ctx.complement)
    assert mod.dim == 7


def test_submodule_generated_zero(natural_rep):
    assert submodule_generated(natural_rep, (Z,) * 7).dim == 0


def test_submodule_generated_any_vector_fills_natural_rep(natural_rep):
    for k in range(7):
        vec = tuple(Fraction(1 if i == k else 0) for i in range(7))
        assert submodule_generated(natural_rep, vec).dim == 7
    assert submodule_generated(natural_rep, tuple(Fraction(x) for x in (1, -2, 3, 0, 0, 5, 7))).dim == 7


def test_submodule_generated_zero_algebra(zero_module_2d):
    vec = (Fraction(1), Fraction(0))
    assert submodule_generated(zero_module_2d, vec).dim == 1


def test_bracket_span_examples(ctx):
    so34 = ctx.so34
    v = ctx.complement
    assert bracket_span(so34, v, Subspace(21, ())).dim == 0
    assert bracket_span(so34, v, v).dim == 21
    assert bracket_span(so34, ctx.g2_image, v) == v
    assert not ctx.g2_image.contains(bracket_span(so34, v, v))


def test_bracket_map_is_module_homomorphism(ctx):
    """[x,[u,w]] = [[x,u],w] + [u,[x,w]] for image elements x and u, w in the
    complement, exactly on all basis triples."""
    so34 = ctx.so34
    for x in ctx.g2_image.basis:
        for u in ctx.complement.basis:
            xu = so34.bracket(x, u)
            for w in ctx.complement.basis:
                lhs = so34.bracket(x, so34.bracket(u, w))
                rhs = tuple(
                    a + b
                    for a, b in zip(so34.bracket(xu, w), so34.bracket(u, so34.bracket(x, w)))
                )
                assert lhs == rhs


def test_wedge_square_dimension(natural_rep):
    w = wedge_square(natural_rep)
    assert w.dim == 21  # binomial(7, 2); the constructor re-verifies the law


def test_wedge_commutant_dimension(ctx, natural_rep):
    w = wedge_square(natural_rep)
    assert len(hom_space(w, w)) == 2  # two inequivalent summands


def test_commutant_element_minimal_polynomial(ctx):
    """A generic element of the two-dimensional commutant of so(3,4) viewed as
    a module over the embedded algebra acts by a distinct rational scalar on
    each summand, so its minimal polynomial is quadratic with two rational
    roots."""
    homs = hom_space(ctx.so34_as_g2_module, ctx.so34_as_g2_module)
    assert len(homs) == 2
    generic = homs[0].matrix + homs[1].matrix.scale(2)
    coeffs = _minimal_polynomial(generic)
    assert len(coeffs) == 3  # monic quadratic
    c0, c1, _ = coeffs
    disc = c1 * c1 - 4 * c0
    assert disc > 0
    num, den = disc.numerator, disc.denominator
    r = _isqrt_exact(num)
    s = _isqrt_exact(den)
    assert r is not None and s is not None  # rational roots
    root1 = (-c1 + Fraction(r, s)) / 2
    root2 = (-c1 - Fraction(r, s)) / 2
    assert root1 != root2
    assert root1.denominator >= 1 and root2.denominator >= 1


def _minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial, low-degree coefficients first: the first
    linear dependency among I, m, m^2, ..."""
    powers = [Matrix.identity(m.nrows)]
    while True:
        powers.append(powers[-1] * m)
        kern = kernel_basis(Matrix([p.flatten() for p in powers]).transpose())
        if kern.dim:
            c = kern.basis[0]
            return tuple(x / c[-1] for x in c)


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def test_wedge_so_isomorphism_plane():
    iso = wedge_so_isomorphism(Matrix.identity(2))
    assert iso.source.dim == 1 and iso.target.dim == 1
    assert iso.is_invertible
    # phi(e1 ^ e2) is the rotation generator up to basis normalization
    so2 = iso.target.algebra
    image = so2.realization[0].scale(iso.matrix.entry(0, 0))
    assert image == Matrix([[0, -1], [1, 0]]) or image == Matrix([[0, 1], [-1, 0]])


def test_wedge_so_isomorphism_full(ctx):
    iso = wedge_so_isomorphism(ctx.imaginary[1], so_alg=ctx.so34)
    assert iso.matrix.rank() == 21
    assert iso.is_invertible


def test_wedge_so_isomorphism_subalgebra_equivariance(ctx, natural_rep):
    iso = wedge_so_isomorphism(ctx.imaginary[1], so_alg=ctx.so34)
    # the same matrix intertwines the restricted wedge action of the image
    Intertwiner(
        source=wedge_square(natural_rep),
        target=ctx.so34_as_g2_module,
        matrix=iso.matrix,
    )


def test_wedge_so_isomorphism_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        wedge_so_isomorphism(Matrix.diagonal([1, 1, 0]))


def test_module_isomorphism_identity(natural_rep):
    iso = module_isomorphism(natural_rep, natural_rep)
    assert iso is not None and iso.is_invertible
    # commutant is one-dimensional, so this is a multiple of the identity
    ratio = iso.matrix.entry(0, 0)
    assert iso.matrix == Matrix.identity(7).scale(ratio)


def test_module_isomorphism_complement_to_natural(ctx, natural_rep, complement_module):
    iso = module_isomorphism(complement_module, natural_rep)
    assert iso is not None and iso.is_invertible


def test_module_isomorphism_dimension_mismatch(ctx, natural_rep):
    adj = adjoint_module(ctx.derivations)
    assert module_isomorphism(adj, natural_rep) is None


def test_intertwiner_validation(natural_rep):
    with pytest.raises(ValueError):
        Intertwiner(
            source=natural_rep,
            target=natural_rep,
            matrix=Matrix.diagonal([1, 2, 3, 4, 5, 6, 7]),
        )


def test_natural_module_requires_realization():
    with pytest.raises(ValueError):
        natural_module(LieAlgebra.abelian(2))
