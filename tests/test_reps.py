from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

from g2cert.errors import DegenerateFormError, NotSemisimpleError, PreconditionError
from g2cert.lie import LieAlgebra, killing_form, so_of_form
from g2cert.suite import SuiteConfig, check_maximality
from g2cert import reps, suite
from g2cert.linalg import (
    PRIME,
    NormForm,
    Subspace,
    int_cleared,
    int_dtype,
    int_einsum,
    kernel_basis,
    ranks_mod_p,
)
from g2cert.reps import (
    Intertwiner,
    LieModule,
    _spin_basis,
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

from conftest import (
    abelian_algebra,
    action_matrices,
    bracket,
    coordinates_of,
    diagonal,
    direct_sum_algebra,
    direct_sum_module,
    fractions,
    int_family,
    leading_one_basis,
    lie_algebra,
    realization_matrices,
    reference_kernel_rows,
    reference_rank,
    reference_span,
    sl2_constants,
    span_of_rows,
    spin_contract,
    zero_algebra,
    zeros,
)

Z = Fraction(0)


@pytest.fixture(scope="module")
def zero_module_2d():
    return LieModule(zero_algebra(), np.zeros((0, 2, 2), dtype=np.int64))


@pytest.fixture(scope="module")
def complement_module(ctx):
    return ctx.complement_module


def test_hom_space_no_constraints(zero_module_2d):
    homs = hom_space(zero_module_2d, zero_module_2d)
    assert len(homs) == 4


def test_hom_space_solves_no_all_zero_system(monkeypatch):
    """Generators acting by zero impose no condition: their systems are all
    zero, keep every solution and never reach kernel_basis."""
    shapes = []
    real = reps.kernel_basis
    monkeypatch.setattr(reps, "kernel_basis", lambda m: shapes.append(m.shape) or real(m))
    trivial = LieModule(abelian_algebra(2), np.zeros((2, 3, 3), dtype=np.int64))
    assert len(hom_space(trivial, trivial)) == 9
    assert shapes == []


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
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    broken, den = so3.realization
    broken = broken.copy()
    broken[0] = den * np.eye(3, dtype=int)  # the identity matrix
    with pytest.raises(ValueError):
        LieModule(so3, broken, den)


def test_homomorphism_law_exact_beyond_int64():
    """Conjugating by a matrix with a 2**40 entry gives a module whose scaled
    law has products far beyond int64; the check stays exact."""
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    conj = _P @ realization_matrices(so3) @ _P_INV
    assert LieModule(so3, *int_cleared(conj)).dim == 3
    conj[0] = conj[0] + diagonal([1, 0, 0])
    with pytest.raises(ValueError):
        LieModule(so3, *int_cleared(conj))


def test_natural_rep_irreducible(natural_rep):
    cert = is_irreducible(natural_rep)
    assert cert.irreducible
    assert cert.commutant_dim == 1


def test_so34_adjoint_irreducible(so34):
    cert = is_irreducible(adjoint_module(so34))
    assert cert.irreducible


def test_double_copy_has_commutant_four(natural_rep):
    doubled = direct_sum_module(natural_rep, natural_rep)
    cert = is_irreducible(doubled)
    assert not cert.irreducible
    assert cert.commutant_dim == 4


def test_irreducibility_requires_semisimple():
    abelian = abelian_algebra(1)
    mod = LieModule(abelian, *int_cleared([zeros(2, 2)]))
    with pytest.raises(NotSemisimpleError):
        is_irreducible(mod)


def test_invariant_forms_no_constraints(zero_module_2d):
    forms = invariant_bilinear_forms(zero_module_2d)
    assert forms.dim == 4
    assert forms.symmetric.dim == 3


def test_invariant_forms_natural_rep(ctx, natural_rep):
    forms = invariant_bilinear_forms(natural_rep)
    assert forms.dim == 1
    assert forms.symmetric.dim == 1
    assert forms.signature == (3, 4, 0)
    # the line is spanned by the restricted Cayley Gram itself
    gen, imag = forms.generator, ctx.imaginary[1]
    assert fractions(gen.G, gen.den).tolist() == fractions(imag.G, imag.den).tolist()


def test_invariant_forms_sl2_adjoint_is_killing_line():
    sl2 = lie_algebra(sl2_constants())
    forms = invariant_bilinear_forms(adjoint_module(sl2))
    assert forms.dim == 1
    kf = killing_form(sl2)
    k = fractions(kf.G, kf.den)
    gen = fractions(forms.generator.G, forms.generator.den)
    ratio = next(
        gen[i][j] / k[i][j]
        for i in range(3)
        for j in range(3)
        if k[i][j]
    )
    assert gen.tolist() == (k * ratio).tolist()


def test_uniqueness_up_to_scale(natural_rep):
    forms = invariant_bilinear_forms(natural_rep)
    a = fractions(forms.generator.G, forms.generator.den)
    b = a * Fraction(-7, 3)
    ratio = next(
        b[i][j] / a[i][j] for i in range(7) for j in range(7) if a[i][j]
    )
    assert b.tolist() == (a * ratio).tolist() and ratio == Fraction(-7, 3)


def test_orthocomplement_of_whole_algebra(so34):
    assert killing_orthocomplement(so34, Subspace.full(21)).dim == 0


def test_orthocomplement_diagonal_so3():
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    both = direct_sum_algebra(so3, so3)
    diag = Subspace.from_vectors(
        6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    )
    comp = killing_orthocomplement(both, diag)
    assert comp.dim == 3
    anti = reference_span(6, [(1, 0, 0, -1, 0, 0), (0, 1, 0, 0, -1, 0), (0, 0, 1, 0, 0, -1)])
    assert comp == anti


def test_orthocomplement_of_image(ctx):
    assert ctx.complement.dim == 7


def test_orthocomplement_rejects_degenerate_restriction():
    sl2 = lie_algebra(sl2_constants())
    nilpotent_line = Subspace.from_vectors(3, [(0, 1, 0)])  # K(e,e) = 0
    with pytest.raises(DegenerateFormError):
        killing_orthocomplement(sl2, nilpotent_line)


def test_complement_is_invariant(ctx):
    """Restricting the action to the complement must succeed exactly."""
    mod = restriction_module(ctx.so34_as_g2_module, ctx.complement)
    assert mod.dim == 7


def test_submodule_generated_zero(natural_rep):
    assert [s.dim for s in submodule_generated(natural_rep, [(0,) * 7])] == [0]


def test_submodule_generated_any_vector_fills_natural_rep(natural_rep):
    for k in range(7):
        vec = tuple(int(i == k) for i in range(7))
        assert submodule_generated(natural_rep, [vec])[0].dim == 7
    assert submodule_generated(natural_rep, [(1, -2, 3, 0, 0, 5, 7)])[0].dim == 7
    with pytest.raises(ValueError):
        submodule_generated(natural_rep, [(Fraction(1, 3),) + (0,) * 6])


def test_submodule_generated_zero_algebra(zero_module_2d):
    vec = (1, 0)
    assert submodule_generated(zero_module_2d, [vec])[0].dim == 1
    assert [s.dim for s in submodule_generated(zero_module_2d, [(0, 1), (0, 0), (3, -2)])] == [1, 0, 1]


def test_submodule_generated_batch_edges(natural_rep):
    assert submodule_generated(natural_rep, []) == []
    batch = [(0,) * 7, (1, -2, 3, 0, 0, 5, 7), (0,) * 7]
    assert [s.dim for s in submodule_generated(natural_rep, batch)] == [0, 7, 0]
    with pytest.raises(ValueError):
        submodule_generated(natural_rep, [(1,) * 7, (Fraction(1, 3),) + (0,) * 6])
    with pytest.raises(ValueError):
        submodule_generated(natural_rep, [(1,) * 6])
    with pytest.raises(ValueError):
        submodule_generated(natural_rep, np.ones(7, dtype=np.int64))


def test_natural_module_skips_the_realizations_second_bracket_check(monkeypatch):
    g = so_of_form(NormForm(np.diag([1, 1, -1]).astype(np.int64)))
    checked = []
    monkeypatch.setattr(LieAlgebra, "bracket_law_failure", lambda self, a: checked.append(a.ints.shape))
    nat = natural_module(g)
    assert checked == []
    a, den = g.realization
    assert (nat.algebra, nat.A, nat.den, nat.dim) == (g, a, den, 3)


def test_bracket_span_examples(ctx):
    so34 = ctx.so34
    v = ctx.complement
    assert bracket_span(so34, v, Subspace(21, ())).dim == 0
    assert bracket_span(so34, v, v).dim == 21
    assert bracket_span(so34, ctx.g2_image, v) == v
    assert not ctx.g2_image.contains(bracket_span(so34, v, v))


def test_bracket_map_is_module_homomorphism(ctx):
    """[x,[u,w]] = [[x,u],w] + [u,[x,w]] for image elements x and u, w in the
    complement, exactly on all triples of their cleared basis rows: with
    br(a, b) = den [a, b] contracted from C, both sides are den^2 times the
    identity.  A few triples are also checked on Fractions."""
    so34 = ctx.so34
    c = so34.C
    xs, us = ctx.g2_image.basis, ctx.complement.basis

    def br(a, b):  # den [a_p, b_q] for the rows of a and b, by p, q, k
        return int_einsum("qj,pjk->pqk", b, int_einsum("pi,ijk->pjk", a, c)).ints

    xu = br(xs, us)  # also [x, w]
    lhs = br(xs, br(us, us).reshape(-1, 21)).reshape(14, 7, 7, 21)
    rhs = br(xu.reshape(-1, 21), us).reshape(14, 7, 7, 21) + br(us, xu.reshape(-1, 21)).reshape(7, 14, 7, 21).transpose(1, 0, 2, 3)
    assert lhs.shape == (14, 7, 7, 21) and np.any(lhs)
    assert np.array_equal(lhs, rhs)
    x_basis, u_basis = leading_one_basis(ctx.g2_image), leading_one_basis(ctx.complement)
    for x, u, w in ((x_basis[0], u_basis[0], u_basis[1]), (x_basis[13], u_basis[6], u_basis[3])):
        xu = bracket(so34, x, u)
        lhs = bracket(so34, x, bracket(so34, u, w))
        rhs = tuple(a + b for a, b in zip(bracket(so34, xu, w), bracket(so34, u, bracket(so34, x, w))))
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
    generic = fractions(homs[0].T, homs[0].den) + 2 * fractions(homs[1].T, homs[1].den)
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


def _minimal_polynomial(m: np.ndarray) -> tuple[Fraction, ...]:
    """Monic minimal polynomial, low-degree coefficients first: the first
    linear dependency among I, m, m^2, ..."""
    powers = [np.eye(len(m), dtype=object)]
    while True:
        powers.append(powers[-1] @ m)
        kern = reference_kernel_rows(int_cleared(np.array([p.flatten() for p in powers]).T)[0])
        if kern:
            c = kern[0]
            return tuple(x / c[-1] for x in c)


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def test_wedge_so_isomorphism_plane():
    plane = NormForm(np.eye(2, dtype=int))
    iso = wedge_so_isomorphism(plane, so_of_form(plane))
    assert iso.source.dim == 1 and iso.target.dim == 1
    assert iso.is_invertible
    # phi(e1 ^ e2) is the rotation generator up to basis normalization
    so2 = iso.target.algebra
    image = (realization_matrices(so2)[0] * Fraction(int(iso.T[0][0]), iso.den)).tolist()
    assert image == [[0, -1], [1, 0]] or image == [[0, 1], [-1, 0]]


def test_wedge_so_isomorphism_full(ctx):
    iso = wedge_so_isomorphism(ctx.imaginary[1], ctx.so34)
    assert reference_rank(iso.T) == 21
    assert iso.is_invertible


def test_wedge_so_isomorphism_subalgebra_equivariance(ctx, natural_rep):
    iso = wedge_so_isomorphism(ctx.imaginary[1], ctx.so34)
    # the same matrix intertwines the restricted wedge action of the image
    Intertwiner(
        source=wedge_square(natural_rep),
        target=ctx.so34_as_g2_module,
        T=iso.T,
        den=iso.den,
    )


def test_wedge_so_isomorphism_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        wedge_so_isomorphism(NormForm(diagonal([1, 1, 0])), so_of_form(NormForm(np.eye(3, dtype=int))))


def test_module_isomorphism_identity(natural_rep):
    iso = module_isomorphism(natural_rep, natural_rep)
    assert iso is not None and iso.is_invertible
    # commutant is one-dimensional, so this is a multiple of the identity
    matrix = fractions(iso.T, iso.den)
    ratio = matrix[0][0]
    assert matrix.tolist() == (np.eye(7, dtype=object) * ratio).tolist()


def test_module_isomorphism_complement_to_natural(ctx, natural_rep, complement_module):
    iso = module_isomorphism(complement_module, natural_rep)
    assert iso is not None and iso.is_invertible


def test_module_isomorphism_dimension_mismatch(ctx, natural_rep):
    adj = adjoint_module(ctx.derivations)
    assert module_isomorphism(adj, natural_rep) is None


def test_module_isomorphism_singular_line_is_none():
    """diag(1, 2) and diag(1, 3) share one eigenvalue: Hom is the line of
    E11, which is singular, so the modules are not isomorphic."""
    line = abelian_algebra(1)
    v = LieModule(line, *int_cleared([diagonal([1, 2])]))
    w = LieModule(line, *int_cleared([diagonal([1, 3])]))
    assert len(hom_space(v, w)) == 1
    assert module_isomorphism(v, w) is None


def test_module_isomorphism_undecided_raises(zero_module_2d):
    """Hom of the trivial 2-dim module is all of M_2, whose canonical basis
    E_ij is all singular: the search is undecided, not a "no"."""
    with pytest.raises(PreconditionError):
        module_isomorphism(zero_module_2d, zero_module_2d)


def test_intertwiner_exact_beyond_int64():
    """Products of the scaled entries pass 2**63, so the check runs on Python
    ints; it still accepts an intertwiner and rejects a non-intertwiner."""
    v = LieModule(abelian_algebra(1), *int_cleared([diagonal([2**40, 0])]))
    assert Intertwiner(source=v, target=v, T=diagonal([2**40, 3]))
    with pytest.raises(ValueError):
        Intertwiner(source=v, target=v, T=np.array([[0, 2**40], [0, 0]], dtype=object))


def test_intertwiner_validation(natural_rep):
    with pytest.raises(ValueError):
        Intertwiner(
            source=natural_rep,
            target=natural_rep,
            T=diagonal([1, 2, 3, 4, 5, 6, 7]),
        )
    # T rho != rho T for rho = E_01 and T = diag(1/2, 1/3), Fractions that int64 casting would make 0
    rho = LieModule(abelian_algebra(1), np.array([[[0, 1], [0, 0]]], dtype=np.int64))
    with pytest.raises(ValueError):
        Intertwiner(source=rho, target=rho, T=diagonal([Fraction(1, 2), Fraction(1, 3)]))


@pytest.mark.parametrize(
    "stack",
    [
        np.array([[[Fraction(1, 2), 0], [0, Fraction(1, 3)]]], dtype=object),  # not truncated to 0
        np.full((1, 2, 2), Fraction(0), dtype=object),
        np.zeros((1, 2, 2)),
    ],
)
def test_module_rejects_non_integer_stack(stack):
    with pytest.raises(TypeError):
        LieModule(abelian_algebra(1), stack)


@pytest.mark.parametrize("den", [1.5, 2.0, np.int64(2), True])
def test_constructors_reject_a_non_int_denominator(den):
    """LieModule and Intertwiner take a Python int denominator, as
    SuiteConfig takes its ints: a float, a numpy integer or a bool raises
    ValueError, where 2 gives a module and an intertwiner."""
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    a, s = so3.realization
    nat = natural_module(so3)
    assert s == 1 and Intertwiner(nat, LieModule(so3, 2 * a, 2), np.eye(3, dtype=np.int64), den=2).is_invertible
    with pytest.raises(ValueError):
        LieModule(so3, 2 * a, den)
    with pytest.raises(ValueError):
        Intertwiner(nat, nat, np.eye(3, dtype=np.int64), den=den)


def test_natural_module_requires_realization():
    with pytest.raises(ValueError):
        natural_module(abelian_algebra(2))


def test_restriction_module_rejects_non_invariant_subspace(natural_rep):
    line = Subspace.from_vectors(7, [[1, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="not invariant"):
        restriction_module(natural_rep, line)


# -- the integer builders against the Fraction loops they replaced ----------


def _apply(m, v):
    return tuple(m @ np.array(v, dtype=object))


def _wedge_square_reference(mats, n):
    """x.(e_i ^ e_j) = (x e_i) ^ e_j + e_i ^ (x e_j), entry by entry."""
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {p: a for a, p in enumerate(idx)}
    out = []
    for m in mats:
        rows = [[Z] * len(idx) for _ in idx]
        for col, (i, j) in enumerate(idx):
            for k in range(n):
                c = m[k][i]
                if c:  # (e_k ^ e_j) term
                    if k < j:
                        rows[pos[(k, j)]][col] += c
                    elif k > j:
                        rows[pos[(j, k)]][col] -= c
                c = m[k][j]
                if c:  # (e_i ^ e_k) term
                    if i < k:
                        rows[pos[(i, k)]][col] += c
                    elif i > k:
                        rows[pos[(k, i)]][col] -= c
        out.append(rows)
    return out


def _restricted_action_reference(v, sub):
    """Column j of generator i: the coordinates_of (A[i] / den) (basis[j] / s)
    on the leading-1 basis of sub, the image taken in integers."""
    out = []
    for a in v.A.astype(object):
        cols = [coordinates_of(sub, [Fraction(x, v.den * sub.den) for x in image]) for image in (sub.basis @ a.T).tolist()]
        if any(c is None for c in cols):
            raise ValueError("subspace is not invariant under the action")
        out.append(np.array(cols, dtype=object).T.tolist())
    return out


def _reference_closure(n, vectors, images):
    """The ``reference_span`` of integer vectors n wide, grown by the rational
    rows images(B) of its integer basis B until it is stable or the whole
    space (B spans what the leading-1 basis does)."""
    current = reference_span(n, vectors)
    while True:
        grown = reference_span(n, int_family([*current.basis.tolist(), *images(current.basis)], n).tolist())
        if grown.dim in (current.dim, n):
            return grown
        current = grown


def _action_images(v):
    """Each row's images under the integer stack: A[i] x / den spans what
    A[i] x does."""
    stack = v.A.astype(object)
    return lambda rows: np.concatenate([rows @ m.T for m in stack]).tolist()


def _submodule_generated_reference(v, vec):
    """The span of vec and its images under the action, grown until stable."""
    return _reference_closure(v.dim, [vec], _action_images(v))


_P = np.array([[1, 2**40, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
_P_INV = np.array([[1, -(2**40), 0], [0, 1, 0], [0, 0, 1]], dtype=object)


@pytest.fixture(scope="module")
def so3():
    return so_of_form(NormForm(np.eye(3, dtype=int)))


@pytest.fixture(scope="module")
def big_module(so3):
    """so(3) on Q^3 conjugated by _P, plus so(3) on Q^3: the cleared stack has
    entries of size 2**80, so every product runs on Python ints."""
    conj = LieModule(so3, *int_cleared(_P @ realization_matrices(so3) @ _P_INV))
    v = direct_sum_module(conj, natural_module(so3))
    assert v.A.dtype == object and int(np.max(np.abs(v.A))) > 2**62
    return v


_SCALE = 2**58 + 1


@pytest.fixture(scope="module")
def scaled_module(so3):
    """so(3) on Q^3 conjugated by a shear, with stack and denominator both
    scaled by _SCALE: the stack stays int64, but the stack times another
    scaled module's denominator does not fit (the largest entry is 5 * _SCALE,
    below 2**61)."""
    p = np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
    p_inv = np.array([[1, -2, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
    a, den = int_cleared(p @ realization_matrices(so3) @ p_inv)
    v = LieModule(so3, a * _SCALE, den * _SCALE)
    assert v.A.dtype == np.int64
    return v


def _graph_of_p():
    """The invariant subspace {(P w, w)} of big_module."""
    units = [[int(i == k) for i in range(3)] for k in range(3)]
    return Subspace.from_vectors(6, [_apply(_P, u) + tuple(u) for u in units])


def _reference_cases(natural_rep, so3, big_module, scaled_module):
    """(module, invariant subspaces, seed vectors) for each reference test."""
    unit = lambda n, k: tuple(int(i == k) for i in range(n))
    return [
        (
            natural_rep,
            [Subspace.full(7)],
            [unit(7, 0), unit(7, 6), (1, -2, 3, 0, 0, 5, 7)],
        ),
        (adjoint_module(so3), [Subspace.full(3)], [unit(3, 1), (2**70, 0, 0)]),
        (
            big_module,
            [_graph_of_p(), Subspace.from_vectors(6, [unit(6, k) for k in range(3)])],
            [
                unit(6, 0),
                unit(6, 4),
                _apply(_P, unit(3, 1)) + unit(3, 1),
                unit(3, 0) + unit(3, 0),  # P e_1 = e_1: inside the graph
                unit(3, 1) + unit(3, 1),  # P e_2 != e_2: generates everything
            ],
        ),
        (scaled_module, [Subspace.full(3)], [unit(3, 2)]),
    ]


def test_wedge_square_matches_reference(natural_rep, so3, big_module, scaled_module):
    """Built by lemma, each wedge square still passes the full law check."""
    for v, _, _ in _reference_cases(natural_rep, so3, big_module, scaled_module):
        wedge = wedge_square(v)
        assert action_matrices(wedge).tolist() == _wedge_square_reference(action_matrices(v), v.dim)
        assert v.algebra.bracket_law_failure(wedge.action) is None


def test_modules_built_by_lemma_satisfy_the_full_law(ctx, natural_rep):
    """The reference for every lemma a run builds a module by: the full
    bracket-law check passes on each stack built through ``LieModule._raw``."""
    der, so34 = ctx.derivations, ctx.so34
    modules = (
        adjoint_module(der),
        adjoint_module(so34),
        natural_module(der),
        natural_module(so34),
        natural_rep,
        ctx.complement_module,
        wedge_square(natural_rep),
        wedge_square(natural_module(so34)),
        ctx.so34_as_g2_module,
    )
    for i, v in enumerate(modules):
        assert v.algebra.bracket_law_failure(v.action) is None, i
    assert [v.dim for v in modules] == [14, 21, 8, 7, 7, 7, 21, 21, 21]


def test_restriction_module_matches_reference(ctx, natural_rep, so3, big_module, scaled_module):
    """Each restriction equals the Fraction reference, and its stack passes
    the checking constructor's full law check."""
    cases = _reference_cases(natural_rep, so3, big_module, scaled_module)
    cases.append((ctx.so34_as_g2_module, [ctx.complement], []))
    # the graph of 2**-32 times the identity: basis denominator s = 2**32, so
    # the int64 images times s pass 2**63
    nat = natural_module(so3)
    graph = Subspace.from_vectors(6, [[2**32 * int(i == k) for i in range(3)] + [int(i == k) for i in range(3)] for k in range(3)])
    cases.append((direct_sum_module(nat, nat), [graph], []))
    for v, subs, _ in cases:
        for sub in subs:
            m = restriction_module(v, sub)
            assert action_matrices(m).tolist() == _restricted_action_reference(v, sub)
            assert action_matrices(LieModule(v.algebra, m.A, m.den)).tolist() == action_matrices(m).tolist()


def _closure_steps(seed, images):
    """seed.closure(images) and the dimension of each span it took images of."""
    dims = []
    return seed.closure(lambda b: dims.append(len(b)) or images(b)), dims


def test_closure_matches_reference_growth(so34, natural_rep, so3, big_module, scaled_module):
    """Subspace.closure under module stacks and under brackets (of sl2 and
    so(3,4)) equals the Fraction reference growth; some seeds grow twice or
    more before they are stable or fill the space."""
    steps = []
    for v, _, vectors in _reference_cases(natural_rep, so3, big_module, scaled_module):
        for vec in vectors:
            closed, dims = _closure_steps(Subspace.from_vectors(v.dim, [vec]), lambda b: int_einsum("imn,jn->ijm", v.A, b).ints.reshape(-1, v.dim))
            assert closed == _reference_closure(v.dim, [vec], _action_images(v))
            steps.append(dims)
    unit = lambda n, k: tuple(int(i == k) for i in range(n))
    sl2 = lie_algebra(sl2_constants())
    seeds = [(sl2, [unit(3, 1)]), (sl2, [unit(3, 1), unit(3, 2)]), (sl2, [(1, 1, 0)]), (so34, [unit(21, 0), unit(21, 1)]), (so34, [unit(21, 12), (1,) * 21])]
    for g, vectors in seeds:
        brackets = lambda rows: [bracket(g, x, y) for i, x in enumerate(rows) for y in rows[i + 1 :]]
        closed, dims = _closure_steps(Subspace.from_vectors(g.dim, vectors), lambda b: g.bracket_table(b, b)[np.triu_indices(len(b), 1)])
        assert closed == _reference_closure(g.dim, vectors, brackets)
        steps.append(dims)
    # e.g. the last seed grows four times, from 2 to 3, 5, 10 and 21 dimensions
    assert steps == [[1], [1, 6], [1], [1], [1], [1, 3], [1, 3], [1, 3], [1, 3], [1, 4], [1], [1], [2], [1], [2, 3], [2, 3, 5, 10]]


def test_submodule_generated_matches_reference(natural_rep, so3, big_module, scaled_module):
    dims = []
    for v, _, vectors in _reference_cases(natural_rep, so3, big_module, scaled_module):
        for vec in vectors:
            generated = submodule_generated(v, [vec])[0]
            assert generated == _submodule_generated_reference(v, vec)
            dims.append(generated.dim)
    assert dims == [7, 7, 7, 3, 3, 3, 3, 3, 3, 6, 3]


def test_submodule_generated_batch_matches_reference(natural_rep, so3, big_module, scaled_module):
    """One batch per module, the zero vector included: every row equals the
    single-vector reference."""
    for v, _, vectors in _reference_cases(natural_rep, so3, big_module, scaled_module):
        batch = [*vectors, (0,) * v.dim]
        for vec, generated in zip(batch, submodule_generated(v, batch)):
            assert generated == _submodule_generated_reference(v, vec)


def test_submodule_generated_matches_reference_on_the_maximality_seeds(ctx, monkeypatch):
    """All 7 + 300 seeds of a seed-7 maximality run, captured as the check
    hands them over; some of them fall short mod p in one step and take the
    exact loop."""
    batches = []
    monkeypatch.setattr(suite, "submodule_generated", lambda v, vecs: batches.append(vecs) or submodule_generated(v, vecs))
    assert check_maximality(ctx, SuiteConfig(samples=300, seed=7)).status == "pass"
    (seeds,) = batches
    v = ctx.complement_module
    assert seeds.shape == (307, 7)
    one_step = np.concatenate([seeds[:, None], np.einsum("imn,kn->kim", v.A, seeds)], axis=1)
    short = np.flatnonzero(ranks_mod_p(one_step) < 7)
    assert 0 < len(short) < len(seeds)
    exact, loop = [], reps._generated_exactly

    def spy(v, vec):
        exact.append(vec)
        return loop(v, vec)

    monkeypatch.setattr(reps, "_generated_exactly", spy)
    batch = submodule_generated(v, seeds)
    assert np.array_equal(np.array(exact), seeds[short])  # only the rows that fall short run the exact loop
    for vec, generated in zip(seeds, batch):
        assert generated == _submodule_generated_reference(v, tuple(map(int, vec)))


def test_submodule_generated_falls_back_where_the_rank_mod_p_falls_short(so3):
    """An action entry equal to PRIME: mod p the one-step system of e_1 is
    just e_1, over Q it spans Q^3, and the exact loop returns Q^3."""
    a, den = so3.realization
    v = LieModule(so3, a * PRIME, den * PRIME)
    assert int(np.max(np.abs(v.A))) == PRIME
    one_step = np.concatenate([[(1, 0, 0)], int_einsum("imn,n->im", v.A, (1, 0, 0)).ints])
    assert (ranks_mod_p(one_step[None]).tolist(), reference_rank(one_step)) == ([1], 3)
    assert submodule_generated(v, [(1, 0, 0), (0, 0, 0)]) == [Subspace.full(3), Subspace(3, ())]


def test_hom_space_on_large_entry_modules(so3, big_module, scaled_module):
    """Hom(big, big) is M_2(Q): big is two copies of one absolutely
    irreducible module.  On the scaled module the stack times the other
    denominator passes int64."""
    homs = hom_space(big_module, big_module)
    assert len(homs) == 4
    block = np.zeros((6, 6), dtype=object)
    block[:3, 3:] = _P
    span = reference_span(36, [h.T.flatten().tolist() for h in homs])
    assert coordinates_of(span, block.flatten()) is not None
    nat = natural_module(so3)
    other = LieModule(so3, nat.A * (_SCALE + 2), _SCALE + 2)
    # both premises of scaled_module: an int64 stack whose product with other's denominator passes 2**61
    assert scaled_module.A.dtype == np.int64 and scaled_module.action.bound * other.den >= 2**61
    assert len(hom_space(scaled_module, other)) == len(hom_space(other, scaled_module)) == 1
    assert module_isomorphism(scaled_module, other).is_invertible


# -- the spin-basis Hom solver against the Kronecker system it replaced ------


def _sylvester_kernel(a, b):
    """Common kernel of T -> T a[i] - b[i] T (T row-major): the first pair as
    one Kronecker system in nrows * ncols unknowns, each later pair on the
    surviving span."""
    nrows, ncols = b.shape[1], a.shape[1]
    size = nrows * ncols
    peak = 2 * max(int(np.max(np.abs(a), initial=0)), int(np.max(np.abs(b), initial=0)))
    a, b = a.astype(int_dtype(peak)), b.astype(int_dtype(peak))
    vectors = None
    for a_i, b_i in zip(a, b):
        if vectors is None:
            system = np.kron(np.eye(nrows, dtype=a.dtype), a_i.T) - np.kron(b_i, np.eye(ncols, dtype=b.dtype))
            vectors = kernel_basis(system).basis
        else:
            t = vectors.reshape(-1, nrows, ncols)
            images = (int_einsum("hij,jl->hil", t, a_i).ints - int_einsum("ij,hjl->hil", b_i, t).ints).reshape(len(vectors), size)
            vectors = int_einsum("uh,hn->un", kernel_basis(images.T).basis, vectors).ints
        if not len(vectors):
            return Subspace(size, ())
    if vectors is None:
        return Subspace.full(size)
    return Subspace.from_vectors(size, vectors.tolist())


def _hom_reference(v, w):
    peak = max(w.den * int(np.max(np.abs(v.A), initial=0)), v.den * int(np.max(np.abs(w.A), initial=0)))
    return _sylvester_kernel(v.A.astype(int_dtype(peak)) * w.den, w.A.astype(int_dtype(peak)) * v.den)


def _seed_count(v):
    return spin_contract(v.A, *_spin_basis(v.A))


def test_hom_space_matches_kronecker_reference(ctx, so3, zero_module_2d, big_module, complement_module):
    """Equal canonical Hom bases and invariant-form bases on cyclic,
    non-cyclic, zero-Hom, zero-algebra and Python-int modules, and on one
    whose generator 0 acts by zero: an all-zero first system, then a stacked
    rest that still cuts."""
    nat = natural_module(so3)
    nilpotent = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64)
    zero_then_n = LieModule(abelian_algebra(2), np.stack([np.zeros_like(nilpotent), nilpotent]))
    four = direct_sum_module(direct_sum_module(nat, nat), direct_sum_module(nat, nat))
    adj_so3_so3 = adjoint_module(direct_sum_algebra(so3, so3))
    adj_der = adjoint_module(ctx.derivations)
    cases = [
        (adjoint_module(ctx.so34), adjoint_module(ctx.so34), 1),
        (ctx.so34_as_g2_module, ctx.so34_as_g2_module, 2),
        (four, four, 16),
        (adj_so3_so3, adj_so3_so3, 2),
        (adj_der, complement_module, 0),
        (zero_module_2d, zero_module_2d, 4),
        (big_module, big_module, 4),
        (zero_then_n, zero_then_n, 3),  # the commutant of N: polynomials in N
    ]
    for v, w, dim in cases:
        homs = hom_space(v, w)
        assert len(homs) == dim
        # each basis element is its leading-1 row, and that row cleared is primitive
        leading_one = [fractions(h.T, h.den).flatten() for h in homs]
        assert span_of_rows(w.dim * v.dim, leading_one) == _hom_reference(v, w)
    for v in {id(m): m for v, w, _ in cases for m in (v, w)}.values():
        forms = invariant_bilinear_forms(v)
        reference = _sylvester_kernel(v.A, -v.A.transpose(0, 2, 1))
        assert forms.space == reference
    assert _seed_count(four) == 4
    assert _seed_count(adj_so3_so3) == 2
    assert _seed_count(zero_module_2d) == 2


def test_hom_space_solves_in_target_dim_unknowns_per_seed(ctx, monkeypatch):
    """The commutant of the cyclic 21-dim adjoint module of so(3,4) is solved
    for the one seed image, 21 unknowns, not for a 21 x 21 matrix."""
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return kernel_basis(m)

    monkeypatch.setattr(reps, "kernel_basis", recording)
    adj = adjoint_module(ctx.so34)
    assert len(hom_space(adj, adj)) == 1
    assert shapes and max(cols for _, cols in shapes) <= 21


def test_hom_space_forms_no_dense_system(ctx, monkeypatch):
    """End(ad so(3,4)) forms each generator's rows on the surviving
    solutions only: no contraction has more than 21 * 21 * 21 entries (the
    dense system over every generator had 21 * 441 * 21), and the call's
    allocation peak stays under 1.5 MB."""
    adj = adjoint_module(ctx.so34)
    sizes, real = [], reps.int_einsum

    def recording(spec, *operands):
        out = real(spec, *operands)
        sizes.append(out.ints.size)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(reps, "int_einsum", recording)
        assert len(hom_space(adj, adj)) == 1
    assert sizes and max(sizes) <= 21**3
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert len(hom_space(adj, adj)) == 1
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
