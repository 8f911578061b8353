from fractions import Fraction

import numpy as np
import pytest

from g2cert import lie
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
from g2cert.linalg import NormForm, Subspace, int_cleared, int_dtype, max_abs
from g2cert.octonion import StructureConstantAlgebra

from conftest import (
    abelian_algebra,
    ad,
    bracket,
    cayley_mutant,
    coordinates_of,
    diagonal,
    direct_sum_algebra,
    fractions,
    gram,
    leading_one_basis,
    leibniz_rows,
    lie_algebra,
    realization_matrices,
    reference_kernel,
    reference_kernel_rows,
    reference_rank,
    reference_span,
    sl2_constants,
)

Z = Fraction(0)


@pytest.fixture(scope="module")
def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return lie_algebra(sl2_constants())


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


@pytest.mark.parametrize(
    "brackets",
    [
        np.zeros((2, 2, 2, 1), dtype=np.int64),  # a fourth axis
        np.zeros((2, 2, 3), dtype=np.int64),
        np.zeros((2, 3, 2), dtype=object),
        np.zeros((2, 2), dtype=np.int64),
    ],
)
def test_misshaped_bracket_tensor_rejected(brackets):
    with pytest.raises(ValueError):
        LieAlgebra(brackets)


@pytest.mark.parametrize(
    "tensor",
    [
        np.full((1, 1, 1), Fraction(0), dtype=object),  # integral Fractions
        np.array([[[Fraction(1, 2), 0], [0, 0]], [[0, 0], [0, 0]]], dtype=object),
        np.zeros((2, 2, 2)),  # floats
        np.zeros((2, 2, 2), dtype=bool),
        [[[0]]],  # a nested list, not an array
    ],
)
def test_lie_algebra_rejects_non_integer_tensor(tensor):
    with pytest.raises(TypeError):
        LieAlgebra(tensor)


@pytest.mark.parametrize("den", [0, -1])
def test_lie_algebra_rejects_non_positive_denominator(den):
    with pytest.raises(ValueError, match="denominator"):
        LieAlgebra(np.zeros((2, 2, 2), dtype=np.int64), den)


@pytest.mark.parametrize("den", [True, np.int64(2), 2.0, Fraction(2)])
def test_lie_algebra_takes_a_python_int_denominator(den):
    """A bool, a numpy integer, a float or a Fraction is rejected as a
    denominator below 1 is, not stored or handed to math.gcd."""
    with pytest.raises(ValueError, match="denominator"):
        LieAlgebra(np.zeros((2, 2, 2), dtype=np.int64), den)


def test_lie_algebra_is_held_in_lowest_terms(sl2):
    """Scaling C and den by one factor gives the same algebra; a tensor past
    int64 after the scaling comes back to int64."""
    for factor in (6, 2**70):
        g = LieAlgebra(sl2.C.astype(object) * factor, sl2.den * factor)
        assert (g.C.tolist(), g.den) == (sl2.C.tolist(), sl2.den) and g.C.dtype == np.int64


def test_constants_beyond_int64_checked_exactly():
    """With n = 2**40 the cleared tensor has entries 2n^2 = 2**81, so the
    antisymmetry and Jacobi checks run on Python ints; both still accept sl2
    and reject a one-unit drift."""
    n = 2**40
    g = lie_algebra(sl2_constants(n))
    assert g.C.dtype == object and g.den == n
    assert bracket(g, _unit(3, 1), _unit(3, 2)) == (Fraction(1, n), Z, Z)
    with pytest.raises(ValueError, match="Jacobi"):
        lie_algebra(sl2_constants(n, drift=1))
    lopsided = sl2_constants(n)
    lopsided[1][0][1] -= 1
    with pytest.raises(ValueError, match="antisymmetric"):
        lie_algebra(lopsided)


def _bracket_by_units(g):
    """Reference table: table[i][j] = [e_i, e_j] as Fractions, column j of
    the Fraction matrix ad(e_i)."""
    n = g.dim
    return [[tuple(a[:, j]) for j in range(n)] for a in (ad(g, _unit(n, i)) for i in range(n))]


def test_killing_form_matches_trace_reference(sl2, derivations, so34):
    """den^2 K[i, j] = trace(ad_i ad_j) on every basis pair, with ad_i =
    C[i]^T read off the tensor and multiplied as matrices; a few pairs are
    also checked on the Fraction matrices of ``ad``."""
    scaled = [lie_algebra(sl2_constants(n)) for n in (Fraction(2, 3), 2**40)]
    for g in (sl2, derivations, so34, *scaled):
        kf = killing_form(g)
        n, cmax = g.dim, int(np.max(np.abs(g.C)))
        ads = g.C.transpose(0, 2, 1).astype(int_dtype(n * n * cmax * cmax))
        traces = np.trace(ads[:, None] @ ads[None], axis1=2, axis2=3).astype(object)
        # K = G / kden and trace(ad_i ad_j) = traces / den^2
        assert np.array_equal(traces * kf.den, kf.G.astype(object) * g.den**2)
        for i, j in ((0, 0), (0, n - 1), (n // 2, 1)):
            x, y = _unit(n, i), _unit(n, j)
            assert np.trace(ad(g, x) @ ad(g, y)) == Fraction(int(kf.G[i, j]), kf.den)


def test_from_matrix_basis_on_non_canonical_basis():
    """The span of a scaled and sheared basis of sl2: the algebra is realized
    on that span's canonical basis, and its constants are the coordinates of
    each commutator of that basis in it (the Fraction oracle
    coordinates_of)."""
    h, e, f = (np.array(m, dtype=object) for m in ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]))
    mats = np.array([3 * h + e, Fraction(1, 2) * e - f, 5 * f + Fraction(2, 3) * h])
    span = Subspace.from_vectors(4, int_cleared(mats)[0].reshape(3, 4))
    g = LieAlgebra.from_matrix_basis(span)
    basis = [np.array(row, dtype=object).reshape(2, 2) for row in leading_one_basis(span)]
    assert np.array_equal(realization_matrices(g), np.array(basis))
    for i in range(3):
        for j in range(3):
            comm = (basis[i] @ basis[j] - basis[j] @ basis[i]).flatten()
            assert bracket(g, _unit(3, i), _unit(3, j)) == coordinates_of(span, comm)
    # the span is sl2, whose canonical basis h, e, f brackets with integer constants
    assert (g.den, span) == (1, reference_span(4, [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)]))


def test_bracket_table_matches_bracket():
    g = lie_algebra(sl2_constants(Fraction(2, 3)))
    table = g.bracket_table(np.eye(3, dtype=int), np.array([(1, 2, -1), (0, 0, 3)]))
    ref = _bracket_by_units(g)
    assert g.den > 1
    for i in range(3):
        first, second = ([Fraction(x, g.den) for x in col] for col in table[i])
        assert first == [a + 2 * b - c for a, b, c in zip(*ref[i])]
        assert second == [3 * c for c in ref[i][2]]


def test_centralizer_and_transporter_match_row_by_row_reference(sl2, derivations):
    """The einsum systems against systems built row by row from brackets."""
    both = direct_sum_algebra(so_of_form(NormForm(np.eye(3, dtype=int))), sl2)
    cases = [
        (derivations, Subspace.from_vectors(14, [_unit(14, 0), [int(k in (3, 5)) for k in range(14)]])),
        (both, Subspace.from_vectors(6, [_unit(6, i) for i in range(3)])),
        (both, Subspace.from_vectors(6, [_unit(6, 3), _unit(6, 4)])),
    ]
    for g, s in cases:
        n, table = g.dim, _bracket_by_units(g)
        # [x, v] = sum_i x_i [e_i, v]; row (v, k) in the unknowns x_i
        rows = [
            [sum(v[j] * table[i][j][k] for j in range(n)) for i in range(n)]
            for v in leading_one_basis(s)
            for k in range(n)
        ]
        assert centralizer(g, s) == reference_kernel(int_cleared(rows)[0])
        # [h, e_j] pairs to zero with every annihilator row u of s
        ann = reference_kernel_rows(int_cleared(leading_one_basis(s))[0])
        rows = [
            [sum(u[k] * table[i][j][k] for k in range(n)) for i in range(n)]
            for j in range(n)
            for u in ann
        ]
        assert transporter_into(g, s) == reference_kernel(int_cleared(rows)[0])


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        LieAlgebra(np.ones((1, 1, 1), dtype=np.int64))


def _non_jacobi(dim):
    """The antisymmetric [e1,e2] = e3, [e1,e3] = e1, [e2,e3] = e2, padded with
    an abelian summand to dim, which fails Jacobi."""
    bad = np.zeros((dim,) * 3, dtype=np.int64)
    bad[0, 1, 2], bad[1, 0, 2] = 1, -1
    bad[0, 2, 0], bad[2, 0, 0] = 1, -1
    bad[1, 2, 1], bad[2, 1, 1] = 1, -1
    return bad


def test_jacobi_enforced_for_small_algebras():
    # [e1,e2] = e1 with all else zero violates Jacobi only in dim >= 3;
    # use the classic non-example [e1,e2]=e3, [e1,e3]=e3 variant, alone and
    # padded with an abelian summand to dimension 13
    for dim in (3, 13):
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra(_non_jacobi(dim))


def test_derivations_of_the_base_field(rational_line_algebra):
    assert derivation_algebra(rational_line_algebra).dim == 0


def test_derivations_of_matrix_algebra_are_inner(matrix_algebra_2x2):
    assert derivation_algebra(matrix_algebra_2x2).dim == 3


def _rescaled(alg, scale):
    """The same algebra in the basis f_k = scale[k] e_k."""
    mul = tuple(
        tuple(
            tuple(c * scale[i] * scale[j] / scale[k] for k, c in enumerate(prod))
            for j, prod in enumerate(row)
        )
        for i, row in enumerate(alg.mul)
    )
    return StructureConstantAlgebra(dim=alg.dim, mul=mul)


def _so_rows(b):
    """Entry (i, j), i <= j, of X^T b + b X in the unknowns X[k][m]."""
    n = len(b)
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Z] * (n * n)
            for k in range(n):
                row[k * n + i] += b[k][j]
                row[k * n + j] += b[i][k]
            rows.append(row)
    return rows


def test_derivation_system_matches_row_by_row_reference(matrix_algebra_2x2):
    """The integer system gives the kernel of the row-by-row Fraction
    system, in int64 and (for the 2**70 rescaling) with Python ints."""
    for alg in (
        cayley_mutant({(1, 2, 3): 1}).algebra,
        _rescaled(matrix_algebra_2x2, (1, Fraction(2, 3), 5, 1)),
        _rescaled(matrix_algebra_2x2, (1, Fraction(2**70), 1, 1)),
    ):
        expected = reference_kernel_rows(leibniz_rows(alg))
        assert tuple(tuple(d.flat) for d in realization_matrices(derivation_algebra(alg))) == expected


def test_so_system_matches_row_by_row_reference():
    for b in (
        diagonal([1, -2, Fraction(1, 3), 5]),
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2**70]], dtype=object),
    ):
        expected = reference_kernel_rows(int_cleared(_so_rows(b))[0])
        so_b = so_of_form(NormForm(int_cleared(b)[0]))
        assert tuple(tuple(x.flat) for x in realization_matrices(so_b)) == expected


def test_derivations_with_non_integer_structure_constants(matrix_algebra_2x2):
    """Rescaling basis vectors by 2/3 and 5 gives constants such as 2/3, 3/2
    and 1/5; the derivations must still satisfy the Leibniz rule exactly."""
    alg = _rescaled(matrix_algebra_2x2, (1, Fraction(2, 3), 5, 1))
    assert any(x.denominator > 1 for row in alg.mul for prod in row for x in prod)
    der = derivation_algebra(alg)
    assert der.dim == 3
    basis = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    for d in realization_matrices(der):
        for x in basis:
            for y in basis:
                lhs = d @ np.array(alg.multiply(x, y), dtype=object)
                rhs = [
                    a + b
                    for a, b in zip(alg.multiply(d @ np.array(x), y), alg.multiply(x, d @ np.array(y)))
                ]
                assert list(lhs) == rhs


def test_derivations_of_split_cayley(cayley, derivations):
    assert derivations.dim == 14
    g = gram(cayley)
    for d in realization_matrices(derivations):
        assert all(x == 0 for x in d @ np.array(cayley.unit))
        assert all(x == 0 for x in (d.T @ g + g @ d).flat)


def test_killing_abelian():
    kf = killing_form(abelian_algebra(2))
    assert not kf.G.any()
    assert kf.signature == (0, 0, 2)


def test_killing_sl2(sl2):
    kf = killing_form(sl2)
    gram = fractions(kf.G, kf.den)
    assert gram[0][0] == 8
    assert gram[1][2] == 4
    assert gram[2][1] == 4
    assert gram[0][1] == 0
    assert gram[0][2] == 0
    assert gram[1][1] == 0


def test_killing_of_derivations(derivations):
    kf = killing_form(derivations)
    assert kf.signature == (8, 6, 0)
    assert kf.nondegenerate


def test_killing_ad_invariance(derivations):
    """K([z,x],y) + K(x,[z,y]) = 0 on all basis triples: with t = C G, whose
    entry (z, x, y) is den kden K([z,x],y), the sum is t + t^T over (x, y).
    A few triples are also checked on Fractions."""
    g, kf = derivations, killing_form(derivations)
    n = g.dim
    peak = n * int(np.max(np.abs(g.C))) * int(np.max(np.abs(kf.G)))
    t = g.C.astype(int_dtype(peak)) @ kf.G.astype(int_dtype(peak))
    assert t.shape == (n, n, n) and np.any(t)
    assert not np.any(t + t.transpose(0, 2, 1))
    k = fractions(kf.G, kf.den)
    for z, x, y in ((0, 1, 2), (3, 7, 11), (13, 5, 5)):
        zx = bracket(g, _unit(n, z), _unit(n, x))
        zy = bracket(g, _unit(n, z), _unit(n, y))
        assert sum(zx[m] * k[m][y] for m in range(n)) + sum(k[x][m] * zy[m] for m in range(n)) == 0


def test_semisimplicity(sl2, derivations):
    assert not is_semisimple(abelian_algebra(3))
    assert is_semisimple(sl2)
    assert is_semisimple(derivations)


def test_so3():
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    assert so3.dim == 3
    assert is_semisimple(so3)


def test_so34(so34):
    assert so34.dim == 21
    assert killing_form(so34).signature == (12, 9, 0)


def test_so34_jacobi(so34):
    assert so34.bracket_law_failure(so34.C.transpose(0, 2, 1), so34.den, so34.cmax) is None


def test_so_of_form_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        so_of_form(NormForm(diagonal([1, 0])))


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
    seed = Subspace.from_vectors(21, np.vstack([ctx.g2_image.basis, ctx.complement.basis[:1]]))
    assert subalgebra_closure(so34, seed).dim == 21


def _kernel_shapes(monkeypatch):
    """The shape of every system lie hands kernel_basis, recorded by a spy."""
    shapes, solve = [], lie.kernel_basis
    monkeypatch.setattr(lie, "kernel_basis", lambda m: shapes.append(m.shape) or solve(m))
    return shapes


def test_centralizer_of_zero(sl2, monkeypatch):
    """The general path: a system with 0 rows, whose kernel is everything."""
    shapes = _kernel_shapes(monkeypatch)
    assert centralizer(sl2, Subspace(3, ())) == Subspace.full(3)
    assert shapes == [(0, 3)]


def test_centralizer_of_sl2_in_itself(sl2):
    assert centralizer(sl2, Subspace.full(3)).dim == 0


def test_centralizer_of_image_in_so34(ctx):
    assert centralizer(ctx.so34, ctx.g2_image).dim == 0


def test_transporter_into_whole(sl2, monkeypatch):
    """The whole space has a zero annihilator, so the bracket system has 0 rows."""
    shapes = _kernel_shapes(monkeypatch)
    assert transporter_into(sl2, Subspace.full(3)) == Subspace.full(3)
    assert shapes == [(3, 3), (0, 3)]


def test_transporter_into_zero_is_center(sl2, monkeypatch):
    """The zero target's annihilator comes from a system with 0 rows."""
    shapes = _kernel_shapes(monkeypatch)
    assert transporter_into(sl2, Subspace(3, ())) == Subspace(3, ())
    abelian = abelian_algebra(2)
    assert transporter_into(abelian, Subspace(2, ())) == Subspace.full(2)
    assert shapes == [(0, 3), (9, 3), (0, 2), (4, 2)]


def test_transporter_into_complement_is_zero(ctx):
    assert transporter_into(ctx.so34, ctx.complement).dim == 0


def test_direct_sum_killing_restriction():
    so3 = so_of_form(NormForm(np.eye(3, dtype=int)))
    both = direct_sum_algebra(so3, so3)
    diag = Subspace.from_vectors(
        6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    )
    restricted = killing_form(both).restricted(diag.basis, diag.den)
    assert reference_rank(restricted.G) == 3


def test_from_matrix_basis_rejects_unclosed_family():
    """The bracket is built, and the span's closure proved, on the first read
    of any of its parts, each here on a fresh algebra; the dimension needs no
    bracket."""
    mats = np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])  # [e,f] escapes
    for attr in ("C", "den", "cmax", "realization"):
        g = LieAlgebra.from_matrix_basis(Subspace.from_vectors(4, mats.reshape(2, 4)))
        assert g.dim == 2
        with pytest.raises(ValueError, match="not closed under commutators"):
            getattr(g, attr)


def test_realization_coordinates_need_a_realization():
    """An algebra given by its structure constants carries no realization, so
    reading coordinates in one raises the ValueError of reps.natural_module."""
    g = LieAlgebra(np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="no matrix realization"):
        g.realization_coordinates(np.zeros((1, 1), dtype=np.int64))


def test_realization_consistency_enforced():
    """A realization enters only through from_matrix_basis, which proves it
    faithful.  A zero realization satisfies the bracket law of every C, and
    once carried this 4-dimensional antisymmetric C, which fails Jacobi, past
    the constructor; LieAlgebra(C) now takes no realization and rejects that
    C.  A zero or other dependent family is no realization at all: a stack
    is no argument, and its span realizes on a basis."""
    bad = _non_jacobi(4)
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(bad)
    with pytest.raises(TypeError):
        LieAlgebra(bad, realization=(np.zeros((4, 2, 2), dtype=np.int64), 1))
    for dependent, dim in ((np.zeros((4, 2, 2), dtype=np.int64), 0), (np.array([np.eye(3, dtype=int)] * 3), 1)):
        with pytest.raises(TypeError):
            LieAlgebra.from_matrix_basis(dependent)
        n = dependent.shape[1]
        g = LieAlgebra.from_matrix_basis(Subspace.from_vectors(n * n, dependent.reshape(len(dependent), n * n)))
        assert (g.dim, g.realization[0].shape) == (dim, (dim, n, n))


@pytest.mark.parametrize(
    "stack, den, error",
    [
        (np.zeros((1, 2, 2)), 1, TypeError),  # floats
        (np.array([[[Fraction(1, 2)]]], dtype=object), 1, TypeError),
        ([[[1]]], 1, TypeError),  # a nested list, not an array
        (np.zeros((1, 2, 3), dtype=np.int64), 1, ValueError),  # not square
        (np.eye(2, dtype=np.int64), 1, ValueError),  # not a stack
    ],
)
def test_from_matrix_basis_rejects_malformed_stacks(stack, den, error):
    """from_matrix_basis takes a Subspace: neither a stack nor a stack beside
    its denominator is one (TypeError).  The span of an integer stack's rows,
    each flattened, is one, and rows that are not n x n matrices flattened,
    of width n^2, raise ValueError."""
    for arg in (stack, (stack, den)):
        with pytest.raises(TypeError):
            LieAlgebra.from_matrix_basis(arg)
    if error is ValueError:
        rows = stack.reshape(len(stack), -1)
        with pytest.raises(ValueError, match="n\\^2"):
            LieAlgebra.from_matrix_basis(Subspace.from_vectors(rows.shape[1], rows))


def test_from_matrix_basis_of_the_empty_family():
    """The empty span of flattened 3 x 3 matrices is the 0-dimensional
    algebra, realized on no matrices over the empty basis's denominator 1."""
    g = LieAlgebra.from_matrix_basis(Subspace(9, ()))
    a, den = g.realization
    assert (g.dim, g.C.shape, g.den, a.shape, den) == (0, (0, 0, 0), 1, (0, 3, 3), 1)
    assert g.realization_coordinates(np.zeros((2, 9), dtype=np.int64)).shape == (2, 0)
    assert g.realization_coordinates(np.eye(9, dtype=np.int64)[:1]) is None


def test_from_matrix_basis_algebras_satisfy_every_law(ctx):
    """The reference for from_matrix_basis's lemma: the full bracket-law check
    on the realization, antisymmetry and Jacobi all pass for the derivation
    algebra and so(3,4), which no constructor re-checks."""
    for g in (ctx.derivations, ctx.so34):
        a, den = g.realization
        assert g.bracket_law_failure(a, den, max_abs(a)) is None
        assert not np.any(g.C + g.C.transpose(1, 0, 2))
        assert g.bracket_law_failure(g.C.transpose(0, 2, 1), g.den, g.cmax) is None


def _first_law_failure(g, a, scale):
    """The pair loop the batched bracket-law check replaced, on Python ints."""
    a, c = a.astype(object), g.C.astype(object)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if not np.array_equal(g.den * (a[i] @ a[j] - a[j] @ a[i]), scale * np.tensordot(c[i, j], a, axes=(0, 0))):
                return i, j
    return None


def test_bracket_law_failure_matches_the_pair_loop(so34):
    """so(3,4)'s realization with one entry moved, on int64 and scaled past
    it: the batched check finds the first failing pair (i < j) of the loop."""
    a, den = so34.realization
    for k, scale in ((0, 1), (7, 1), (20, 1), (7, 2**70)):
        moved = a.astype(object) * scale
        moved[k, 0, 1] += 1
        if scale == 1:
            moved = moved.astype(np.int64)
        expected = _first_law_failure(so34, moved, den * scale)
        assert expected is not None and so34.bracket_law_failure(moved, den * scale, max_abs(moved)) == expected
