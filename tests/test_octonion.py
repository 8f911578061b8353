import json
import pathlib
from decimal import Decimal
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import g2cert.linalg as linalg
from g2cert.linalg import NormForm, signature
from g2cert.octonion import SplitCayley, StructureConstantAlgebra, _zorn_multiply, build_split_cayley

from conftest import basis_element, cayley_mutant, conjugate, form_bilinear, form_norm, leading_one_basis, random_element

GOLDEN = pathlib.Path(__file__).parent / "data" / "mul_table.json"

octonion_coords = st.tuples(
    *[st.integers(min_value=-9, max_value=9) for _ in range(8)]
).map(lambda t: tuple(Fraction(x) for x in t))


@pytest.fixture(scope="module")
def alg():
    return build_split_cayley()


def test_unit(alg):
    e = alg.unit
    assert form_norm(alg.form, e) == 1
    for i in range(8):
        b = basis_element(i)
        assert alg.algebra.multiply(e, b) == b
        assert alg.algebra.multiply(b, e) == b


def test_diagonal_idempotent_is_isotropic(alg):
    u = basis_element(0)
    assert alg.algebra.multiply(u, u) == u
    assert form_norm(alg.form, u) == 0
    complement = tuple(a - b for a, b in zip(alg.unit, u))
    assert all(x == 0 for x in alg.algebra.multiply(u, complement))  # zero divisors exist


def test_composition_law_on_basis_pairs(alg):
    for i in range(8):
        for j in range(8):
            a, b = basis_element(i), basis_element(j)
            assert form_norm(alg.form, alg.algebra.multiply(a, b)) == form_norm(alg.form, a) * form_norm(alg.form, b)


def test_composition_law_seeded_sample(alg):
    rng = Random(2024)
    for _ in range(100):
        a, b = random_element(rng), random_element(rng)
        assert form_norm(alg.form, alg.algebra.multiply(a, b)) == form_norm(alg.form, a) * form_norm(alg.form, b)


@given(octonion_coords, octonion_coords)
def test_composition_law_property(alg, a, b):
    assert form_norm(alg.form, alg.algebra.multiply(a, b)) == form_norm(alg.form, a) * form_norm(alg.form, b)


@given(octonion_coords, octonion_coords)
def test_polarization_identity(alg, a, b):
    both = tuple(x + y for x, y in zip(a, b))
    assert 2 * form_bilinear(alg.form, a, b) == form_norm(alg.form, both) - form_norm(alg.form, a) - form_norm(alg.form, b)


@given(octonion_coords, octonion_coords)
def test_alternativity_property(alg, a, b):
    aa = alg.algebra.multiply(a, a)
    assert alg.algebra.multiply(aa, b) == alg.algebra.multiply(a, alg.algebra.multiply(a, b))
    assert alg.algebra.multiply(b, aa) == alg.algebra.multiply(alg.algebra.multiply(b, a), a)


def test_alternativity_on_basis_pairs(alg):
    for i in range(8):
        for j in range(8):
            a, b = basis_element(i), basis_element(j)
            aa = alg.algebra.multiply(a, a)
            assert alg.algebra.multiply(aa, b) == alg.algebra.multiply(a, alg.algebra.multiply(a, b))
            assert alg.algebra.multiply(b, aa) == alg.algebra.multiply(alg.algebra.multiply(b, a), a)


@given(octonion_coords, octonion_coords)
def test_conjugation_antiautomorphism(alg, a, b):
    ab = alg.algebra.multiply(a, b)
    assert conjugate(alg, ab) == alg.algebra.multiply(conjugate(alg, b), conjugate(alg, a))


@given(octonion_coords)
def test_conjugation_involution_and_norm(alg, a):
    ca = conjugate(alg, a)
    assert conjugate(alg, ca) == a
    expected = tuple(form_norm(alg.form, a) * x for x in alg.unit)
    assert alg.algebra.multiply(a, ca) == expected


def test_conjugate_fixes_unit_and_negates_imaginaries(alg):
    assert conjugate(alg, alg.unit) == alg.unit
    sub, _ = alg.form.unit_facts(alg.unit).imaginary
    for b in leading_one_basis(sub):
        assert conjugate(alg, b) == tuple(-x for x in b)


def test_norm_signature(alg):
    assert signature(alg.form.G) == (4, 4, 0)


def test_imaginary_subspace(alg):
    sub, restricted = alg.form.unit_facts(alg.unit).imaginary
    assert sub.dim == 7
    assert signature(restricted.G) == (3, 4, 0)
    assert not sub.contains(np.array([alg.unit], dtype=object))


def test_nonassociativity_witness_exists(alg):
    basis = [basis_element(i) for i in range(8)]
    mul = alg.algebra.multiply
    assert any(
        mul(mul(a, b), c) != mul(a, mul(b, c))
        for a in basis
        for b in basis
        for c in basis
    )


def test_structure_constants_golden(alg):
    """The Zorn basis order is pinned, so the table must never drift."""
    table = [
        [[str(x) for x in alg.algebra.mul[i][j]] for j in range(8)]
        for i in range(8)
    ]
    golden = json.loads(GOLDEN.read_text())
    assert table == golden


def test_integer_construction_matches_fraction_reference(alg):
    """The Zorn product on integer basis vectors gives the tensor, Gram
    matrix and unit that the same product on Fraction basis vectors gave."""
    basis = [basis_element(i) for i in range(8)]
    reference = StructureConstantAlgebra(8, [[_zorn_multiply(x, y) for y in basis] for x in basis])
    assert alg.algebra.M.tolist() == reference.M.tolist() and alg.algebra.den == reference.den == 1
    assert alg.algebra.M.dtype == reference.M.dtype == np.int64
    gram = np.zeros((8, 8), dtype=int)
    gram[0, 1] = gram[1, 0] = 1
    gram[[2, 3, 4, 5, 6, 7], [5, 6, 7, 2, 3, 4]] = -1
    assert alg.form.G.tolist() == gram.tolist() and alg.form.den == 2
    assert alg.unit == (Fraction(1), Fraction(1)) + (Fraction(0),) * 6
    assert all(type(x) is int for x in alg.unit)


def test_matrix_algebra_unit_detection(matrix_algebra_2x2):
    alg = matrix_algebra_2x2
    assert alg.dim == 4
    e11 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e12 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert alg.multiply(e11, e12) == e12
    assert alg.multiply(e12, e11) == (Fraction(0),) * 4


def test_one_complement_per_form_and_unit(monkeypatch):
    """Mutants that share the form and unit share one imaginary pair, solved
    once; another unit or another form instance is solved afresh."""
    base = build_split_cayley()
    a, b = (SplitCayley(cayley_mutant(changes).algebra, base.form, base.unit) for changes in ({(2, 3, 0): 1}, {(0, 0, 0): -1}))
    other_unit = SplitCayley(base.algebra, base.form, (1,) + (0,) * 7)
    other_form = SplitCayley(base.algebra, NormForm(base.form.G, base.form.den), base.unit)
    calls, solve = [], linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda m: calls.append(m) or solve(m))

    def imaginary(x):
        return x.form.unit_facts(x.unit).imaginary

    assert imaginary(a) is imaginary(b) and imaginary(base) is imaginary(a)
    assert len(calls) == 1
    assert imaginary(other_unit)[0] != imaginary(a)[0] and len(calls) == 2
    assert imaginary(other_form) is not imaginary(a) and len(calls) == 3
    assert imaginary(other_form)[0] == imaginary(a)[0] and imaginary(other_form)[1].G.tolist() == imaginary(a)[1].G.tolist()


@pytest.mark.parametrize("form_dim, unit_len", [(7, 8), (8, 7), (9, 9)])
def test_split_cayley_rejects_a_form_or_unit_of_another_dimension(form_dim, unit_len):
    """Malformed input is refused where it enters, not by a broadcast error
    in the cayley check or an empty assertion in the derivations stage."""
    base = build_split_cayley()
    form = base.form if form_dim == 8 else NormForm(np.eye(form_dim, dtype=np.int64))
    with pytest.raises(ValueError, match="dimension"):
        SplitCayley(base.algebra, form, ((1,) * unit_len))


def test_unit_facts_reject_another_length_and_an_inexact_entry():
    """A 7-entry unit raises ValueError; a float unit is read by int_cleared,
    which raises TypeError."""
    form = build_split_cayley().form
    with pytest.raises(ValueError, match="dimension"):
        form.unit_facts((1, 1) + (0,) * 5)
    with pytest.raises(TypeError):
        form.unit_facts((1.0, 1.0) + (0.0,) * 6)
    n = form.unit_facts((1, 1) + (0,) * 6).n
    assert (int(n.ints), n.den) == (2, 2)


def test_int64_constants_are_copied_not_frozen():
    """An integer array is read without clearing, into a copy: the caller's
    array stays writeable and unaliased, and writing to it changes nothing."""
    m = build_split_cayley().algebra.M.copy()
    alg = StructureConstantAlgebra(8, m)
    assert m.flags.writeable and not alg.M.flags.writeable
    assert not np.shares_memory(m, alg.M) and alg.M.dtype == np.int64 and alg.den == 1
    m[0, 0, 0] = 5
    assert alg.M[0, 0, 0] == 1 and alg.mul[0][0][0] == 1


def test_int64_constants_past_the_int64_rule_become_python_ints():
    """int_dtype's rule holds on the integer path too: an entry of 2**61 or
    more comes out as object dtype, every entry a Python int."""
    m = build_split_cayley().algebra.M.copy()
    m[2, 3, 4] = 2**61
    alg = StructureConstantAlgebra(8, m)
    assert alg.M.dtype == object and alg.structure.bound == 2**61 and alg.den == 1
    assert {type(x) for x in alg.M.flat} == {int} and alg.M.tolist() == m.tolist()


@pytest.mark.parametrize(
    "mul",
    [
        [[[0] * 8] * 8] * 7,  # one row short
        [[[0] * 8] * 8] * 7 + [[[0] * 8] * 7 + [[0] * 7]],  # one product short
        [[[0] * 8] * 8] * 7 + [[[0] * 8] * 7 + [[0] * 7 + [[0]]]],  # a leaf nested one level deeper
        [[[[0] * 8] * 8] * 8],  # one level too many
        np.zeros((8, 8, 7), dtype=np.int64),
        np.zeros((8, 8, 8, 1), dtype=object),
    ],
)
def test_a_ragged_or_misshaped_tensor_is_rejected(mul):
    with pytest.raises(ValueError):
        StructureConstantAlgebra(8, mul)


def test_inexact_constants_are_rejected_and_numpy_integers_read_as_ints():
    """A numpy integer leaf is read as the Python int it holds; a float, a
    string or a Decimal leaf is not an exact rational the caller wrote, and
    raises TypeError (0.1 would otherwise be 3602879701896397 / 2**55)."""
    base = build_split_cayley().algebra
    mul = [[list(p) for p in row] for row in base.M.tolist()]
    mul[2][3][0] = np.int64(-3)
    alg = StructureConstantAlgebra(8, mul)
    assert alg.den == 1 and alg.mul[2][3][0] == -3
    assert {type(x) for x in alg.M.flat} == {np.int64}
    for leaf in (0.5, np.float64(0.25), "1/3", Decimal("0.5")):
        mul[7][7][1] = leaf
        with pytest.raises(TypeError):
            StructureConstantAlgebra(8, mul)
    with pytest.raises(TypeError):
        StructureConstantAlgebra(1, [[[0.1]]])
