import json
import pathlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2cert.linalg import signature
from g2cert.octonion import StructureConstantAlgebra, build_split_cayley

GOLDEN = pathlib.Path(__file__).parent / "data" / "mul_table.json"

octonion_coords = st.tuples(
    *[st.integers(min_value=-9, max_value=9) for _ in range(8)]
).map(lambda t: tuple(Fraction(x) for x in t))


@pytest.fixture(scope="module")
def alg():
    return build_split_cayley()


def test_unit(alg):
    e = alg.unit
    assert alg.norm(e) == 1
    for i in range(8):
        b = alg.basis_element(i)
        assert alg.multiply(e, b) == b
        assert alg.multiply(b, e) == b


def test_diagonal_idempotent_is_isotropic(alg):
    u = alg.basis_element(0)
    assert alg.multiply(u, u) == u
    assert alg.norm(u) == 0
    complement = tuple(a - b for a, b in zip(alg.unit, u))
    assert all(x == 0 for x in alg.multiply(u, complement))  # zero divisors exist


def test_composition_law_on_basis_pairs(alg):
    for i in range(8):
        for j in range(8):
            a, b = alg.basis_element(i), alg.basis_element(j)
            assert alg.norm(alg.multiply(a, b)) == alg.norm(a) * alg.norm(b)


def test_composition_law_seeded_sample(alg):
    rng = Random(2024)
    for _ in range(100):
        a, b = alg.random_element(rng), alg.random_element(rng)
        assert alg.norm(alg.multiply(a, b)) == alg.norm(a) * alg.norm(b)


@given(octonion_coords, octonion_coords)
def test_composition_law_property(a, b):
    alg = build_split_cayley()
    assert alg.norm(alg.multiply(a, b)) == alg.norm(a) * alg.norm(b)


@given(octonion_coords, octonion_coords)
def test_polarization_identity(a, b):
    alg = build_split_cayley()
    both = tuple(x + y for x, y in zip(a, b))
    assert 2 * alg.bilinear(a, b) == alg.norm(both) - alg.norm(a) - alg.norm(b)


@given(octonion_coords, octonion_coords)
def test_alternativity_property(a, b):
    alg = build_split_cayley()
    aa = alg.multiply(a, a)
    assert alg.multiply(aa, b) == alg.multiply(a, alg.multiply(a, b))
    assert alg.multiply(b, aa) == alg.multiply(alg.multiply(b, a), a)


def test_alternativity_on_basis_pairs(alg):
    for i in range(8):
        for j in range(8):
            a, b = alg.basis_element(i), alg.basis_element(j)
            aa = alg.multiply(a, a)
            assert alg.multiply(aa, b) == alg.multiply(a, alg.multiply(a, b))
            assert alg.multiply(b, aa) == alg.multiply(alg.multiply(b, a), a)


@given(octonion_coords, octonion_coords)
def test_conjugation_antiautomorphism(a, b):
    alg = build_split_cayley()
    ab = alg.multiply(a, b)
    assert alg.conjugate(ab) == alg.multiply(alg.conjugate(b), alg.conjugate(a))


@given(octonion_coords)
def test_conjugation_involution_and_norm(a):
    alg = build_split_cayley()
    ca = alg.conjugate(a)
    assert alg.conjugate(ca) == a
    expected = tuple(alg.norm(a) * x for x in alg.unit)
    assert alg.multiply(a, ca) == expected


def test_conjugate_fixes_unit_and_negates_imaginaries(alg):
    assert alg.conjugate(alg.unit) == alg.unit
    sub, _ = alg.imaginary_subspace()
    for b in sub.basis:
        assert alg.conjugate(b) == tuple(-x for x in b)


def test_norm_signature(alg):
    assert signature(alg.form.gram) == (4, 4, 0)


def test_imaginary_subspace(alg):
    sub, restricted = alg.imaginary_subspace()
    assert sub.dim == 7
    assert signature(restricted) == (3, 4, 0)
    assert not sub.contains_vector(alg.unit)


def test_nonassociativity_witness_exists(alg):
    basis = [alg.basis_element(i) for i in range(8)]
    assert any(
        alg.multiply(alg.multiply(a, b), c) != alg.multiply(a, alg.multiply(b, c))
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


def test_unit_index_validation():
    with pytest.raises(ValueError):
        StructureConstantAlgebra(
            dim=1, mul=(((Fraction(2),),),), unit_index=0
        )


def test_matrix_algebra_unit_detection(matrix_algebra_2x2):
    alg = matrix_algebra_2x2
    assert alg.dim == 4
    e11 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e12 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert alg.multiply(e11, e12) == e12
    assert alg.multiply(e12, e11) == (Fraction(0),) * 4
