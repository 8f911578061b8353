import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.linalg import (
    Matrix,
    Subspace,
    _kernel_modular,
    _rows_to_int,
    kernel_basis,
    rref,
    signature,
)

fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_cols))
    return Matrix(
        [[draw(fractions) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_identity():
    r = rref(Matrix.identity(3))
    assert r.reduced == Matrix.identity(3)
    assert r.rank == 3
    assert r.pivots == (0, 1, 2)


def test_rref_rank_one():
    r = rref(Matrix([[1, 1], [2, 2]]))
    assert r.reduced == Matrix([[1, 1], [0, 0]])
    assert r.rank == 1
    assert r.pivots == (0,)


def test_kernel_zero_matrix():
    assert kernel_basis(Matrix.zeros(2, 2)).dim == 2


def test_kernel_line():
    k = kernel_basis(Matrix([[1, 1]]))
    assert k.dim == 1
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_span_ops_trivial():
    a = Subspace.from_vectors(2, [(1, 0)])
    assert a.sum(a) == a and a.intersection(a) == a
    assert a.contains(a)


def test_span_ops_complementary_lines():
    a = Subspace.from_vectors(2, [(1, 0)])
    b = Subspace.from_vectors(2, [(0, 1)])
    assert a.sum(b).dim == 2
    assert a.intersection(b).dim == 0
    assert a != b and not a.contains(b)


def test_span_ops_dimension_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).sum(Subspace.full(3))
    with pytest.raises(ValueError):
        Subspace.full(2).intersection(Subspace.full(3))


def test_signature_diagonal():
    assert signature(Matrix.diagonal([2, -3, 0])) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    h = Matrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert signature(h) == (1, 1, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(Matrix([[0, 1], [0, 0]]))


@given(matrices())
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).dim == m.ncols


@given(matrices())
def test_rref_idempotent(m):
    reduced = rref(m).reduced
    assert rref(reduced).reduced == reduced


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m).basis:
        assert all(x == 0 for x in m.apply(v))


@given(matrices(square=True, max_rows=4), st.integers(min_value=0, max_value=2**32))
def test_signature_congruence_invariant(m, seed):
    s = m + m.transpose()
    rng = random.Random(seed)
    n = s.nrows
    lower = [[Fraction(rng.randint(-3, 3)) if i > j else (Fraction(1) if i == j else Fraction(0)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.randint(-3, 3)) if i < j else (Fraction(1) if i == j else Fraction(0)) for j in range(n)] for i in range(n)]
    p = Matrix(lower) * Matrix(upper)  # unit triangular product: always invertible
    assert signature(p.transpose() * s * p) == signature(s)


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=4), st.integers(0, 2**32))
def test_subspace_canonicalization(vectors, seed):
    """Different spanning sets of the same space store identical bases."""
    sub = Subspace.from_vectors(3, vectors)
    rng = random.Random(seed)
    mixed = list(vectors)
    for _ in range(4):
        i, j = rng.randrange(len(vectors)), rng.randrange(len(vectors))
        c = Fraction(rng.randint(1, 5))
        mixed.append(tuple(a + c * b for a, b in zip(mixed[i], mixed[j])))
    rng.shuffle(mixed)
    assert Subspace.from_vectors(3, mixed) == sub


@given(
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_span_dimension_formula(vecs_a, vecs_b):
    a = Subspace.from_vectors(4, vecs_a)
    b = Subspace.from_vectors(4, vecs_b)
    total, common = a.sum(b), a.intersection(b)
    assert total.dim + common.dim == a.dim + b.dim
    assert total.contains(a) and total.contains(b)
    assert a.contains(common) and b.contains(common)


@given(matrices(max_rows=5, max_cols=4))
def test_modular_kernel_agrees_with_exact(m):
    """The certified modular fast path computes the same canonical kernel."""
    int_rows = [r for r in _rows_to_int(m.rows) if any(r)]
    if not int_rows:
        return
    vecs = _kernel_modular(int_rows, m.ncols)
    assert vecs is not None
    assert Subspace.from_vectors(m.ncols, vecs) == kernel_basis(m)


def test_modular_kernel_large_system():
    """A system big enough to route through the modular path by default."""
    rng = random.Random(99)
    rows = []
    for _ in range(160):
        row = [0] * 130
        for _ in range(5):
            row[rng.randrange(130)] = rng.randint(-4, 4)
        rows.append(row)
    m = Matrix(rows)
    kern = kernel_basis(m)
    assert kern.dim == m.ncols - rref(m).rank
    for v in kern.basis:
        assert all(x == 0 for x in m.apply(v))


@pytest.mark.parametrize(
    "row", [[2**40 + 15, 2**40 - 87], [2**40 + 15, 2**40 - 87, 0]]
)
def test_modular_kernel_verifies_big_integer_candidates(row):
    """Candidates too large for int64 are verified exactly with Python ints."""
    vecs = _kernel_modular([row], len(row))
    assert vecs is not None
    assert Subspace.from_vectors(len(row), vecs) == kernel_basis(Matrix([row]))


def test_unlucky_first_prime_falls_back_to_fraction_free():
    """A pivot equal to the first prime vanishes modulo it; the pivot patterns
    of the first two primes disagree and kernel_basis falls back."""
    rng = random.Random(7)
    ncols = 120
    rows = [[2147483647] + [0] * (ncols - 1)]
    for _ in range(109):
        row = [0] * ncols
        for _ in range(5):
            row[rng.randrange(1, ncols)] = rng.randint(-4, 4)
        rows.append(row)
    m = Matrix(rows)
    assert _kernel_modular([r for r in rows if any(r)], ncols) is None
    kern = kernel_basis(m)
    assert kern.dim == ncols - rref(m).rank
    for v in kern.basis:
        assert v[0] == 0
        assert all(x == 0 for x in m.apply(v))


def test_subspace_coordinates_roundtrip():
    sub = Subspace.from_vectors(3, [(1, 2, 0), (0, 1, 1)])
    vec = tuple(Fraction(x) for x in (2, 5, 1))
    coords = sub.coordinates_of(vec)
    assert coords is not None
    rebuilt = [Fraction(0)] * 3
    for c, b in zip(coords, sub.basis):
        for j, x in enumerate(b):
            rebuilt[j] += c * x
    assert tuple(rebuilt) == vec
    assert sub.coordinates_of((1, 0, 0)) is None
