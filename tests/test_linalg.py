import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import g2cert.lie as lie
import g2cert.linalg as linalg
from g2cert.lie import derivation_algebra, so_of_form
from g2cert.linalg import (
    PRIME,
    Exact,
    Matrix,
    NormForm,
    Subspace,
    _unforced_columns,
    independent_rows,
    int_cleared,
    int_dtype,
    int_einsum,
    int_inverse,
    is_int_array,
    kernel_basis,
    max_abs,
    rank,
    ranks_mod_p,
    rref,
    signature,
)
from g2cert.octonion import StructureConstantAlgebra, build_split_cayley
from g2cert.reps import LieModule, natural_module, restriction_module, submodule_generated

from conftest import (
    coordinates_of,
    fractions as rationals,
    diagonal,
    form_bilinear,
    form_norm,
    int_family,
    leading_one_basis,
    primitive_rows,
    reference_inverse,
    reference_kernel,
    reference_kernel_rows,
    reference_rank,
    reference_rref,
    reference_signature,
    reference_span,
    span_of_rows,
    three_pass_cleared,
    zeros,
)

fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    """An object array of Fractions."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_cols))
    return np.array([[draw(fractions) for _ in range(cols)] for _ in range(rows)], dtype=object)


def cleared(m):
    """A rational array times its least common denominator: the same kernel
    and, for a symmetric matrix, the same inertia."""
    return int_cleared(m)[0]


def apply(m, v):
    return np.array(m, dtype=object) @ np.array(v, dtype=object)


def test_rref_identity():
    r = rref(np.eye(3, dtype=int))
    assert r.reduced == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert r.rank == 3
    assert r.pivots == (0, 1, 2)


def test_rref_rank_one():
    r = rref(np.array([[1, 1], [2, 2]]))
    assert r.reduced == ((1, 1), (0, 0))
    assert r.rank == 1
    assert r.pivots == (0,)


def test_inverse():
    m = Matrix([[2, Fraction(1, 3)], [0, -1]])
    assert m.inverse().rows == ((Fraction(1, 2), Fraction(1, 6)), (0, -1))
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).inverse()


@pytest.mark.parametrize("leaf", [0.1, np.float64(2.0), "1/3", Decimal("0.5")])
def test_matrix_rejects_an_inexact_entry(leaf):
    """Matrix reads its entries as int_cleared does: 0.1 would otherwise be
    held as 3602879701896397 / 2**55."""
    with pytest.raises(TypeError):
        Matrix([[1, leaf], [0, 1]])


def test_matrix_reads_a_numpy_integer_as_an_int():
    m = Matrix([[np.int64(2), 1], [0, 1]])
    assert m.inverse().rows == ((Fraction(1, 2), Fraction(-1, 2)), (0, 1))
    assert {type(x) for row in m.rows for x in row} == {Fraction}


def test_kernel_zero_matrix():
    assert kernel_basis(zeros(2, 2)).dim == 2


def test_kernel_line():
    k = kernel_basis(np.array([[1, 1]]))
    assert k.dim == 1
    assert leading_one_basis(k) == ((Fraction(1), Fraction(-1)),)


def test_span_ops_trivial():
    a = Subspace.from_vectors(2, [(1, 0)])
    assert a.sum(a) == a
    assert a.contains(a)


def test_span_ops_complementary_lines():
    a = Subspace.from_vectors(2, [(1, 0)])
    b = Subspace.from_vectors(2, [(0, 1)])
    assert a.sum(b).dim == 2
    assert a.dim + b.dim - a.sum(b).dim == 0  # the intersection, by dimension
    assert a != b and not a.contains(b)


def test_span_ops_dimension_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).sum(Subspace.full(3))


def test_signature_diagonal():
    assert signature(diagonal([2, -3, 0])) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    h = cleared([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert signature(h) == (1, 1, 0)


def test_signature_rejects_asymmetric():
    """An asymmetric matrix, and inexact entries, which int() would truncate
    (the float array to a symmetric one)."""
    with pytest.raises(ValueError):
        signature(np.array([[0, 1], [0, 0]]))
    for m in ([[0.5]], np.array([[0.5, 1], [1.4, 0]]), [[Fraction(1, 2)]]):
        with pytest.raises(TypeError):
            signature(m)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices, cleared to integers: small entries,
    entries past 2**63, and zero diagonals that force the fold repair
    (hyperbolic blocks, and null rows among them)."""
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.one_of(fractions, st.sampled_from([0, 2**64 + 3, -(2**70), Fraction(2**63 + 1, 3)]))
    zero_diagonal = draw(st.booleans())
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i < j or not zero_diagonal:
                m[i][j] = m[j][i] = Fraction(draw(entries))
    return cleared(m)


@given(symmetric_matrices())
def test_signature_matches_fraction_reference(m):
    assert signature(m) == reference_signature(m.tolist())
    assert signature(m.tolist()) == signature(m)


@pytest.mark.parametrize(
    "m, expected",
    [
        ([[0, 1], [1, 0]], (1, 1, 0)),  # fold, no diagonal to swap in
        ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], (1, 1, 1)),  # fold past a null row
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[0, 2, 0], [2, 0, 0], [0, 0, -5]], (1, 2, 0)),  # swap, then fold
        ([[2**70, 2**69], [2**69, 2**68]], (1, 0, 1)),
        ([[-(2**64), 1], [1, 2**64]], (1, 1, 0)),
    ],
)
def test_signature_repairs_and_big_entries(m, expected):
    assert signature(m) == reference_signature(m) == expected


@pytest.mark.parametrize("m", [[[0, 1], [0, 0]], [[1, 2**64], [2**64 + 1, 1]], [[1, 2]]])
def test_signature_rejects_non_symmetric(m):
    with pytest.raises(ValueError):
        signature(m)
    with pytest.raises(ValueError):
        signature(np.array(m, dtype=object))


@given(matrices())
def test_rank_nullity(m):
    assert rank(cleared(m)) + kernel_basis(cleared(m)).dim == m.shape[1]


@given(matrices())
def test_rref_idempotent(m):
    reduced = rref(cleared(m)).reduced
    assert rref(cleared(reduced)).reduced == reduced


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in leading_one_basis(kernel_basis(cleared(m))):
        assert all(x == 0 for x in apply(m, v))


@given(matrices(square=True, max_rows=4), st.integers(min_value=0, max_value=2**32))
def test_signature_congruence_invariant(m, seed):
    s = m + m.T
    rng = random.Random(seed)
    n = len(s)
    lower = [[Fraction(rng.randint(-3, 3)) if i > j else (Fraction(1) if i == j else Fraction(0)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.randint(-3, 3)) if i < j else (Fraction(1) if i == j else Fraction(0)) for j in range(n)] for i in range(n)]
    p = apply(lower, upper)  # unit triangular product: always invertible
    assert signature(cleared(p.T @ s @ p)) == signature(cleared(s))


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=4), st.integers(0, 2**32))
def test_subspace_canonicalization(vectors, seed):
    """Different spanning sets of the same space store identical bases."""
    sub = Subspace.from_vectors(3, int_family(vectors, 3))
    rng = random.Random(seed)
    mixed = list(vectors)
    for _ in range(4):
        i, j = rng.randrange(len(vectors)), rng.randrange(len(vectors))
        c = Fraction(rng.randint(1, 5))
        mixed.append(tuple(a + c * b for a, b in zip(mixed[i], mixed[j])))
    rng.shuffle(mixed)
    assert Subspace.from_vectors(3, int_family(mixed, 3)) == sub


@given(
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_span_dimension_formula(vecs_a, vecs_b):
    """dim(a + b) + dim(a ∩ b) = dim a + dim b, the formula the decomposition
    check reads the intersection from, with a ∩ b solved on its own: x A over
    the kernel of (x, y) -> x A - y B, for the canonical bases A and B."""
    a = Subspace.from_vectors(4, int_family(vecs_a, 4))
    b = Subspace.from_vectors(4, int_family(vecs_b, 4))
    basis_a, basis_b = a.basis, b.basis
    common = Subspace(4, ())
    if a.dim and b.dim:
        pairs = reference_kernel(np.concatenate([basis_a, -basis_b]).T).basis
        common = reference_span(4, (pairs[:, : a.dim] @ basis_a).tolist())
    total = a.sum(b)
    assert total.dim + common.dim == a.dim + b.dim
    assert total.contains(a) and total.contains(b)
    assert a.contains(common) and b.contains(common)


@given(matrices(max_rows=5, max_cols=4))
def test_modular_kernel_agrees_with_exact(m):
    """The kernel of the rows picked mod p, checked against every row, is the
    canonical kernel of fraction-free elimination of every row."""
    assert kernel_basis(cleared(m)) == reference_kernel(cleared(m))


def _sparse_rows(seed, nrows, ncols, first=0):
    """nrows rows ncols wide, each with five entries drawn in [-4, 4] at
    columns from first on, by random.Random(seed)."""
    rng = random.Random(seed)
    rows = [[0] * ncols for _ in range(nrows)]
    for row in rows:
        for _ in range(5):
            row[rng.randrange(first, ncols)] = rng.randint(-4, 4)
    return rows


def test_modular_kernel_large_system():
    """A large sparse system, picked mod p on 130 of its 160 rows."""
    m = np.array(_sparse_rows(99, 160, 130), dtype=np.int64)
    kern = kernel_basis(m)
    assert kern.dim == m.shape[1] - reference_rank(m)
    assert not np.any(m.astype(object) @ kern.basis.T)  # each leading-1 row times den annihilates m


def test_generic_kernel_eliminates_rank_many_rows(monkeypatch):
    """40 combinations of 12 rows of width 20: only the 12 rows picked mod p
    are eliminated exactly, and their kernel passes the check on all 40."""
    rng = np.random.default_rng(3)
    m = rng.integers(-3, 4, (40, 12)) @ rng.integers(-9, 10, (12, 20))
    calls = _spy_on_exact_elimination(monkeypatch)
    kern = kernel_basis(m)
    assert calls[0] == 12 and 40 not in calls
    assert kern == reference_kernel(m) and kern.dim == 8


@pytest.mark.parametrize(
    "row", [[2**40 + 15, 2**40 - 87], [2**40 + 15, 2**40 - 87, 0]]
)
def test_modular_kernel_verifies_big_integer_candidates(row):
    """Candidates whose products with the rows pass int64 are checked
    exactly with Python ints."""
    m = np.array([row], dtype=object)
    assert kernel_basis(m) == reference_kernel(m)


def _unlucky_prime_system(first_row):
    """first_row over 109 sparse rows, none nonzero in column 0, 120 columns."""
    return np.array([first_row + [0] * (120 - len(first_row)), *_sparse_rows(7, 109, 120, first=1)], dtype=object)


def test_unlucky_first_prime_falls_back_to_fraction_free(monkeypatch):
    """A row PRIME (x_0 + x_1) vanishes modulo the prime, and no singleton
    forces x_0 or x_1: the kernel of the rows picked mod p contains
    e_0 - e_1, the exact check fails on the first row, and kernel_basis
    eliminates every live row."""
    calls = _spy_on_exact_elimination(monkeypatch)
    m = _unlucky_prime_system([PRIME, PRIME])
    kern, r = kernel_basis(m), reference_rank(m)
    assert calls[:2] == [r - 1, len(m)]
    assert kern == reference_kernel(m)
    assert kern.dim == m.shape[1] - r
    assert all(v[0] + v[1] == 0 for v in leading_one_basis(kern))
    assert not np.any(m @ kern.basis.T)  # each leading-1 row times den annihilates m


def test_singleton_row_of_the_prime_is_forced_without_fallback(monkeypatch):
    """The single-entry row PRIME x_0 vanishes modulo the prime, but singleton
    presolve forces x_0 = 0 over Q first, so the rows picked mod p already
    give the kernel and no elimination sees every row."""
    calls = _spy_on_exact_elimination(monkeypatch)
    m = _unlucky_prime_system([PRIME])
    kern = kernel_basis(m)
    assert len(m) not in calls
    assert kern == reference_kernel(m)
    assert not kern.basis[:, 0].any()


def _singleton_chain_system(rng, nforced, nlive, entries):
    """A sparse system with nforced + nlive shuffled columns and entries drawn
    from the nonzero array entries (its dtype too), and the mask of its nlive
    live columns.  Chain row k is nonzero in chain column k and in some
    earlier chain columns, so once those are forced it is the next singleton;
    every other row is nonzero in at least two live columns, and in some
    chain columns."""
    ncols = nforced + nlive
    cols = rng.permutation(ncols)
    chain, rest = cols[:nforced], cols[nforced:]

    def row(nonzero):
        r = np.zeros(ncols, dtype=entries.dtype)
        r[nonzero] = rng.choice(entries, len(nonzero))
        return r

    rows = [row(np.append(chain[:k][rng.random(k) < 0.5], c)) for k, c in enumerate(chain)]
    for _ in range(rng.integers(1, 2 * nlive + 1) if nlive >= 2 else 0):
        wide = rng.choice(rest, rng.integers(2, nlive + 1), replace=False)
        rows.append(row(np.concatenate([wide, chain[rng.random(nforced) < 0.3]])))
    m = np.array(rows, dtype=entries.dtype).reshape(len(rows), ncols)[rng.permutation(len(rows))]
    return m, np.isin(np.arange(ncols), rest)


# Nonzero entries for chain systems: small, multiples of PRIME (int64), and
# beyond int64 (Python ints).
_CHAIN_ENTRIES = (
    np.array([-4, -3, -2, -1, 1, 2, 3, 4, PRIME, -PRIME, 2 * PRIME], dtype=np.int64),
    np.array([-3, -1, 1, 2, PRIME, PRIME + 1, 2**64 + 3, -(2**70)], dtype=object),
)


def test_singleton_chains_are_forced_and_kernels_match_reference():
    """Presolve kills exactly the chain columns, however deep the chain,
    counts each row's nonzero entries on the live columns, and the padded
    kernel of the live columns is the kernel of every row."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        nforced, nlive = rng.integers(0, 16), rng.integers(0, 9)
        for entries in _CHAIN_ENTRIES:
            m, live = _singleton_chain_system(rng, nforced, nlive, entries)
            found, counts = _unforced_columns(m)
            assert found.tolist() == live.tolist()
            assert counts.tolist() == [sum(x != 0 for x in row) for row in m[:, live].tolist()]
            assert kernel_basis(m) == reference_kernel(m)


def test_fallback_of_an_unlucky_prime_beside_a_chain_sees_only_live_columns(monkeypatch):
    """The unlucky-prime system beside a forced 30-deep chain: the exact check
    fails, and the fallback eliminates every live row on the live columns
    alone, not the chain's columns or rows."""
    unlucky = _unlucky_prime_system([PRIME, PRIME])
    chain, _ = _singleton_chain_system(np.random.default_rng(13), 30, 0, _CHAIN_ENTRIES[1])
    m = np.block([[unlucky, np.zeros((len(unlucky), 30), dtype=object)], [np.zeros((len(chain), 120), dtype=object), chain]])
    shapes = []
    eliminate = linalg._int_rref
    monkeypatch.setattr(linalg, "_int_rref", lambda rows: shapes.append((len(rows), {len(r) for r in rows})) or eliminate(rows))
    kern = kernel_basis(m)
    assert shapes[1] == (len(unlucky), {120})  # the fallback ran, on the live block
    assert len(shapes) == 2 and shapes[0][0] < len(unlucky)
    assert kern == reference_kernel(m) and not kern.basis[:, 120:].any()


def test_kernel_solve_of_a_chain_sees_only_live_columns(monkeypatch):
    """A 40-deep chain beside 10 live columns, which five more rows cut to a
    5-dimensional kernel: the one exact elimination of the solve is 10
    columns wide, and the canonical kernel it gives passes the check."""
    m, _ = _singleton_chain_system(np.random.default_rng(11), 40, 10, _CHAIN_ENTRIES[1])
    widths = []
    eliminate = linalg._int_rref
    monkeypatch.setattr(linalg, "_int_rref", lambda rows: widths.append({len(r) for r in rows}) or eliminate(rows))
    kern = kernel_basis(m)
    assert widths == [{10}]
    assert kern == reference_kernel(m) and kern.dim > 0


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_diagonal_system_has_zero_kernel_without_elimination(monkeypatch, dtype):
    """Every row of a diagonal system is a singleton, so presolve forces every
    column, even a pivot PRIME, and no exact elimination sees a row."""
    calls = _spy_on_exact_elimination(monkeypatch)
    entries = [3, -1, PRIME, -2 * PRIME] + ([2**70] if dtype is object else [])
    kern = kernel_basis(diagonal(entries).astype(dtype))
    assert kern.dim == 0 and kern.ambient_dim == len(entries)
    assert not any(calls)


def test_subspace_coordinates_roundtrip():
    sub = Subspace.from_vectors(3, [(1, 2, 0), (0, 1, 1)])
    vec = (2, 5, 1)
    coords = coordinates_of(sub, vec)
    assert coords is not None and sub.contains(np.array([vec], dtype=object))
    rebuilt = [Fraction(0)] * 3
    for c, b in zip(coords, leading_one_basis(sub)):
        for j, x in enumerate(b):
            rebuilt[j] += c * x
    assert tuple(rebuilt) == vec
    assert coordinates_of(sub, (1, 0, 0)) is None and not sub.contains(np.array([(1, 0, 0)], dtype=object))
    # a cleared basis with s = 6: (1, 0, 1/2) and (0, 1, 1/3)
    for span, inside in ((sub, vec), (Subspace.from_vectors(3, [(2, 0, 1), (0, 3, 1)]), (2, 3, 2))):
        x = span.coordinates(np.array([inside, inside], dtype=object))
        assert x is not None and x.den == 1 and [tuple(row) for row in x.ints] == [coordinates_of(span, inside)] * 2
        assert span.coordinates(np.array([inside, (1, 0, 0)], dtype=object)) is None


@pytest.mark.parametrize(
    "ambient, basis",
    [
        (2, ((1, 1), (0, 1))),  # nonzero entry above a later pivot
        (2, ((1, 0, 0),)),  # row longer than the ambient space
        (2, ((2, 0),)),  # not primitive
        (3, ((0, 1, 0), (1, 0, 0))),  # pivots not increasing
        (3, ((1, 0, 0), (1, 0, 0))),  # repeated pivot
        (2, ((0, 0),)),  # zero row
        (3, ((1, 0, 0), (0, 1, 0), (0, 1, 1))),  # entry below a pivot
        (2, ((-1, 0),)),  # negative pivot
        (3, ((2, -4, 0), (0, 0, 1))),  # not primitive, past the pivot
        (3, ((-2, 1, 0), (0, 0, 1))),  # primitive, negative pivot
        (3, ((2, 1, 1), (0, 3, 1))),  # primitive, nonzero in a later pivot column
        (3, ((1, 0, 0), (0, 0, 1, 0))),  # second row too wide
        (3, ((1, 0),)),  # row too short
        (3, ((1, Fraction(1, 2), 0),)),  # the leading-1 form: not integers
        (2, ((1, 0.5),)),  # a float
        (2, ((Fraction(1), 0),)),  # an integral Fraction
        (1, ((True,),)),  # a bool
    ],
)
def test_subspace_rejects_non_canonical_basis(ambient, basis):
    """Integer rows that are not the primitive rows of an RREF raise
    ValueError; a row with another entry raises TypeError (``int_array``)."""
    with pytest.raises(ValueError if all(type(x) is int for row in basis for x in row) else TypeError):
        Subspace(ambient, basis)


def test_subspace_accepts_canonical_basis():
    sub = Subspace(3, ((2, 1, 0), (0, 0, 1)))
    assert sub.pivots == (0, 2)
    assert sub == Subspace.from_vectors(3, [(2, 1, 4), (0, 0, 3)])
    big = Subspace(3, [[2**70 + 1, 2**70, 0]])
    assert (big.basis.tolist(), big.den) == ([[2**70 + 1, 2**70, 0]], 2**70 + 1)


@pytest.mark.parametrize(
    "ambient, basis, rows",
    [
        (3, ((1, Fraction(1, 2), 0), (0, 0, 1)), ((2, 1, 0), (0, 0, 1))),
        (4, ((0, 1, Fraction(-2, 3), Fraction(5, 6)),), ((0, 6, -4, 5),)),
        (2, ((1, 0), (0, 1)), ((1, 0), (0, 1))),
        (3, (), ()),
    ],
)
def test_subspace_basis_round_trips(ambient, basis, rows):
    """The constructor takes the primitive integer rows, each a multiple of
    its leading-1 basis row, and holds that basis over its least
    denominator; their span gives the same subspace back."""
    sub = Subspace(ambient, rows)
    _assert_held(sub, basis)
    assert leading_one_basis(sub) == basis
    rebuilt = Subspace.from_vectors(ambient, int_family(basis, ambient))
    assert rebuilt == sub and leading_one_basis(rebuilt) == basis and rebuilt.pivots == sub.pivots


def _assert_held(sub, leading_one):
    """A Subspace's one representation, against the leading-1 Fraction rows
    of its span: basis is read-only, of Python ints; basis[i, pivots[i]] ==
    den and every other row is zero in that pivot column; den is the least
    denominator, gcd(den, basis) = 1; and basis / den is leading_one."""
    b, den = sub.basis, sub.den
    with pytest.raises(ValueError):
        b[...] = 0
    assert b.shape == (len(leading_one), sub.ambient_dim) and b.dtype == object
    assert type(den) is int and all(type(x) is int for x in b.flat)
    assert np.array_equal(b[:, list(sub.pivots)], den * np.eye(sub.dim, dtype=object))
    assert math.gcd(den, *b.flat) == 1
    assert rationals(b, den).tolist() == [list(row) for row in leading_one]


# Entries that vanish modulo the certifying prime, so that some families of
# full rank over Q are rank deficient modulo it.
integers = st.one_of(st.integers(-4, 4), st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1, 2**70, -(2**64)]))


@st.composite
def families(draw, entries):
    """Width n and a family of rows: free rows, or at least n combinations of
    fewer than n rows, which span a proper subspace."""
    n = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return n, draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=2 * n + 2))
    base = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n - 1))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    combos = draw(st.lists(coeffs, min_size=n, max_size=2 * n + 2))
    return n, [[sum((c * b[j] for c, b in zip(cs, base)), 0) for j in range(n)] for cs in combos]


@given(st.one_of(families(fractions), families(integers)))
def test_from_vectors_matches_fraction_reference(family):
    """from_vectors on rows, object and int64 arrays, against the span of the
    reference elimination's leading-1 rows."""
    n, vectors = family
    ints = int_family(vectors, n)
    reduced = reference_rref(ints.tolist(), n)[0]
    expected = span_of_rows(n, reduced)
    sub = Subspace.from_vectors(n, ints.tolist())
    assert sub == expected and leading_one_basis(sub) == leading_one_basis(expected) and sub.pivots == expected.pivots
    assert (sub.basis.tolist(), sub.den) == (expected.basis.tolist(), expected.den)
    assert Subspace.from_vectors(n, ints.astype(object)) == expected
    if all(abs(x) < 2**62 for x in ints.flat):
        assert Subspace.from_vectors(n, ints.astype(np.int64)) == expected


def _accepts(n, rows):
    """Whether the validating constructor takes rows."""
    try:
        Subspace(n, rows)
    except ValueError:
        return False
    return True


@given(families(integers), st.data())
def test_subspace_accepts_exactly_the_primitive_rows_of_its_span(family, data):
    """Subspace(n, rows) takes a family exactly when it equals the primitive
    integer rows of its span's ``reference_rref``; those rows with one entry
    moved are taken only if they are again the rows of their own span."""
    n, rows = family
    primitive = lambda rows: [int_cleared(row)[0].tolist() for row in reference_rref(rows, n)[0]]
    canonical = primitive(rows)
    assert _accepts(n, rows) == (rows == canonical) and _accepts(n, canonical)
    if canonical:
        moved = [list(row) for row in canonical]
        i, j = data.draw(st.integers(0, len(moved) - 1)), data.draw(st.integers(0, n - 1))
        moved[i][j] += data.draw(st.sampled_from([-2, -1, 1, 2, PRIME]))
        assert _accepts(n, moved) == (moved == primitive(moved))


def _spy_on_exact_elimination(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return eliminate(rows)

    eliminate = linalg._int_rref
    monkeypatch.setattr(linalg, "_int_rref", spy)
    return calls


def test_full_span_singular_mod_p_falls_back_to_exact(monkeypatch):
    """Full over Q, rank 1 modulo PRIME: from_vectors decides the span by one
    exact elimination of every nonzero row, whatever the rank mod p."""
    rows = [(PRIME, 0), (0, 1)]
    assert len(independent_rows(np.array(rows, dtype=np.int64))) == 1
    calls = _spy_on_exact_elimination(monkeypatch)
    assert Subspace.from_vectors(2, rows) == Subspace.full(2)
    assert calls == [2]


def test_closure_edges(monkeypatch):
    """A zero or a full span is its own closure without an elimination;
    images without rows leave a span as it is after one; the shift
    e1 -> e2 -> e3 -> 0 grows e1 twice and stops when its span is stable."""
    zero, full = Subspace(4, ()), Subspace.full(4)
    expected = reference_span(4, np.eye(3, 4, dtype=int).tolist())
    calls = _spy_on_exact_elimination(monkeypatch)
    never = lambda b: pytest.fail("a zero or full span has no images to take")
    assert zero.closure(never) is zero and full.closure(never) is full and calls == []
    line = Subspace.from_vectors(4, [(0, 2, 0, 4)])
    assert line.closure(lambda b: np.zeros((0, 4), dtype=np.int64)) == line
    assert calls == [1, 1]
    shift = np.eye(4, k=-1, dtype=np.int64)
    shift[3, 2] = 0
    calls.clear()
    closed = Subspace.from_vectors(4, [(1, 0, 0, 0)]).closure(lambda b: int_einsum("mn,jn->jm", shift, b).ints)
    assert closed == expected
    assert calls == [1, 2, 4, 5]  # the seed, two growth steps, the stable step (its zero image dropped)


def _small_entry_stacks(rng):
    """Stacks of random matrices with entries in [-3, 3], half of them of
    low rank (a product of {-1, 0, 1} factors through at most 3 columns)."""
    for _ in range(60):
        k, nrows, ncols = rng.integers(0, 5), rng.integers(0, 9), rng.integers(0, 9)
        if rng.integers(2):
            inner = rng.integers(0, 4)
            yield rng.integers(-1, 2, (k, nrows, inner)) @ rng.integers(-1, 2, (k, inner, ncols))
        else:
            yield rng.integers(-3, 4, (k, nrows, ncols))


def test_ranks_mod_p_equal_the_exact_ranks_of_small_entry_stacks():
    """At most 8 x 8 minors of entries in [-3, 3] are below PRIME in
    magnitude (Hadamard), so the rank mod p is the rank over Q."""
    for stack in _small_entry_stacks(np.random.default_rng(5)):
        assert ranks_mod_p(stack).tolist() == [reference_rank(m) for m in stack]


def test_ranks_mod_p_of_large_entries_reduce_first():
    stack = np.array([[[PRIME, 0], [0, 1]], [[2**70, 1], [1, 0]], [[PRIME + 1, 2], [-PRIME, 0]]], dtype=object)
    expected = [len(independent_rows(m)) for m in stack]
    assert ranks_mod_p(stack).tolist() == expected == [1, 2, 1]
    assert [rank(m) for m in stack] == [2, 2, 2]


def _row_pick_matrices(rng):
    """Integer matrices for the row pick: those of the small-entry stacks, then
    tall, wide and low-rank products up to 16 x 16, each as it is (int64),
    with some entries moved to multiples of PRIME (int64) and with some
    moved beyond int64 (Python ints)."""
    for stack in _small_entry_stacks(rng):
        yield from stack
    for _ in range(60):
        nrows, ncols, inner = rng.integers(0, 17, 3)
        m = rng.integers(-9, 10, (nrows, inner)) @ rng.integers(-9, 10, (inner, ncols))
        yield m
        for entries, dtype in (([0, PRIME, -PRIME, 2 * PRIME], np.int64), ([PRIME + 1, 2**64 + 3, -(2**70)], object)):
            moved = m.astype(dtype)
            mask = rng.random(m.shape) < 0.3
            moved[mask] = np.array(entries, dtype=dtype)[rng.integers(0, len(entries), mask.sum())]
            yield moved


def test_independent_rows_count_the_rank_mod_p_and_are_independent_over_q():
    """The picked rows have full rank over Q, and there are as many as the
    rank mod p; with entries in [-3, 3] and at most 8 columns or rows every
    minor is below PRIME in magnitude (Hadamard), so that is the rank, and
    the picked rows are exactly those that raise the rank of the rows above
    them (the rule ``spin_contract`` relies on)."""
    for m in _row_pick_matrices(np.random.default_rng(11)):
        picked = independent_rows(m)
        assert len(set(picked)) == len(picked) == reference_rank(m[picked])
        assert len(picked) == ranks_mod_p(m[None])[0]
        if min(m.shape) <= 8 and np.all(np.abs(m) <= 3):
            assert len(picked) == reference_rank(m)
            ranks = [reference_rank(m[:i]) for i in range(len(m) + 1)]
            assert sorted(picked) == [i for i in range(len(m)) if ranks[i + 1] > ranks[i]]


def _assert_canonical_kernel(m, rows=None):
    """kernel_basis(m) as it comes out of its one elimination: the validating
    constructor accepts its rows, and it equals the reference kernel, pivots
    too, held over its least denominator as ``_assert_held`` says; rows, when
    given, are the leading-1 rows of m's reference kernel."""
    kern = kernel_basis(m)
    checked = Subspace(kern.ambient_dim, primitive_rows(kern))
    assert checked == kern and checked.pivots == kern.pivots
    rows = reference_kernel_rows(m) if rows is None else rows
    expected = span_of_rows(m.shape[1], rows)
    assert kern == expected and kern.pivots == expected.pivots
    _assert_held(kern, rows)


@given(families(integers))
def test_kernel_is_canonical_as_it_comes_out_of_one_elimination(family):
    """Integer systems, past 2**63 as Python ints and on int64 where they fit."""
    n, vectors = family
    m = np.array(vectors, dtype=object).reshape(len(vectors), n)
    rows = reference_kernel_rows(m)
    _assert_canonical_kernel(m, rows)
    if all(abs(x) < 2**62 for v in vectors for x in v):
        _assert_canonical_kernel(m.astype(np.int64), rows)


def test_kernels_of_mutant_derivation_systems_match_elimination_of_every_row(mutant_leibniz_systems):
    """On the mutant derivation systems, the kernel of the rows picked mod p
    is the kernel of every row, canonical as it comes out of its one
    elimination."""
    for m, rows in mutant_leibniz_systems:
        _assert_canonical_kernel(m, rows)


def test_kernels_of_chains_mutants_and_degenerate_systems_are_canonical():
    """Singleton chains; an all-zero system (every column free); and systems
    with no live column, whose kernel is 0.  The mutant derivation systems
    are the test above's."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        for entries in _CHAIN_ENTRIES:
            _assert_canonical_kernel(_singleton_chain_system(rng, rng.integers(0, 16), rng.integers(0, 9), entries)[0])
    for m in (zeros(3, 4), np.zeros((0, 5), dtype=np.int64), diagonal([2, -PRIME, 2**70]), zeros(2, 0)):
        _assert_canonical_kernel(m)
    assert kernel_basis(zeros(3, 4)) == Subspace.full(4)
    assert kernel_basis(diagonal([2, -PRIME, 2**70])).dim == 0


@pytest.mark.parametrize("prime", [2, 3])
def test_kernel_fallback_under_a_small_prime_is_canonical(monkeypatch, prime):
    """With PRIME 2 or 3, rows that vanish modulo it are not picked, so the
    exact check fails and the fallback eliminates every row; that kernel too
    comes out canonical."""
    monkeypatch.setattr(linalg, "PRIME", prime)
    calls = _spy_on_exact_elimination(monkeypatch)
    systems = (
        [[prime, prime, 0], [0, 1, 1]],
        [[prime, 2 * prime, prime, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 1, 1], [1, 1, 2, 1, 2, 1]],
    )
    for m in map(np.array, systems):
        before = len(calls)
        kernel_basis(m)
        # not vacuous: the second elimination of the solve saw every row
        assert len(calls) - before == 2 and calls[before] < len(m) == calls[before + 1]
        _assert_canonical_kernel(m)


def test_many_rows_spanning_a_proper_subspace():
    rows = [(1, 2, 3), (0, 1, 1), (1, 3, 4), (2, 4, 6), (-1, -1, -2), (3, 7, 10)]
    sub = Subspace.from_vectors(3, rows)
    assert sub.dim == 2 and (sub.basis.tolist(), sub.den) == ([[1, 0, 1], [0, 1, 1]], 1)
    assert sub == reference_span(3, rows)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[0.5, 1.0]]),  # floats
        np.array([[Fraction(7, 3), Fraction(5, 3)], [Fraction(7, 6), Fraction(5, 6)]], dtype=object),
        np.array([[1, 2, 3]]),  # wider than the ambient space
        np.array([1, 2]),  # one-dimensional
    ],
)
def test_from_vectors_rejects_non_integer_or_misshapen_arrays(array):
    """A non-integer entry raises TypeError, a wrong width or rank
    ValueError, as every raw entry of linalg does."""
    with pytest.raises(ValueError if array.dtype.kind == "i" else TypeError):
        Subspace.from_vectors(2, array)


@pytest.mark.parametrize(
    "rows",
    [
        [(Fraction(1, 2), 1)],
        [(1, 0), (Fraction(2), 0)],  # integral, but a Fraction
        [(1, 0.5)],
        [(np.int64(1), 0)],  # a numpy scalar in a list of rows
    ],
)
def test_from_vectors_rejects_rational_rows(rows):
    with pytest.raises(TypeError):
        Subspace.from_vectors(2, rows)


def test_int_einsum_exact_beyond_int64():
    """A product whose entries pass 2**63 is computed on Python ints; the
    explicit loop is the reference."""
    a = [[2**40, -3], [5, 2**40 + 1]]
    b = [[2**30, 7], [-(2**31), 1]]
    expected = [[sum(a[i][k] * b[k][j] * a[j][i] for k in range(2)) for j in range(2)] for i in range(2)]
    out = int_einsum("ik,kj,ji->ij", a, b, a)
    assert out.ints.tolist() == expected
    assert int_einsum("ij,jk->ik", [[1, 2]], [[3], [4]]).ints.dtype == np.int64


def test_int_einsum_reads_carried_bounds_and_python_int_scalars():
    """An ``Exact`` operand's given bound and a Python int's magnitude pick
    the dtype without a scan; an int64 operand of an int64 product is not
    copied; the result is read-only, over the product of the dens."""
    a = np.array([[2**40, 1], [3, -(2**40)]], dtype=np.int64)
    assert int_einsum("ij,jk->ik", Exact(a, 1, 1), Exact(a, 1, 1)).ints.dtype == np.int64  # the bound is trusted
    assert int_einsum("ij,jk->ik", Exact(a, 1, 2**40), a).ints.tolist() == (a.astype(object) @ a.astype(object)).tolist()
    assert int_einsum(",ij->ij", 2**70, a).ints.tolist() == (2**70 * a.astype(object)).tolist()
    assert int_einsum(",ij->ij", 3, [[1, 2]]).ints.dtype == np.int64
    seen = []
    einsum = np.einsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "einsum", lambda spec, *ops: seen.extend(ops) or einsum(spec, *ops))
        out = int_einsum("ij,jk->ik", Exact(a, 3, 2**40), Exact(np.eye(2, dtype=np.int64), 5))
    assert seen[0] is a
    assert out.den == 15 and not out.ints.flags.writeable


def _holding(x):
    """The 3 x 3 identity as an object array, with x as its first entry."""
    a = np.eye(3, dtype=np.int64).astype(object)
    a[0, 0] = x
    return a


def _raw_entries():
    """Every public entry that takes raw integer input, as name: (call on
    one 3-column input, whether it also takes nested rows, whether its
    width is fixed at 3)."""
    so3 = so_of_form(NormForm(np.eye(3, dtype=np.int64)))
    nat, full, eye = natural_module(so3), Subspace.full(3), np.eye(3, dtype=np.int64)
    return {
        "kernel_basis": (kernel_basis, False, False),
        "rank": (rank, False, False),
        "int_inverse": (int_inverse, False, True),
        "rref": (rref, False, False),
        "independent_rows": (independent_rows, False, False),
        "ranks_mod_p": (lambda x: ranks_mod_p(x[None] if isinstance(x, np.ndarray) else [x]), False, False),
        "Subspace": (lambda x: Subspace(3, x), True, True),
        "from_vectors": (lambda x: Subspace.from_vectors(3, x), True, True),
        "coordinates": (full.coordinates, False, True),
        "contains": (full.contains, False, True),
        "submodule_generated": (lambda x: submodule_generated(nat, x), True, True),
        "int_einsum": (lambda x: int_einsum("ij,jk->ik", x, eye), True, True),
        "bracket_table": (lambda x: so3.bracket_table(x, eye), True, True),
    }


@pytest.mark.parametrize("entry", list(_raw_entries()))
def test_raw_integer_input_has_one_intake_rule(entry):
    """Each entry takes an int64 or a Python-int object array (and, where it
    takes rows, nested rows of Python ints), and checks every other input by
    ``int_array``: any other dtype or entry (float, bool, uint8, a Fraction,
    integral or not, which int64 casting would truncate, a numpy scalar, a
    nested list where an array is due) raises TypeError; a wrong rank, a
    ragged family or, where the width is fixed, a row of another width
    raises ValueError."""
    call, nested, fixed_width = _raw_entries()[entry]
    eye = np.eye(3, dtype=np.int64)
    for good in (eye, eye.astype(object)) + ((eye.tolist(), [tuple(row) for row in eye.tolist()]) if nested else ()):
        call(good)
    not_integer = [
        np.eye(3),
        np.eye(3, dtype=bool),
        np.eye(3, dtype=np.uint8),
        _holding(Fraction(1)),
        _holding(Fraction(1, 2)),
        _holding(np.int64(1)),
        _holding(True),
        np.array([[Fraction(7, 3), Fraction(5, 3), 0], [Fraction(7, 6), Fraction(5, 6), 0]], dtype=object),
        np.array([[1, 2, Fraction(3)]], dtype=object),
        [(Fraction(1, 2), 1, 0)],
        [(1, 0, 0), (Fraction(2), 0, 0)],  # integral, but a Fraction
        [(1, 0.5, 0)],
        [(np.int64(1), 0, 0)],  # a numpy scalar in a list of rows
    ]
    misshapen = [np.array([1, 0, 0]), np.array([(1, 0, 0), (0, 1)], dtype=object)]  # one axis; ragged
    if nested:
        misshapen.append([(1, 0, 0), (0, 1)])
    else:
        not_integer += [[[1, 0, 0]], [(1, 0, 0)]]  # rows, not an array
    if fixed_width:
        misshapen += [np.array([[1, 0]]), np.array([[1, 2, 3, 4]])]
    if entry in ("coordinates", "contains"):
        misshapen += [Subspace.from_vectors(2, [(1, 2)]), Subspace.full(4)]
    for bad in not_integer:
        with pytest.raises(TypeError):
            call(bad)
    for bad in misshapen:
        with pytest.raises(ValueError):
            call(bad)


def test_int_einsum_reads_no_float_or_numpy_scalar_as_an_exact_integer():
    """A raw operand is checked: floats summed to an integer, an object array
    of numpy int64 scalars (whose squares wrap past 2**63), a numpy or bool
    scalar, and a float coordinate given to a bracket table raise TypeError;
    a raw operand of another rank than its subscripts, ValueError."""
    big = np.array([np.int64(2**40)], dtype=object)
    for spec, *operands in (("i,i->", [0.5, 1.5], [1, 1]), ("i,i->", big, big), (",i->i", np.int64(2), [1, 1]), (",i->i", True, [1, 1])):
        with pytest.raises(TypeError):
            int_einsum(spec, *operands)
    der = derivation_algebra(build_split_cayley().algebra)
    x = np.zeros((1, der.dim))
    x[0, 0] = 0.5
    with pytest.raises(TypeError):
        der.bracket_table(x, np.eye(der.dim, dtype=np.int64)[1:2])
    with pytest.raises(ValueError):
        int_einsum("ij,jk->ik", [1, 2], np.eye(2, dtype=np.int64))


def test_max_abs_reads_int64_min():
    """np.abs wraps -2**63 to itself; the one measuring function does not,
    so a product of an array holding it is exact, and an owner built from
    one carries the bound 2**63 and Python ints."""
    a = np.array([-(2**63), 5], dtype=np.int64)
    assert max_abs(a) == 2**63 and Exact(a).bound == 2**63
    assert int(int_einsum("i,i->", a, a).ints) == 2**126 + 25
    form = NormForm(np.array([[-(2**63), 0], [0, 1]], dtype=np.int64))
    assert form.gram.bound == 2**63 and form.G.dtype == object and form.G.tolist() == [[-(2**63), 0], [0, 1]]


def test_values_are_equal_as_rational_arrays():
    """(2a, 2d) equals (a, d); the same array with its den dropped does not,
    nor does another shape; the mask marks the entries that differ."""
    a = np.array([[3, -1], [0, 2**62]], dtype=object)
    assert Exact(2 * a, 14) == Exact(a, 7) and Exact(a.astype(np.int64), 7) == Exact(2 * a, 14)
    assert Exact(2 * a, 14) != Exact(2 * a) and Exact(a, 7) != Exact(a)
    assert Exact(a, 7) != Exact(a.reshape(1, 4), 7) and Exact(a, 7) != a
    assert Exact(a, 7).differs(Exact(np.array([[6, -2], [1, 2**63]]), 14)).tolist() == [[False, False], [True, False]]
    zero = np.zeros((1, 2), dtype=np.int64)
    assert Exact(zero, 2**70) == Exact(zero, 3)  # a zero bound still scales by 2**70 exactly


def test_lowest_terms():
    """held divides a den > 1 and every entry by their gcd, and leaves a den-1
    value as it is, whatever the gcd of its entries."""
    a = np.array([[4, -6], [0, 10]])
    assert [x.tolist() if isinstance(x, np.ndarray) else x for x in Exact.held(a, 8)] == [[[2, -3], [0, 5]], 4]
    assert Exact.held(a, 3).den == 3 and Exact.held(a, 3).ints.tolist() == a.tolist()
    assert Exact.held(a).den == 1 and Exact.held(a).ints.tolist() == a.tolist()
    big = np.array([2**70, -(2**66)], dtype=object)
    reduced, den = Exact.held(big, 2**65 * 3)
    assert reduced.tolist() == [32, -2] and den == 3 and reduced.dtype == np.int64
    reduced, den = Exact.held(big)
    assert reduced.tolist() == big.tolist() and den == 1 and reduced.dtype == object


def test_owners_hold_their_values_read_only_with_their_bounds(ctx):
    """No bound can go stale: each owner's value is read-only and carries
    its largest magnitude, and the public constructors copy, so the caller's
    array stays writable."""
    so34, cayley = ctx.so34, ctx.cayley
    facts = cayley.form.unit_facts(cayley.unit)
    owned = [
        so34.bracket,
        so34.realization,
        ctx.natural_rep.action,  # built by lemma, through LieModule._raw
        ctx.complement_module.action,
        cayley.form.gram,
        lie.killing_form(so34).gram,
        cayley.algebra.structure,
        ctx.g2_image.canonical,
        ctx.complement_isomorphism.matrix,
        facts.u,
        facts.K,
    ]
    for value in owned:
        assert value.bound == max_abs(value.ints)
        with pytest.raises(ValueError):
            value.ints[(0,) * value.ints.ndim] += 1
    assert (so34.C, so34.den, cayley.form.G) == (so34.bracket.ints, so34.bracket.den, cayley.form.gram.ints)
    c, g = np.zeros((2, 2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    module = LieModule(lie.LieAlgebra(c), c.copy())
    NormForm(g)
    c[0, 0, 0] = g[0, 0] = 0
    assert not module.A.flags.writeable and module.action.bound == 0


def test_carried_bounds_pick_python_ints_near_2_31():
    """Each owner's entries near 2**31, times operands near 2**16 or 2**32,
    pass 2**63: a carried bound that understated the entries would pick int64
    and wrap around.  Python-int arithmetic is the reference."""
    k = 2**31 + 1
    # sl(2) on h, e, f' = k f: [h, e] = 2e, [h, f'] = -2f', [e, f'] = k h
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 1], c[0, 2, 2], c[1, 2, 0] = 2, -2, k
    sl2 = lie.LieAlgebra(c - c.transpose(1, 0, 2))
    assert sl2.bracket_table(np.array([[0, 1, 0]]), np.array([[0, 0, 2**32]])).tolist() == [[[2**32 * k, 0, 0]]]
    form = NormForm(np.diag([k, k]))
    assert form.restricted(np.array([[2**16, 2**16]])).G.tolist() == [[2**33 * k]]
    algebra = StructureConstantAlgebra(1, [[[k]]])
    assert algebra.multiply([2**16], [2**16]) == (Fraction(2**32 * k),)
    # restricted twice: through the public constructor's bound, then _raw's
    module = LieModule(lie.LieAlgebra(np.zeros((1, 1, 1), dtype=np.int64)), k * np.eye(3, dtype=np.int64)[None])
    plane = restriction_module(module, Subspace.from_vectors(3, [[1, 2**32, 0], [0, 0, 1]]))
    line = restriction_module(plane, Subspace.from_vectors(2, [[1, 2**32]]))
    assert plane.A.tolist() == [[[k, 0], [0, k]]] and line.A.tolist() == [[[k]]] and line.den == 1


def test_int_dtype_leaves_room_for_four_terms():
    """Callers add up to four results bounded below ``int_dtype``'s
    threshold: the commutators of ``from_matrix_basis`` and of the bracket
    law, the derivation and wedge-square systems, the conjugation matrix of
    ``check_cayley``, the Hom systems.  Python ints from 2**61 on keep such a
    sum inside int64 or exact."""
    assert int_dtype(2**61 - 1) is np.int64 and int_dtype(2**61) is object
    for bound in (2**61 - 1, 2**61 + 1):
        x = int_einsum(",ij->ij", bound, np.ones((1, 1), dtype=np.int64)).ints
        assert (x + x + x + x).tolist() == [[4 * bound]]
        assert (x - (-x) - (-x) - (-x)).tolist() == [[4 * bound]]


@pytest.mark.parametrize("nrows, ncols", [(8, 10), (160, 130)])
def test_kernel_of_integer_array_equals_kernel_of_matrix(nrows, ncols):
    """An int64 system and the same system on Python ints, small and large,
    have the reference kernel."""
    rows = _sparse_rows(nrows, nrows, ncols)
    expected = reference_kernel(np.array(rows, dtype=object))
    assert kernel_basis(np.array(rows, dtype=np.int64)) == expected
    assert kernel_basis(np.array(rows, dtype=object)) == expected


@given(families(integers))
def test_kernel_matches_fraction_free_reference(family):
    """Entries of +-p, 2p and 2**70 make some families drop rank mod p; on
    those the exact check fails and every live row is eliminated."""
    n, vectors = family
    m = np.array(vectors, dtype=object).reshape(len(vectors), n)
    expected = reference_kernel(m)
    assert kernel_basis(m) == expected
    if all(abs(x) < 2**62 for v in vectors for x in v):
        assert kernel_basis(m.astype(np.int64)) == expected


@given(st.one_of(families(fractions), families(integers)))
def test_cleared_basis_is_the_leading_1_basis_over_its_least_denominator(family):
    """from_vectors, kernel_basis (rows that vanish modulo PRIME send some
    families to its fallback) and full, against the Fraction reference."""
    n, vectors = family
    ints = int_family(vectors, n)
    _assert_held(Subspace.from_vectors(n, ints), reference_rref(ints.tolist(), n)[0])
    _assert_held(kernel_basis(ints), reference_kernel_rows(ints))
    _assert_held(Subspace.full(n), rationals(np.eye(n, dtype=int)).tolist())


def test_each_maker_holds_one_basis_over_its_least_denominator(monkeypatch):
    """from_vectors, kernel_basis on its picked path and, under PRIME = 2, on
    its fallback, the validating constructor and full."""
    calls = _spy_on_exact_elimination(monkeypatch)
    family = [[2, 1, 0, 4], [0, 3, 6, 1], [2, 4, 6, 5]]  # leading-1 rows over 6
    span = Subspace.from_vectors(4, family)
    _assert_held(span, reference_rref(family, 4)[0])
    assert span.den == 6 and span.basis.tolist() != primitive_rows(span)
    before = len(calls)
    _assert_held(kernel_basis(np.array(family)), reference_kernel_rows(np.array(family)))
    assert len(calls) - before == 1  # the picked rows only
    monkeypatch.setattr(linalg, "PRIME", 2)
    before, m = len(calls), np.array([[2, 2, 0], [0, 1, 1]])
    _assert_held(kernel_basis(m), reference_kernel_rows(m))
    assert len(calls) - before == 2  # the fallback saw every row
    _assert_held(Subspace(3, ((2, 1, 0), (0, 0, 1))), ((1, Fraction(1, 2), 0), (0, 0, 1)))
    _assert_held(Subspace(0, ()), ())
    _assert_held(Subspace.full(3), rationals(np.eye(3, dtype=int)).tolist())


@given(matrices())
def test_rank_matches_rref(m):
    """rank against the rank of the reference elimination."""
    assert rank(cleared(m)) == reference_rank(cleared(m))


@pytest.mark.parametrize(
    "values",
    [
        [[1, -2], [3, 4]],
        [[Fraction(1, 2), Fraction(-3)], [Fraction(5, 6), 0]],
        [2**70, Fraction(-1, 3), 7],  # Python ints past int64
        [True, 2, Fraction(1, 4)],  # an int subclass
        np.array([np.int64(3), np.int32(-4), 5], dtype=object),  # numpy ints, read as ints
        np.array([[3, -4]], dtype=np.int64),
        Fraction(3, 4),  # a 0-d array
        [],
        np.zeros((0, 3), dtype=object),
        np.zeros((2, 0), dtype=np.int64),
        [np.array([2**62, -1]), np.array([Fraction(1, 3), 4], dtype=object)],  # arrays nested in a list
    ],
)
def test_int_cleared_matches_the_three_pass_reference(values):
    got, want = int_cleared(values), three_pass_cleared(values)
    assert (got[0].shape, got[0].dtype, got[1]) == (want[0].shape, want[0].dtype, want[1])
    assert got[0].tolist() == want[0].tolist()
    assert [type(x) for x in got[0].flat] == [type(x) for x in want[0].flat]


def test_int_cleared_reads_numpy_integers_as_python_ints():
    """A numpy integer beside a Fraction is scaled as a Python int, which
    cannot wrap past 2**63."""
    for values, want in (
        ([np.int64(2**62), Fraction(1, 3)], ([3 * 2**62, 1], 3)),
        (np.array([np.uint64(2**63), Fraction(-1, 2)], dtype=object), ([2**64, -1], 2)),
    ):
        a, den = int_cleared(values)
        assert (a.tolist(), den) == want and {type(x) for x in a.flat} == {int}


@pytest.mark.parametrize("values", [[[1, 2], [3]], [[1, [2]], [3, 4]], [1, [2]], [[[1]], [2]], [np.array([1, 2]), [3]]])
def test_int_cleared_rejects_a_ragged_nesting(values):
    with pytest.raises(ValueError, match="ragged"):
        int_cleared(values)


@pytest.mark.parametrize("values", [[0.1], [1, "1/3"], [[Fraction(1, 2)], [Decimal("0.5")]], np.array([0.5, 1.0]), [np.float64(2.0)]])
def test_int_cleared_rejects_an_inexact_leaf(values):
    """Only ints, numpy integers and Fractions are exact rationals as given;
    0.1 would otherwise be read as 3602879701896397 / 2**55."""
    with pytest.raises(TypeError):
        int_cleared(values)


def test_int_cleared_of_the_cayley_constants_matches_the_three_pass_reference():
    mul = build_split_cayley().algebra.mul
    for values in (mul, [[[x + Fraction(1, 3) for x in p] for p in row] for row in mul]):
        got, want = int_cleared(values), three_pass_cleared(values)
        assert (got[0].dtype, got[1]) == (want[0].dtype, want[1]) and np.array_equal(got[0], want[0])


@pytest.mark.parametrize(
    "G, den",
    [
        (np.array([[Fraction(1, 2)]], dtype=object), 1),  # not integers
        (np.array([[0.5]]), 1),
        (np.array([[1, 2], [3, 4]]), 1),  # not symmetric
        (np.array([1, 2]), 1),  # not a matrix
        (np.array([[1, 2, 3]]), 1),  # not square
        (np.array([[1]]), 0),  # denominator not positive
    ],
)
def test_norm_form_rejects_invalid_gram(G, den):
    """A non-integer Gram matrix raises TypeError, as every owner's input
    does (``Exact.held``); a mis-shaped or asymmetric integer one, or a
    denominator below 1, raises ValueError."""
    with pytest.raises(ValueError if G.dtype.kind == "i" else TypeError):
        NormForm(G, den)


@pytest.mark.parametrize("den", [True, np.int64(2), 2.0, Fraction(2)])
def test_norm_form_takes_a_python_int_denominator(den):
    """A bool, a numpy integer, a float or a Fraction is rejected as a
    denominator below 1 is, not stored or handed to math.gcd."""
    with pytest.raises(ValueError, match="positive denominator"):
        NormForm(np.array([[2, 0], [0, 2]]), den)


def test_norm_form_is_held_in_lowest_terms():
    form = NormForm(np.array([[2, 4], [4, 6]]), 6)
    assert form.G.tolist() == [[1, 2], [2, 3]] and form.den == 3
    assert form_bilinear(form, (1, 0), (0, 1)) == Fraction(2, 3)
    assert form_norm(form, (Fraction(1, 2), 1)) == Fraction(1, 12) + Fraction(4, 3) / 2 + 1
    assert form.signature == (1, 1, 0) and form.nondegenerate
    # on the rows of b / 2, Gram matrix b G b^T / (3 * 4)
    restricted = form.restricted(np.array([[1, 1]]), 2)
    assert (restricted.G.tolist(), restricted.den) == ([[2]], 3)
    assert not NormForm(np.diag([1, 0])).nondegenerate


def assert_inverse_certificate(a):
    """int_inverse certified, not compared with an oracle: x a = d I exactly
    and gcd(d, x) = 1; x is read off the span's read-only basis."""
    x, d = int_inverse(a)
    k = len(a)
    assert np.array_equal(int_einsum("ij,jk->ik", x, a), int_einsum(",ij->ij", d, np.eye(k, dtype=int)))
    assert math.gcd(d, *map(int, x.flat)) == 1
    assert x.shape == (k, k) and x.dtype == object and is_int_array(x) and not x.flags.writeable


@pytest.mark.parametrize(
    "a",
    [
        np.array([[2, 1], [-3, 4]]),  # square
        np.array([[0, 6, 3], [4, 2, 0], [2, 0, 5]]),  # a[:, pivots] of a wide family whose pivot skips a column
        np.array([[2**70, 1], [3, 2**70]], dtype=object),  # Python ints
        np.array([[2**70, 1], [1, 1]], dtype=object),  # d = 2**70 - 1, x of Python ints
        np.zeros((0, 0), dtype=np.int64),  # the empty family
        np.zeros((0, 0), dtype=object),
    ],
)
def test_int_inverse_certificate(a):
    assert_inverse_certificate(a)


@given(matrices(max_rows=4, max_cols=6))
def test_int_inverse_of_independent_rows(m):
    """Independent rows, read at the pivot columns of their span."""
    a = cleared(m)
    a = a[independent_rows(a)]
    assert_inverse_certificate(a[:, list(Subspace.from_vectors(a.shape[1], a).pivots)])


def test_realizations_reach_no_int_inverse(monkeypatch, cayley):
    """derivation_algebra and so_of_form realize on the canonical basis of a
    kernel and read each commutator's coordinates at its pivots
    (Subspace.coordinates): neither reaches int_inverse."""
    calls, inverse = [], linalg.int_inverse

    def spy(a):
        calls.append(a.shape)
        return inverse(a)

    monkeypatch.setattr(linalg, "int_inverse", spy)
    assert (derivation_algebra(cayley.algebra).dim, so_of_form(cayley.form.unit_facts(cayley.unit).imaginary[1]).dim) == (14, 21)
    assert calls == []


@pytest.mark.parametrize(
    "a",
    [
        [[2, 1], [0, 2]],  # not diagonal
        [[2, 0], [0, 3]],  # diagonal, not s I
        [[0, 2], [2, 0]],  # 2 I with its rows swapped
        [[-2, 0], [0, -2]],  # s I with s < 0
        [[2, 2**70], [0, 2]],  # not diagonal, on Python ints
        [[2, 0], [0, 2]],  # 2 I: int_inverse has one path
    ],
)
def test_int_inverse_eliminates_a_family_off_the_canonical_form(monkeypatch, a):
    a = np.array(a, dtype=object if 2**70 in a[0] else np.int64)
    calls = _spy_on_exact_elimination(monkeypatch)
    x, d = int_inverse(a)
    assert calls == [len(a)]
    want, e = int_cleared(reference_inverse(a))  # x / d = a^-1 in lowest terms
    assert (x.tolist(), d) == (want.tolist(), e)


@given(st.one_of(families(fractions), families(integers)), st.data())
def test_contains_agrees_with_a_rank_oracle(family, data):
    """A combination of the family's rows lies in its span and an arbitrary
    vector may not: coordinates and contains say what the rank of the basis
    with the vector beside it says, and coordinates x give v = x (b / s) on
    the basis b / s, by the Fraction oracle coordinates_of."""
    n, vectors = family
    ints = int_family(vectors, n).tolist()
    sub = Subspace.from_vectors(n, ints)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(ints), max_size=len(ints)))
    inside = [sum(c * row[j] for c, row in zip(coeffs, ints)) for j in range(n)]
    arbitrary = data.draw(st.lists(integers, min_size=n, max_size=n))
    for vec in (inside, arbitrary):
        expected = reference_rank(np.array([*sub.basis.tolist(), vec], dtype=object)) == sub.dim
        x = sub.coordinates(np.array([vec], dtype=object))
        assert (x is not None) == expected
        assert x is None or (tuple(x.ints[0]), x.den) == (coordinates_of(sub, vec), 1)
        assert sub.contains(Subspace.from_vectors(n, [vec])) == expected
        assert sub.contains(np.array([vec], dtype=object)) == expected
    both = Subspace.from_vectors(n, [inside, arbitrary])
    assert sub.contains(both) == (reference_rank(np.array([*sub.basis.tolist(), inside, arbitrary], dtype=object)) == sub.dim)
    x = sub.coordinates(both)
    assert (x is not None) == sub.contains(both)
    assert x is None or [tuple(row) for row in x.ints] == [coordinates_of(sub, row) for row in both.basis.tolist()]
    assert x is None or x.den == both.den
    assert sub.contains(np.array([inside], dtype=object))


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]]),  # dependent rows
        np.array([[1, 2, 0], [0, 0, 0], [0, 1, 1]]),  # a zero row
        np.array([[1, 2], [2, 4]]),  # singular
        np.zeros((1, 1), dtype=np.int64),  # one zero entry
    ],
)
def test_int_inverse_rejects_a_dependent_family(a):
    with pytest.raises(ValueError, match="linearly dependent"):
        int_inverse(a)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[0, 6, 3, 9], [4, 2, 0, 2], [2, 0, 5, 1]]),  # wide, independent
        np.array([[2**70, 1, 0], [3, 2**70, 1]], dtype=object),
        np.array([[2, 1], [0, 2], [1, 1]]),  # tall
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((1, 0), dtype=np.int64),
    ],
)
def test_int_inverse_rejects_a_rectangular_array(a):
    with pytest.raises(ValueError, match="square"):
        int_inverse(a)
    with pytest.raises(TypeError):  # the same rows as a nested list
        int_inverse(a.tolist())
