import functools
import json
import math
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest
from hypothesis import settings

from g2cert import lie
from g2cert.lie import LieAlgebra
from g2cert.linalg import NormForm, Subspace, int_cleared, int_dtype, int_einsum
from g2cert.octonion import DIM, SplitCayley, StructureConstantAlgebra, build_split_cayley
from g2cert.reps import LieModule
from g2cert.suite import VerificationContext

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def fractions(a, den=1):
    """The rational array a / den of an integer array a, as an object array
    of Fractions: the reference representation the tests compute with."""
    a = np.asarray(a, dtype=object)
    return np.array([Fraction(int(x), den) for x in a.flat], dtype=object).reshape(a.shape)


def leading_one_basis(sub):
    """The canonical basis of the Subspace sub as leading-1 Fraction rows:
    each row of its basis over its den."""
    return tuple(tuple(Fraction(x, sub.den) for x in row) for row in sub.basis.tolist())


def primitive_rows(sub):
    """The rows of the Subspace sub's basis, each over its gcd: the primitive
    rows its validating constructor takes."""
    return [[x // math.gcd(*row) for x in row] for row in sub.basis.tolist()]


def int_family(vectors, n):
    """A family of n-wide rational rows times its least common denominator,
    as one integer array: the same span, in the form Subspace.from_vectors
    takes."""
    return int_cleared(np.array(vectors, dtype=object).reshape(len(vectors), n))[0]


def three_pass_cleared(values):
    """int_cleared as three passes over the entries: each converted to a
    Fraction unless it is an int or a Fraction, denominators cleared, then the
    largest magnitude taken; kept as the reference for the one-pass clear."""
    values = np.array(values, dtype=object)
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values.flat]
    den = math.lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (den // x.denominator) for x in fracs]
    return np.array(ints, dtype=int_dtype(max(map(abs, ints), default=0))).reshape(values.shape), den


ZERO = Fraction(0)


# -- Fraction references: one per exact primitive ------------------------------
# The tests compute every expected kernel, span, rank, inverse and signature
# here, by textbook elimination that shares no code with the fraction-free
# engine of g2cert.linalg.  The one exception is the Kronecker Hom systems of
# test_reps (up to 441 unknowns), which kernel_basis solves: these references
# would take seconds per system there, and test_linalg pins kernel_basis to
# reference_kernel.


def _distinct_nonzero_rows(rows):
    """The distinct nonzero rows, as lists: they span what rows span."""
    return [list(r) for r in dict.fromkeys(map(tuple, rows)) if any(r)]


def _cleared_by(row, piv_row, c):
    """row with its entry in column c cleared by the fraction-free combination
    (p / g) row - (v / g) piv_row, g = gcd(p, v), of the entries p of piv_row
    and v of row in column c; no gcd is stripped from the result."""
    g = math.gcd(piv_row[c], row[c])
    pf, vf = piv_row[c] // g, row[c] // g
    return [pf * a - vf * b for a, b in zip(row, piv_row)]


def _echelon(rows, ncols):
    """An echelon form of integer rows ncols wide, by fraction-free forward
    elimination (first pivot found): its nonzero rows and their pivot
    columns."""
    work, pivots = _distinct_nonzero_rows(rows), []
    assert all(len(r) == ncols for r in work)
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        work[r + 1 :] = [_cleared_by(row, work[r], c) if row[c] else row for row in work[r + 1 :]]
        pivots.append(c)
    return work[: len(pivots)], pivots


def reference_rref(rows, ncols):
    """The reduced row echelon form of integer rows ncols wide, by
    fraction-free Gauss-Jordan elimination in two sweeps: ``_echelon``, then
    each pivot column cleared from the rows above it, last pivot first.  Its
    leading-1 Fraction rows and their pivot columns, as tuples."""
    work, pivots = _echelon(rows, ncols)
    for r in reversed(range(len(pivots))):
        work[:r] = [_cleared_by(row, work[r], pivots[r]) if row[pivots[r]] else row for row in work[:r]]
    return tuple(tuple(Fraction(x, work[i][c]) if x else ZERO for x in work[i]) for i, c in enumerate(pivots)), tuple(pivots)


def reference_rank(m):
    """The rank over Q of a 2-D integer array: the number of pivots of its
    ``_echelon``."""
    return len(_echelon(np.asarray(m).tolist(), np.shape(m)[1])[1])


def spin_contract(a, basis, origins):
    """Check a spin basis of the integer stack a (m x n x n), its rows and
    their origins as ``reps._spin_basis`` returns them, and return its seed
    count: row j from (k, g, s) has k < j, the seed number s of row k, and
    equals a[g] times row k exactly; row j from a seed (-1, -1, s) is the
    first standard vector outside the span of the rows above it, and s
    counts the seeds before it; all n rows have rank n (``reference_rank``)."""
    a, basis, n = np.asarray(a, dtype=object), np.asarray(basis, dtype=object), np.shape(a)[1]
    assert basis.shape == (n, n) and len(origins) == n and reference_rank(basis) == n
    seeds, units = 0, np.eye(n, dtype=object)
    for j, (k, g, s) in enumerate(origins):
        if k >= 0:
            assert k < j and s == origins[k][2] and (a[g] @ basis[k]).tolist() == basis[j].tolist()
            continue
        above = reference_rank(basis[:j])
        first = next(u for u in range(n) if reference_rank(np.vstack([basis[:j], units[u]])) > above)
        assert s == seeds and basis[j].tolist() == units[first].tolist()
        seeds += 1
    return seeds


def span_of_rows(ncols, leading_one):
    """The Subspace with the given leading-1 rows: each cleared to its
    primitive integer row, through the validating constructor."""
    return Subspace(ncols, [int_cleared(row)[0].tolist() for row in leading_one])


def reference_span(ncols, vectors):
    """The span of integer vectors ncols wide, by ``reference_rref``."""
    return span_of_rows(ncols, reference_rref(vectors, ncols)[0])


def reference_kernel_rows(m):
    """The kernel of an integer array as leading-1 Fraction rows: one vector
    per free column f of ``reference_rref`` (e_f minus column f of the
    leading-1 rows on their pivots), reduced by ``reference_rref`` again."""
    ncols = m.shape[1]
    reduced, pivots = reference_rref(m.tolist(), ncols)
    free = [f for f in range(ncols) if f not in pivots]
    vectors = [[int(c == f) if c not in pivots else -reduced[pivots.index(c)][f] for c in range(ncols)] for f in free]
    return reference_rref(int_family(vectors, ncols).tolist(), ncols)[0]


def reference_kernel(m):
    """The kernel of an integer array as a Subspace, by ``reference_kernel_rows``."""
    return span_of_rows(m.shape[1], reference_kernel_rows(m))


def reference_inverse(a):
    """a^-1 of a square matrix of exact rationals, as an object array of
    Fractions: the right half of the ``reference_rref`` of [a | I], each row
    cleared on its own; ValueError when a pivot falls in I (a is singular)."""
    k = len(a)
    rows = [int_cleared([*row, *(int(i == j) for j in range(k))])[0].tolist() for i, row in enumerate(np.asarray(a, dtype=object).tolist())]
    reduced, pivots = reference_rref(rows, 2 * k)
    if pivots != tuple(range(k)):
        raise ValueError("a singular matrix has no inverse")
    return np.array([row[k:] for row in reduced], dtype=object).reshape(k, k)


def reference_signature(m):
    """Inertia (positive, negative, zero) of a symmetric rational matrix by
    Fraction congruence: a zero pivot takes a later nonzero diagonal entry by
    a swap, or else row and column of a later nonzero entry folded in."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(n)):
        raise ValueError("signature requires a symmetric matrix")
    pos = neg = 0
    for i in range(n):
        if not a[i][i]:
            swap = next((j for j in range(i + 1, n) if a[j][j]), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                fold = next((j for j in range(i + 1, n) if a[i][j]), None)
                if fold is None:
                    continue  # row is null from here on
                for j in range(n):
                    a[i][j] += a[fold][j]
                for row in a:
                    row[i] += row[fold]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j]:
                f = a[i][j] / d
                for k in range(n):
                    if a[i][k]:
                        a[j][k] -= f * a[i][k]
                for row in a:
                    if row[i]:
                        row[j] -= f * row[i]
    return (pos, neg, n - pos - neg)


def leibniz_rows(alg):
    """The derivation system of a StructureConstantAlgebra written row by
    row from its constants M / den, cleared to one integer array: row
    (i, j, l) is the e_l coefficient of D(e_i e_j) - D(e_i) e_j - e_i D(e_j)
    in the unknowns D[a][b] (column n a + b)."""
    n, mul = alg.dim, fractions(alg.M, alg.den)
    rows = []
    for i, j, l in product(range(n), repeat=3):
        row = [Fraction(0)] * (n * n)
        for k in range(n):
            row[l * n + k] += mul[i, j, k]
        for m in range(n):
            row[m * n + i] -= mul[m, j, l]
            row[m * n + j] -= mul[i, m, l]
        rows.append(row)
    return int_cleared(rows)[0]


def lie_algebra(consts):
    """The Lie algebra of a nested sequence of rational constants c_ijk,
    cleared to the integer tensor and denominator the constructor takes."""
    return LieAlgebra(*int_cleared(consts))


def sl2_constants(n=1, drift=0):
    """sl2 in the basis (n h, e, f) as Fractions c_ijk: [h', e] = 2n e,
    [h', f] = -2n f, [e, f] = h' / n; drift is added to [h', e] only, which
    breaks Jacobi."""
    c = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1], c[1][0][1] = Fraction(2 * n + drift), Fraction(-2 * n - drift)
    c[0][2][2], c[2][0][2] = Fraction(-2 * n), Fraction(2 * n)
    c[1][2][0], c[2][1][0] = Fraction(1, n), Fraction(-1, n)
    return c


def untimed(payload) -> bytes:
    """A JSON report, text or bytes, with every check's elapsed_ms set to 0:
    two runs of one input agree on everything else, byte for byte."""
    doc = json.loads(payload)
    for check in doc["checks"]:
        check["elapsed_ms"] = 0
    return json.dumps(doc).encode()


def coordinates_of(sub, vec):
    """Coefficients of vec in the canonical (leading-1) basis of the
    Subspace sub, or None if vec lies outside it: read the coefficients off
    the pivot columns, then check that the residual vanishes."""
    vec = tuple(Fraction(x) for x in vec)
    if len(vec) != sub.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coeffs = tuple(vec[p] for p in sub.pivots)
    residual = list(vec)
    for c, row in zip(coeffs, leading_one_basis(sub)):
        for j, x in enumerate(row):
            residual[j] -= c * x
    return None if any(residual) else coeffs


def diagonal(entries):
    """A diagonal matrix as an object array of the given entries."""
    m = np.zeros((len(entries), len(entries)), dtype=object)
    m[np.diag_indices(len(entries))] = entries
    return m


def zeros(nrows, ncols):
    return np.zeros((nrows, ncols), dtype=object)


def ad(g, x):
    """Matrix of ad(x): y -> [x, y] in basis coordinates, as Fractions."""
    xs, xden = int_cleared(x)
    return fractions(int_einsum("i,ijk->kj", xs, g.C).ints, xden * g.den)


def bracket(g, x, y):
    """Bracket of two coordinate vectors."""
    return tuple(ad(g, x) @ np.array(y, dtype=object))


def realization_matrices(g):
    """The realization of a Lie algebra as Fraction matrices, one stack."""
    return fractions(*g.realization)


def action_matrices(v):
    """The action of a module as Fraction matrices A[i] / den, one stack."""
    return fractions(v.A, v.den)


def basis_element(i):
    return tuple(Fraction(int(j == i)) for j in range(DIM))


@functools.cache
def _gram_terms(form):
    """The nonzero entries (i, j, G[i, j]) of a NormForm's read-only Gram matrix."""
    return [(i, j, g) for i, row in enumerate(form.G.tolist()) for j, g in enumerate(row) if g]


def form_bilinear(form, x, y):
    """B(x, y) = x^T G y / den of a NormForm as a Fraction, summed term by
    term over the nonzero Gram entries: the reference for the integer
    contractions."""
    return Fraction(sum((x[i] * g * y[j] for i, j, g in _gram_terms(form)), ZERO), form.den)


def form_norm(form, x):
    """The quadratic norm B(x, x) of a NormForm as a Fraction."""
    return form_bilinear(form, x, x)


def conjugate(c, x):
    """x-bar = 2 <x,e>/<e,e> e - x; pure imaginaries go to their negatives."""
    k = 2 * form_bilinear(c.form, x, c.unit) / form_norm(c.form, c.unit)
    return tuple(k * e - xi for e, xi in zip(c.unit, x))


def gram(c):
    """The Gram matrix of the norm form as Fractions, G / den."""
    return fractions(c.form.G, c.form.den)


def random_element(rng):
    return tuple(Fraction(rng.randint(-9, 9)) for _ in range(DIM))


# e3*e4 drifts off the Zorn table by e1 + e2 and picks up norm 1, breaking
# composition
E3E4_DRIFT = {(2, 3, 0): 1, (2, 3, 1): 1}


_PRISTINE = build_split_cayley()


def cayley_mutant(changes):
    """The split Cayley algebra with each structure constant M[i, j, k]
    moved by changes[(i, j, k)]; form and unit are the pristine ones, the
    form a fresh copy, so that no two mutants share its unit facts."""
    m = _PRISTINE.algebra.M.copy()
    for ijk, delta in changes.items():
        m[ijk] += delta
    form = NormForm(_PRISTINE.form.G, _PRISTINE.form.den)
    return SplitCayley(algebra=StructureConstantAlgebra(DIM, m), form=form, unit=_PRISTINE.unit)


def indexed_mutant(index):
    """Mutant 2 * (64 i + 8 j + k) + s of the 1024 +-1 mutants: M[i, j, k]
    moved by +1 for s = 0 and by -1 for s = 1."""
    i, rest = divmod(index // 2, 64)
    return cayley_mutant({(i, *divmod(rest, 8)): 1 - 2 * (index % 2)})


def loop_product(mul):
    """The product of two coordinate vectors by the nested constants
    mul[i][j][k], as a function that sums x_i y_j mul[i][j][k] term by term
    over the nonzero constants."""
    terms = [(i, j, k, m) for i, row in enumerate(mul) for j, prod in enumerate(row) for k, m in enumerate(prod) if m]

    def multiply(x, y):
        out = [ZERO] * len(x)
        for i, j, k, m in terms:
            if x[i] and y[j]:
                out[k] += x[i] * y[j] * m
        return tuple(out)

    return multiply


def unimodular(seed: int) -> list[list[int]]:
    """Twelve seeded elementary row operations on the identity, multipliers +-1 or +-2."""
    rng, p = Random(seed), np.eye(8, dtype=object)
    for _ in range(12):
        i, j = rng.sample(range(8), 2)
        p[i] += rng.choice((-2, -1, 1, 2)) * p[j]
    return p.tolist()


def cayley_in_basis(p):
    """The split Cayley algebra in the basis of the columns of p."""
    c = build_split_cayley()
    inv = reference_inverse(p)
    p = np.array(p, dtype=object)
    multiply = loop_product(c.algebra.mul)
    mul = tuple(tuple(tuple(inv @ multiply(x, y)) for y in p.T) for x in p.T)
    form = NormForm(*int_cleared(p.T @ gram(c) @ p))
    return SplitCayley(StructureConstantAlgebra(8, mul), form, tuple(inv @ np.array(c.unit)))


@functools.cache
def basis_twin(seed):
    """``cayley_in_basis(unimodular(seed))``, built once per session: the
    algebra and its form are read-only, and the form's unit facts depend on
    nothing else."""
    return cayley_in_basis(unimodular(seed))


def _dickson_conjugate(x):
    h = len(x) // 2
    return x if h == 0 else _dickson_conjugate(x[:h]) + [-v for v in x[h:]]


def _dickson_multiply(x, y):
    """(a, b)(c, d) = (ac - d* b, da + b c*) on coordinate lists of length 2^k."""
    h = len(x) // 2
    if h == 0:
        return [x[0] * y[0]]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    left = [p - q for p, q in zip(_dickson_multiply(a, c), _dickson_multiply(_dickson_conjugate(d), b))]
    right = [p + q for p, q in zip(_dickson_multiply(d, a), _dickson_multiply(b, _dickson_conjugate(c)))]
    return left + right


def compact_octonions():
    """The octonions by Cayley-Dickson doubling of Q three times: constants in
    {-1, 0, 1}, the positive definite norm with Gram matrix I, and unit e1."""
    basis = np.eye(DIM, dtype=int).tolist()
    mul = [[_dickson_multiply(x, y) for y in basis] for x in basis]
    return SplitCayley(StructureConstantAlgebra(DIM, mul), NormForm(np.eye(DIM, dtype=np.int64)), (1,) + (0,) * (DIM - 1))


# The witnesses of every check that errors when so(7) is the run's derivation
# algebra: its natural module is 7-dimensional, the wrong ambient space for
# the imaginary subspace, so every stage built on it raises
WRONG_AMBIENT = {"exception": "ValueError: subspace lives in the wrong ambient space"}
SO7_ERRORS = {
    "wedge-iso": WRONG_AMBIENT,
    "decomposition": WRONG_AMBIENT,
    "invariant-form": {"skipped": "dependency 'derivations' did not pass"},
    **dict.fromkeys(("recognition", "maximality", "metric-constants"), {"skipped": "dependency 'decomposition' did not pass"}),
}


def abelian_algebra(dim):
    return LieAlgebra(np.zeros((dim,) * 3, dtype=np.int64))


def zero_algebra():
    return LieAlgebra(np.zeros((0, 0, 0), dtype=np.int64))


def direct_sum_algebra(a, b):
    """a + b with [a, b] = 0, basis of a first, over the denominator
    a.den * b.den."""
    dim = a.dim + b.dim
    c = np.zeros((dim,) * 3, dtype=object)
    c[: a.dim, : a.dim, : a.dim] = a.C.astype(object) * b.den
    c[a.dim :, a.dim :, a.dim :] = b.C.astype(object) * a.den
    return LieAlgebra(c, a.den * b.den)


def direct_sum_module(v, w):
    """v + w as a module over their common algebra, block-diagonal action."""
    if v.algebra is not w.algebra:
        raise ValueError("modules over different algebras")
    x, y = action_matrices(v), action_matrices(w)
    blocks = np.zeros((len(x), v.dim + w.dim, v.dim + w.dim), dtype=object)
    blocks[:, : v.dim, : v.dim], blocks[:, v.dim :, v.dim :] = x, y
    return LieModule(v.algebra, *int_cleared(blocks))


@pytest.fixture(scope="session")
def ctx():
    """Shared canonical constructions; everything on it is immutable."""
    return VerificationContext()


@pytest.fixture(scope="session")
def cayley(ctx):
    return ctx.cayley


@pytest.fixture(scope="session")
def derivations(ctx):
    return ctx.derivations


@pytest.fixture(scope="session")
def so34(ctx):
    return ctx.so34


@pytest.fixture(scope="session")
def natural_rep(ctx):
    return ctx.natural_rep


@pytest.fixture(scope="session")
def mutant_leibniz_systems():
    """The 512 x 64 derivation systems of one in every 16 of the 1024 +-1
    mutants (mutant 16 t + t % 16, staggered so that both signs and every k
    occur), as derivation_algebra hands them to kernel_basis, each beside
    the leading-1 rows of its reference kernel."""
    systems = []
    with pytest.MonkeyPatch.context() as mp:
        solve = lie.kernel_basis
        mp.setattr(lie, "kernel_basis", lambda m: systems.append(m) or solve(m))
        for t in range(64):
            lie.derivation_algebra(indexed_mutant(16 * t + t % 16).algebra)
    assert len(systems) == 64
    return [(m, reference_kernel_rows(m)) for m in systems]


@pytest.fixture(scope="session")
def matrix_algebra_2x2():
    """Structure constants of the full 2x2 matrix algebra, basis E11,E12,E21,E22."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    mul = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                mul[i][j][idx[(a, d)]] = 1
    return StructureConstantAlgebra(
        dim=4, mul=tuple(tuple(tuple(p) for p in row) for row in mul)
    )


@pytest.fixture(scope="session")
def rational_line_algebra():
    """The 1-dimensional unital algebra (the base field itself)."""
    return StructureConstantAlgebra(dim=1, mul=(((1,),),))
