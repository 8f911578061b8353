import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import settings

from g2cert.lie import LieAlgebra
from g2cert.linalg import Matrix, NormForm, int_cleared, int_dtype, int_einsum
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


def lie_algebra(consts):
    """The Lie algebra of a nested sequence of rational constants c_ijk,
    cleared to the integer tensor and denominator the constructor takes."""
    return LieAlgebra(*int_cleared(consts))


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
    return fractions(int_einsum("i,ijk->kj", xs, g.C), xden * g.den)


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


def form_bilinear(form, x, y):
    """B(x, y) = x^T G y / den of a NormForm as a Fraction, summed term by
    term over the nonzero Gram entries: the reference for the integer
    contractions."""
    terms = (x[i] * g * y[j] for i, row in enumerate(form.G.tolist()) for j, g in enumerate(row) if g)
    return Fraction(sum(terms, Fraction(0)), form.den)


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


def cayley_mutant(changes):
    """The split Cayley algebra with each structure constant mul[i][j][k]
    moved by changes[(i, j, k)]; form and unit are the pristine ones."""
    pristine = build_split_cayley()
    mul = [[list(prod) for prod in row] for row in pristine.algebra.mul]
    for (i, j, k), delta in changes.items():
        mul[i][j][k] += delta
    algebra = StructureConstantAlgebra(dim=DIM, mul=tuple(tuple(tuple(p) for p in row) for row in mul))
    return SplitCayley(algebra=algebra, form=pristine.form, unit=pristine.unit)


def loop_multiply(mul, x, y):
    """The product of two coordinate vectors, entry by entry."""
    out = [Fraction(0)] * len(x)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, m in enumerate(mul[i][j]):
                if m:
                    out[k] += xi * yj * m
    return tuple(out)


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
    inv = np.array(Matrix(p).inverse().rows, dtype=object)
    p = np.array(p, dtype=object)
    mul = tuple(tuple(tuple(inv @ loop_multiply(c.algebra.mul, x, y)) for y in p.T) for x in p.T)
    form = NormForm(*int_cleared(p.T @ gram(c) @ p))
    return SplitCayley(StructureConstantAlgebra(8, mul), form, tuple(inv @ np.array(c.unit)))


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
