from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from g2cert.lie import LieAlgebra
from g2cert.linalg import clear_denominators, int_cleared, int_einsum
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
    each stored primitive row over its pivot entry."""
    return tuple(tuple(Fraction(x, r[p]) for x in r) for r, p in zip(sub.rows, sub.pivots))


def int_family(vectors, n):
    """A family of n-wide rational rows times its least common denominator,
    as one integer array: the same span, in the form Subspace.from_vectors
    takes."""
    return int_cleared(np.array(vectors, dtype=object).reshape(len(vectors), n))[0]


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
    xs, xden = clear_denominators(x)
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


def conjugate(c, x):
    """x-bar = 2 <x,e>/<e,e> e - x; pure imaginaries go to their negatives."""
    k = 2 * c.form.bilinear(x, c.unit) / c.form.norm(c.unit)
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
