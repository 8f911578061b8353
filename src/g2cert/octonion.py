"""The split Cayley algebra over the rationals, built from Zorn vector matrices.

Elements are pairs of scalars and 3-vectors ``[[a, v], [w, b]]`` multiplied by

    [[a,v],[w,b]] * [[a',v'],[w',b']] =
        [[a a' + v.w',  a v' + b' v - w x w'],
         [a' w + b w' + v x v',  b b' + w.v']]

with norm ``N = a b - v.w``.  The basis is ordered: the two diagonal
idempotents first, then the three v-slots, then the three w-slots, which
gives integer structure constants in {-1, 0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .linalg import Matrix, Subspace, ZERO, ONE, signature

DIM = 8

Coords = tuple[Fraction, ...]


@dataclass(frozen=True)
class StructureConstantAlgebra:
    """A finite-dimensional (not necessarily associative) algebra given by
    structure constants: e_i e_j = sum_k mul[i][j][k] e_k."""

    dim: int
    mul: tuple
    unit_index: Optional[int] = None

    def __post_init__(self):
        if len(self.mul) != self.dim or any(
            len(row) != self.dim or any(len(prod) != self.dim for prod in row)
            for row in self.mul
        ):
            raise ValueError("structure constant tensor has wrong shape")
        if self.unit_index is not None:
            u = self.unit_index
            for j in range(self.dim):
                want = tuple(ONE if k == j else ZERO for k in range(self.dim))
                if self.mul[u][j] != want or self.mul[j][u] != want:
                    raise ValueError("declared unit index is not a unit")

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Coords:
        """Bilinear extension of the structure constants."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.mul[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in enumerate(row[j]):
                    if m:
                        out[k] += c * m
        return tuple(out)


@dataclass(frozen=True)
class NormForm:
    """Quadratic norm together with its polarized bilinear form."""

    gram: Matrix

    def bilinear(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return sum(
            (xi * sum((g * yj for g, yj in zip(row, y) if g and yj), ZERO)
             for xi, row in zip(x, self.gram.rows) if xi),
            ZERO,
        )

    def norm(self, x: Sequence[Fraction]) -> Fraction:
        return self.bilinear(x, x)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _zorn_multiply(x: Sequence[Fraction], y: Sequence[Fraction]) -> Coords:
    a, b, v, w = x[0], x[1], x[2:5], x[5:8]
    a2, b2, v2, w2 = y[0], y[1], y[2:5], y[5:8]
    cross_w = _cross(w, w2)
    cross_v = _cross(v, v2)
    upper = tuple(a * v2[i] + b2 * v[i] - cross_w[i] for i in range(3))
    lower = tuple(a2 * w[i] + b * w2[i] + cross_v[i] for i in range(3))
    return (a * a2 + _dot(v, w2), b * b2 + _dot(w, v2)) + upper + lower


def _zorn_norm_gram() -> Matrix:
    """Gram matrix of the polarization of N = ab - v.w."""
    rows = [[ZERO] * DIM for _ in range(DIM)]
    half = Fraction(1, 2)
    rows[0][1] = rows[1][0] = half
    for i in range(3):
        rows[2 + i][5 + i] = rows[5 + i][2 + i] = -half
    return Matrix(rows)


@dataclass(frozen=True)
class SplitCayley:
    """The split Cayley algebra bundled with its norm data."""

    algebra: StructureConstantAlgebra
    form: NormForm
    unit: Coords

    def basis_element(self, i: int) -> Coords:
        return tuple(ONE if j == i else ZERO for j in range(DIM))

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Coords:
        return self.algebra.multiply(x, y)

    def conjugate(self, x: Sequence[Fraction]) -> Coords:
        """x-bar = 2 <x,e>/<e,e> e - x; pure imaginaries go to their negatives."""
        c = 2 * self.form.bilinear(x, self.unit) / self.form.norm(self.unit)
        return tuple(c * e - xi for e, xi in zip(self.unit, x))

    def norm(self, x: Sequence[Fraction]) -> Fraction:
        return self.form.norm(x)

    def bilinear(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return self.form.bilinear(x, y)

    def random_element(self, rng: Random, bound: int = 9) -> Coords:
        return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(DIM))

    def imaginary_subspace(self) -> tuple[Subspace, Matrix]:
        """The orthogonal complement of the unit and the Gram matrix of the
        norm form restricted to it (signature (3,4))."""
        constraint = Matrix([[self.form.bilinear(self.basis_element(j), self.unit)
                              for j in range(DIM)]])
        from .linalg import kernel_basis

        sub = kernel_basis(constraint)
        assert sub.dim == DIM - 1
        b = sub.basis
        restricted = Matrix(
            [[self.form.bilinear(b[i], b[j]) for j in range(sub.dim)]
             for i in range(sub.dim)]
        )
        return sub, restricted


def build_split_cayley() -> SplitCayley:
    """Construct the algebra; the composition law N(xy) = N(x)N(y) is what the
    verification suite certifies about it."""
    basis = [tuple(ONE if j == i else ZERO for j in range(DIM)) for i in range(DIM)]
    mul = tuple(
        tuple(_zorn_multiply(basis[i], basis[j]) for j in range(DIM))
        for i in range(DIM)
    )
    algebra = StructureConstantAlgebra(dim=DIM, mul=mul, unit_index=None)
    form = NormForm(gram=_zorn_norm_gram())
    unit = (ONE, ONE) + (ZERO,) * 6
    return SplitCayley(algebra=algebra, form=form, unit=unit)
