"""The split Cayley algebra over the rationals, built from Zorn vector matrices.

Elements are pairs of scalars and 3-vectors ``[[a, v], [w, b]]`` multiplied by

    [[a,v],[w,b]] * [[a',v'],[w',b']] =
        [[a a' + v.w',  a v' + b' v - w x w'],
         [a' w + b w' + v x v',  b b' + w.v']]

with norm ``N = a b - v.w``.  The basis is ordered: the two diagonal
idempotents first, then the three v-slots, then the three w-slots, which
gives integer structure constants in {-1, 0, 1}.

A ``StructureConstantAlgebra`` holds its multiplication once, as the cleared
integer tensor ``M`` (dim x dim x dim, M[i, j, k] = den * m_ijk for
e_i e_j = sum_k m_ijk e_k) and its one denominator ``den``; its norm is a
``linalg.NormForm``, the Gram matrix of the polarization as the integer
matrix ``G`` and its one denominator ``den``.  Both are held read-only
beside their largest magnitudes ``mmax`` and ``gmax`` (``linalg.held``), and
every product, bilinear value and identity check is a ``linalg.int_einsum``
of them that reads those bounds.  The Zorn product runs on integer basis
vectors.  What the form and the unit fix alone, the imaginary subspace and
its restricted form among it, is one ``linalg.UnitFacts`` per form and unit
(``NormForm.unit_facts``), so the mutants of a sweep share it.  Fractions
remain only where the benchmark's mutation sweep and tracer use them:
``StructureConstantAlgebra(dim, mul)`` clears a rational ``mul`` in one pass,
and ``mul`` and ``multiply`` return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    Bounded,
    NormForm,
    int_cleared,
    held,
    int_einsum,
)

DIM = 8

class StructureConstantAlgebra:
    """A finite-dimensional (not necessarily associative) algebra given by
    structure constants e_i e_j = sum_k mul[i][j][k] e_k, held only as
    ``M`` = den * mul, read-only beside its bound ``mmax``, and ``den``.  A
    mis-shaped tensor raises ValueError, an inexact constant TypeError."""

    def __init__(self, dim: int, mul):
        M, self.den = int_cleared(mul if dim else np.zeros((0, 0, 0), dtype=np.int64))
        if M.shape != (dim,) * 3:
            raise ValueError("structure constant tensor has wrong shape")
        self.dim = dim
        self.M, self.mmax = held(M, copy=False)

    @cached_property
    def mul(self) -> tuple:
        """The structure constants as nested tuples of Fractions, a view of
        ``M`` / ``den`` built on first use."""
        return tuple(
            tuple(tuple(Fraction(x, self.den) for x in prod) for prod in row)
            for row in self.M.tolist()
        )

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension of the structure constants."""
        (xs, ys), d = int_cleared([x, y])
        prod = int_einsum("i,j,ijk->k", xs, ys, Bounded(self.M, self.mmax))
        return tuple(Fraction(int(c), d * d * self.den) for c in prod)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _zorn_multiply(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    a, b, v, w = x[0], x[1], x[2:5], x[5:8]
    a2, b2, v2, w2 = y[0], y[1], y[2:5], y[5:8]
    cross_w = _cross(w, w2)
    cross_v = _cross(v, v2)
    upper = tuple(a * v2[i] + b2 * v[i] - cross_w[i] for i in range(3))
    lower = tuple(a2 * w[i] + b * w2[i] + cross_v[i] for i in range(3))
    return (a * a2 + _dot(v, w2), b * b2 + _dot(w, v2)) + upper + lower


def _zorn_norm_form() -> NormForm:
    """The polarization of N = ab - v.w, with Gram matrix G / 2."""
    g = np.zeros((DIM, DIM), dtype=np.int64)
    g[0, 1] = g[1, 0] = 1
    for i in range(3):
        g[2 + i, 5 + i] = g[5 + i, 2 + i] = -1
    return NormForm(g, 2)


class SplitCayley:
    """The split Cayley algebra bundled with its norm data; a form or a unit
    of another dimension than the algebra's raises ValueError."""

    def __init__(self, algebra: StructureConstantAlgebra, form: NormForm, unit: tuple[int, ...]):
        if len(form.G) != algebra.dim or len(unit) != algebra.dim:
            raise ValueError("the form and the unit must have the algebra's dimension")
        self.algebra, self.form, self.unit = algebra, form, unit


def build_split_cayley() -> SplitCayley:
    """Construct the algebra; the composition law N(xy) = N(x)N(y) is what the
    verification suite certifies about it."""
    basis = np.eye(DIM, dtype=int).tolist()
    mul = [[_zorn_multiply(x, y) for y in basis] for x in basis]
    algebra = StructureConstantAlgebra(dim=DIM, mul=mul)
    return SplitCayley(algebra=algebra, form=_zorn_norm_form(), unit=(1, 1) + (0,) * 6)
