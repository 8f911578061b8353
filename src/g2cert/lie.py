"""Lie algebras by structure constants and by matrix realization.

Covers brackets, Killing forms and Cartan's semisimplicity criterion,
derivation algebras of nonassociative algebras, so(p,q) of a symmetric form,
bracket-generated closures, centralizers, and bracket transporters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateFormError
from .linalg import (
    Matrix,
    Subspace,
    ZERO,
    ONE,
    _int_rref,
    _strip_row,
    clear_denominators,
    kernel_basis,
    signature,
)
from .octonion import StructureConstantAlgebra


class LieAlgebra:
    """A Lie algebra given by a bracket tensor [e_i, e_j] = sum_k c[i][j][k] e_k,
    optionally carrying a faithful matrix realization of the basis.

    Antisymmetry is checked at construction, and so is the bracket law: against
    the realization's commutators when one is supplied (which also forces the
    Jacobi identity), and as the Jacobi identity otherwise.
    """

    def __init__(
        self,
        brackets: tuple,
        name: str = "",
        realization: Optional[tuple[Matrix, ...]] = None,
    ):
        self.brackets = tuple(
            tuple(tuple(Fraction(x) for x in prod) for prod in row) for row in brackets
        )
        self.dim = len(self.brackets)
        self.name = name
        self.realization = tuple(realization) if realization is not None else None
        # built once per algebra, by killing_form and reps.adjoint_module
        self._killing: Optional[KillingForm] = None
        self._adjoint = None
        for i in range(self.dim):
            if len(self.brackets[i]) != self.dim or any(
                len(p) != self.dim for p in self.brackets[i]
            ):
                raise ValueError("bracket tensor has wrong shape")
        for i in range(self.dim):
            for j in range(i, self.dim):
                if self.brackets[i][j] != tuple(-x for x in self.brackets[j][i]):
                    raise ValueError(f"brackets not antisymmetric at ({i},{j})")
        if self.realization is None:
            if not self.verify_jacobi():
                raise ValueError("Jacobi identity fails")
        else:
            if len(self.realization) != self.dim:
                raise ValueError("realization size does not match dimension")
            bad = self.bracket_law_failure(self.realization)
            if bad is not None:
                raise ValueError("realization inconsistent with brackets at ({},{})".format(*bad))

    # -- bracket machinery ------------------------------------------------

    @cached_property
    def _sparse(self) -> list[list[tuple[tuple[int, Fraction], ...]]]:
        return [
            [
                tuple((k, c) for k, c in enumerate(prod) if c)
                for prod in row
            ]
            for row in self.brackets
        ]

    @cached_property
    def _sparse_int(self) -> tuple[list[list[tuple[tuple[int, int], ...]]], int]:
        """Integer-scaled sparse brackets (table, denominator)."""
        _, den = clear_denominators([c for row in self._sparse for prod in row for _, c in prod])
        table = [[tuple((k, int(c * den)) for k, c in prod) for prod in row] for row in self._sparse]
        return table, den

    def bracket_law_failure(self, mats: Sequence[Matrix]) -> Optional[tuple[int, int]]:
        """First basis pair (i, j), i < j, with [m_i, m_j] != sum_k c_ijk m_k,
        or None if the law holds exactly on every pair.

        The one check of the bracket law: for a realization, for the action of
        a module, and for ad_basis, where it is the Jacobi identity.  Both
        sides are scaled to integers; int64 carries them while every product
        provably fits, Python ints beyond that.
        """
        if not mats:
            return None
        n = mats[0].nrows
        flat, den = clear_denominators([x for m in mats for row in m.rows for x in row])
        table, cden = self._sparse_int
        amax = max(map(abs, flat), default=0)
        cmax = max((abs(c) for row in table for prod in row for _, c in prod), default=0)
        peak = max(cden, den, cmax, 2 * n * amax * amax * cden, self.dim * cmax * amax * den)
        a = np.array(flat, dtype=np.int64 if peak < (1 << 62) else object)
        a = a.reshape(len(mats), n, n)
        for i in range(self.dim):
            comm = cden * (a[i] @ a[i + 1 :] - a[i + 1 :] @ a[i])
            for j in range(i + 1, self.dim):
                rhs = sum((c * a[k] for k, c in table[i][j]), np.zeros_like(a[i]))
                if not np.array_equal(comm[j - i - 1], den * rhs):
                    return (i, j)
        return None

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bracket of two coordinate vectors."""
        out = [ZERO] * self.dim
        sparse = self._sparse
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = sparse[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in row[j]:
                    out[k] += c * m
        return tuple(out)

    def _bracket_int(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """Integer bracket against the scaled table (result scaled by the
        table denominator, which is irrelevant for span computations)."""
        table, _ = self._sparse_int
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in row[j]:
                    out[k] += c * m
        return out

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ad(x): y -> [x, y] in basis coordinates."""
        cols = []
        for j in range(self.dim):
            col = [ZERO] * self.dim
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for k, m in self._sparse[i][j]:
                    col[k] += xi * m
            cols.append(col)
        return Matrix(cols).transpose()

    @cached_property
    def ad_basis(self) -> tuple[Matrix, ...]:
        basis = []
        for i in range(self.dim):
            coords = [ZERO] * self.dim
            coords[i] = ONE
            basis.append(self.ad(coords))
        return tuple(basis)

    def verify_jacobi(self) -> bool:
        """[ [x,y], z ] cycles sum to zero, checked as ad([x,y]) = [ad x, ad y]
        on all basis pairs (equivalent, and quadratic rather than cubic)."""
        return self.bracket_law_failure(self.ad_basis) is None

    @cached_property
    def realization_coordinates(self) -> Callable[[Matrix], Optional[tuple[Fraction, ...]]]:
        """Map a matrix to its coordinates in the realization basis, or to None
        when it lies outside the realization's span."""
        return _coordinate_map(self.realization)

    @classmethod
    def from_matrix_basis(
        cls, mats: Sequence[Matrix], name: str = ""
    ) -> "LieAlgebra":
        """Build from a linearly independent family of matrices closed under
        commutators; raises if a commutator escapes the span."""
        mats = tuple(mats)
        if not mats:
            return cls(brackets=(), name=name, realization=())
        coords = _coordinate_map(mats)
        dim = len(mats)
        brackets = []
        for i in range(dim):
            row = []
            for j in range(dim):
                if j < i:
                    row.append(tuple(-x for x in brackets[j][i]))
                    continue
                if j == i:
                    row.append((ZERO,) * dim)
                    continue
                comm = coords(mats[i].commutator(mats[j]))
                if comm is None:
                    raise ValueError("matrix family is not commutator-closed")
                row.append(comm)
            brackets.append(tuple(row))
        return cls(brackets=tuple(brackets), name=name, realization=mats)

    @classmethod
    def abelian(cls, dim: int, name: str = "abelian") -> "LieAlgebra":
        zero = (ZERO,) * dim
        return cls(
            brackets=tuple(tuple(zero for _ in range(dim)) for _ in range(dim)),
            name=name,
        )

    @classmethod
    def zero(cls) -> "LieAlgebra":
        return cls(brackets=(), name="0")

    @classmethod
    def direct_sum(cls, a: "LieAlgebra", b: "LieAlgebra", name: str = "") -> "LieAlgebra":
        dim = a.dim + b.dim
        zero = (ZERO,) * dim
        brackets = []
        for i in range(dim):
            row = []
            for j in range(dim):
                if i < a.dim and j < a.dim:
                    row.append(tuple(a.brackets[i][j]) + (ZERO,) * b.dim)
                elif i >= a.dim and j >= a.dim:
                    row.append((ZERO,) * a.dim + tuple(b.brackets[i - a.dim][j - a.dim]))
                else:
                    row.append(zero)
            brackets.append(tuple(row))
        return cls(brackets=tuple(brackets), name=name or f"{a.name}+{b.name}")


def _coordinate_map(mats: Sequence[Matrix]) -> Callable[[Matrix], Optional[tuple[Fraction, ...]]]:
    """Coordinates relative to a linearly independent matrix family (not to
    the canonical basis of its span); None for a matrix outside the span."""
    span = Subspace.from_vectors(mats[0].nrows * mats[0].ncols, [m.flatten() for m in mats])
    if span.dim != len(mats):
        raise ValueError("matrix basis is linearly dependent")
    change = Matrix([span.coordinates_of(m.flatten()) for m in mats]).transpose().inverse()

    def coords(m: Matrix) -> Optional[tuple[Fraction, ...]]:
        canon = span.coordinates_of(m.flatten())
        return None if canon is None else change.apply(canon)

    return coords


@dataclass(frozen=True)
class KillingForm:
    gram: Matrix
    signature: tuple[int, int, int]

    @property
    def nondegenerate(self) -> bool:
        return self.signature[2] == 0


def killing_form(g: LieAlgebra) -> KillingForm:
    """Exact Gram matrix of (x, y) -> trace(ad x ad y) and its signature,
    computed once per algebra."""
    if g._killing is not None:
        return g._killing
    ads = g.ad_basis
    sparse = [
        [(k, m, v) for k, row in enumerate(mat.rows) for m, v in enumerate(row) if v]
        for mat in ads
    ]
    n = g.dim
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = sum((v * ads[j].rows[m][k] for k, m, v in sparse[i]), ZERO)
            rows[i][j] = rows[j][i] = t
    gram = Matrix(rows)
    g._killing = KillingForm(gram=gram, signature=signature(gram))
    return g._killing


def is_semisimple(g: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return killing_form(g).nondegenerate


def derivation_algebra(alg: StructureConstantAlgebra) -> LieAlgebra:
    """All D with D(xy) = D(x)y + x D(y), as a Lie algebra under commutators.

    The constraint is linear in the dim^2 unknowns D[l][k]; the kernel of the
    dim^3 x dim^2 system is the derivation space.
    """
    n = alg.dim
    mul = alg.mul
    rows = []
    for i in range(n):
        for j in range(n):
            prod = mul[i][j]
            for l in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    if prod[k]:
                        row[l * n + k] += prod[k]
                for m in range(n):
                    if mul[m][j][l]:
                        row[m * n + i] -= mul[m][j][l]
                    if mul[i][m][l]:
                        row[m * n + j] -= mul[i][m][l]
                rows.append(row)
    kern = kernel_basis(Matrix(rows))
    mats = [Matrix.from_flat(v, n, n) for v in kern.basis]
    return LieAlgebra.from_matrix_basis(mats, name=f"der(dim {n})")


def so_of_form(b: Matrix) -> LieAlgebra:
    """so(b) = {X : X^T b + b X = 0} for a symmetric invertible b."""
    n = b.nrows
    if n != b.ncols or not b.is_symmetric():
        raise DegenerateFormError("so_of_form requires a symmetric matrix")
    if b.rank() != n:
        raise DegenerateFormError("so_of_form requires an invertible form")
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [ZERO] * (n * n)
            for k in range(n):
                if b.rows[k][j]:
                    row[k * n + i] += b.rows[k][j]
                if b.rows[i][k]:
                    row[k * n + j] += b.rows[i][k]
            rows.append(row)
    kern = kernel_basis(Matrix(rows))
    mats = [Matrix.from_flat(v, n, n) for v in kern.basis]
    alg = LieAlgebra.from_matrix_basis(mats, name=f"so({n})")
    assert alg.dim == n * (n - 1) // 2
    return alg


def subalgebra_closure(g: LieAlgebra, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the seed: iterate
    S <- S + [S, S] until the dimension stabilizes."""
    if seed.ambient_dim != g.dim:
        raise ValueError("seed lives in the wrong ambient space")
    basis = [_strip_row(clear_denominators(v)[0]) for v in seed.basis]
    dim = len(basis)
    while True:
        if dim == g.dim:
            break
        new_rows = list(basis)
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                v = g._bracket_int(basis[a], basis[b])
                if any(v):
                    new_rows.append(v)
        reduced, pivots = _int_rref(new_rows)
        if len(pivots) == dim:
            break
        dim = len(pivots)
        basis = [_strip_row(clear_denominators(r)[0]) for r in reduced[:dim]]
    return Subspace.from_vectors(g.dim, [[Fraction(x) for x in row] for row in basis])


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x in g : [x, v] = 0 for all v in s}."""
    if s.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    if s.dim == 0:
        return Subspace.full(g.dim)
    rows = []
    for v in s.basis:
        rows.extend(g.ad(v).rows)  # [x, v] = -ad(v) x; same kernel
    return kernel_basis(Matrix(rows))


def transporter_into(g: LieAlgebra, target: Subspace) -> Subspace:
    """{h in g : [h, g] ⊆ target}, by exact kernel computation."""
    if target.ambient_dim != g.dim:
        raise ValueError("target lives in the wrong ambient space")
    ann = kernel_basis(Matrix(target.basis)) if target.dim else Subspace.full(g.dim)
    if ann.dim == 0:
        return Subspace.full(g.dim)
    proj = Matrix(ann.basis)
    rows = []
    for j in range(g.dim):
        # column map h -> [h, e_j]; entry (k, i) is c[i][j][k]
        mj = Matrix(
            [[g.brackets[i][j][k] for i in range(g.dim)] for k in range(g.dim)]
        )
        rows.extend((proj * mj).rows)
    return kernel_basis(Matrix(rows))
