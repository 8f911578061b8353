"""Lie algebras by structure constants and by matrix realization.

A ``LieAlgebra`` takes and holds its bracket [e_i, e_j] = sum_k c_ijk e_k
as one integer tensor ``C`` (dim x dim x dim, C[i, j, k] = den * c_ijk) and
one denominator ``den``, as a ``reps.LieModule`` takes its stack; rationals
and floats are rejected.  ``C`` is held read-only beside its largest
magnitude ``cmax`` (``linalg.held``), which each product formed from it
reads; ``linalg`` alone turns a bound into a dtype, so a sum of up to four
held arrays or ``int_einsum`` results fits.
Brackets (``bracket_table``), the Killing form (Cartan's criterion),
closures, centralizers and transporters are contractions of ``C``, and the
integer ad stack den * ad(e_i) is ``C[i]^T``.  A matrix realization is the
cleared canonical basis of a span of matrices, held the same way, as one
integer stack with one denominator.  The constructor proves Jacobi by
``LieAlgebra.bracket_law_failure`` on the ad stack, which also checks a public
``reps.LieModule``'s action; ``LieAlgebra.from_matrix_basis``, the only source
of a realization, proves its bracket on the first read, by an exact coordinate
read that shows it faithful and lawful, hence Jacobi.  Lemma: Der(A) and so(G),
the spans its callers pass, are closed under commutators, so that proof cannot
fail there.  Also derivation algebras of nonassociative algebras and so(p,q)
of a symmetric form.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DegenerateFormError
from .linalg import (
    Bounded,
    NormForm,
    Subspace,
    held,
    int_einsum,
    is_int_array,
    kernel_basis,
    lowest_terms,
)
from .octonion import StructureConstantAlgebra


class LieAlgebra:
    """A Lie algebra given by its structure constants, optionally carrying a
    faithful matrix realization of the basis.

    ``C`` is a dim x dim x dim numpy integer array and ``den`` a positive
    Python int (not a bool, numpy integer, float or Fraction), for
    c_ijk = C[i, j, k] / den, held in lowest terms with ``C`` read-only
    beside its largest magnitude ``cmax``.  Every instance
    satisfies antisymmetry and the Jacobi identity: this constructor checks
    both, raising ValueError on a failure (and on a mis-shaped tensor or
    another ``den``, TypeError on a non-integer tensor), and
    ``from_matrix_basis``, the only source of a ``realization``, proves them
    on the first read of its bracket.
    A ``realization`` is a pair (a, d) of an integer stack a of shape
    (dim, n, n), read-only, and a positive d, for the matrices a[i] / d: the
    cleared canonical basis of the span it was built from.
    """

    def __init__(self, C: np.ndarray, den: int = 1):
        if not is_int_array(C):
            raise TypeError("the bracket tensor is an integer array")
        if C.shape != (len(C),) * 3 or type(den) is not int or den < 1:
            raise ValueError("the bracket tensor must be dim x dim x dim over a positive denominator")
        self._hold(C, den, None)
        asym = np.argwhere(np.any(self.C + self.C.transpose(1, 0, 2) != 0, axis=2))
        if len(asym):
            raise ValueError("brackets not antisymmetric at ({},{})".format(*asym[0]))
        if not self.verify_jacobi():
            raise ValueError("Jacobi identity fails")

    def _hold(self, C: np.ndarray, den: int, realization: Optional[tuple[np.ndarray, int]]):
        self.dim, self.realization = len(C), realization
        self._killing = self._adjoint = None  # built once per algebra, by killing_form and reps.adjoint_module
        C, self.den = lowest_terms(C, den)
        self.C, self.cmax = held(C)

    # -- bracket machinery ------------------------------------------------

    def bracket_law_failure(self, a: np.ndarray, scale: int, amax: int) -> Optional[tuple[int, int]]:
        """First basis pair (i, j), i < j, with [m_i, m_j] != sum_k c_ijk m_k
        for the matrices m_i = a[i] / scale of an integer stack a bounded by
        amax, or None if the law holds exactly on every pair.

        The one check of the bracket law: for the action of a module and
        (through ``verify_jacobi``) for the ad stack.  It compares
        den [a_i, a_j] = scale sum_k C_ijk a_k on all pairs at once, from two
        ``int_einsum`` contractions: the dim^2 n^2 arrays are small where it
        runs (the checking constructors), and a difference of two products
        fits the dtype that ``linalg`` gives each.
        """
        a = Bounded(a, amax)
        prod = int_einsum(",ikm,jml->ijkl", self.den, a, a)
        rhs = int_einsum(",ijk,kmn->ijmn", scale, Bounded(self.C, self.cmax), a)
        bad = np.argwhere(np.triu(np.any(prod - prod.transpose(1, 0, 2, 3) != rhs, axis=(2, 3)), 1))
        return tuple(map(int, bad[0])) if len(bad) else None

    def bracket_table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """den * [x, y] for every row x of xs and y of ys, 2-D integer arrays
        of coordinates, as an integer array of shape (len(xs), len(ys), dim)."""
        return int_einsum("ai,bik->abk", xs, int_einsum("bj,ijk->bik", ys, Bounded(self.C, self.cmax)))

    def verify_jacobi(self) -> bool:
        """[ [x,y], z ] cycles sum to zero, checked as ad([x,y]) = [ad x, ad y]
        on all basis pairs (equivalent, and quadratic rather than cubic), on
        the integer ad stack den * ad(e_i) = C[i]^T."""
        return self.bracket_law_failure(self.C.transpose(0, 2, 1), self.den, self.cmax) is None

    def realization_coordinates(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """Integer x with rows = x times the row-major flattened matrices a / d
        of the realization (a, d), or None: the span's ``coordinates``."""
        if self.realization is None:
            raise ValueError("algebra carries no matrix realization")
        return self._span.coordinates(rows)

    @classmethod
    def from_matrix_basis(cls, span: Subspace) -> "LieAlgebra":
        """The algebra of a span of row-major flattened n x n matrices closed
        under commutators, realized on its canonical basis b / s (``basis``
        over ``den``).  A non-``Subspace`` raises TypeError, a non-square
        ambient dimension ValueError.  ``C``, ``den``, ``cmax`` and
        ``realization`` are built on the first read of any: all [b_i, b_j]
        from one batched integer product, whose ``Subspace.coordinates`` x are
        the structure constants over s^2; an unclosed span raises ValueError
        there."""
        if not isinstance(span, Subspace):
            raise TypeError("a realization is a span of flattened matrices")
        if math.isqrt(span.ambient_dim) ** 2 != span.ambient_dim:
            raise ValueError("flattened n x n matrices span a space of dimension n^2")
        alg = object.__new__(cls)
        alg.dim, alg._span, alg._killing, alg._adjoint = span.dim, span, None, None
        return alg

    def __getattr__(self, name: str):
        if name not in ("C", "den", "cmax", "realization"):
            raise AttributeError(name)
        span, d, n, s = self._span, self.dim, math.isqrt(self._span.ambient_dim), self._span.den
        a, amax = held(span.basis.reshape(d, n, n))
        prod = int_einsum("ikm,jml->ijkl", Bounded(a, amax), Bounded(a, amax))
        x = span.coordinates((prod - prod.transpose(1, 0, 2, 3)).reshape(d * d, n * n))
        if x is None:
            raise ValueError("matrix family is not closed under commutators")
        # Lemma: coordinates' exact check proved [b_i, b_j] = sum_k x_ijk b_k / s on a basis: the
        # realization is faithful and lawful, so antisymmetry and Jacobi hold for C because they hold in gl(n).
        self._hold(x.reshape(d, d, d), s * s, (a, s))
        return getattr(self, name)


def killing_form(g: LieAlgebra) -> NormForm:
    """The form (x, y) -> trace(ad x ad y), built once per algebra: Gram
    matrix K = einsum('imk,jkm->ij', C, C) / den^2."""
    if g._killing is None:
        g._killing = NormForm(int_einsum("imk,jkm->ij", Bounded(g.C, g.cmax), Bounded(g.C, g.cmax)), g.den**2)
    return g._killing


def is_semisimple(g: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return killing_form(g).nondegenerate


def derivation_algebra(alg: StructureConstantAlgebra) -> LieAlgebra:
    """All D with D(xy) = D(x)y + x D(y), as a Lie algebra under commutators.

    The constraint is linear in the dim^2 unknowns D[l][k]; the kernel of the
    dim^3 x dim^2 system is the derivation space.  Each row is linear in the
    structure constants, so the cleared tensor ``alg.M`` has the same kernel.
    """
    n, r, c = alg.dim, np.arange(alg.dim), alg.M
    # row (i, j, l), unknown D[a][b]: the e_l coefficient of D(e_i e_j) -
    # D(e_i) e_j - e_i D(e_j), where D(e_b) = sum_a D[a][b] e_a; its three
    # terms sit where a = l, b = i and b = j
    system = np.zeros((n,) * 5, dtype=c.dtype)
    system[:, :, r, r, :] = c[:, :, None, :]
    system[r, :, :, :, r] -= c.transpose(1, 2, 0)
    system[:, r, :, :, r] -= c.transpose(0, 2, 1)
    return LieAlgebra.from_matrix_basis(kernel_basis(system.reshape(n**3, n * n)))


def so_of_form(form: NormForm) -> LieAlgebra:
    """so(form) = {X : X^T G + G X = 0} for a nondegenerate form with Gram
    matrix G / den, read off its integer ``G``: so(G) is that of every
    nonzero multiple of G, so ``den`` plays no part."""
    if not form.nondegenerate:
        raise DegenerateFormError("so_of_form requires a nondegenerate form")
    n = len(form.G)
    eye = np.eye(n, dtype=form.G.dtype)
    # row (i, j) with i <= j, unknown X[k][m]: entry (i, j) of X^T G + G X
    system = np.einsum("mi,kj->ijkm", eye, form.G) + np.einsum("mj,ik->ijkm", eye, form.G)
    alg = LieAlgebra.from_matrix_basis(kernel_basis(system[np.triu_indices(n)].reshape(-1, n * n)))
    if alg.dim != n * (n - 1) // 2:
        raise AssertionError("so of a nondegenerate form has dimension n(n-1)/2")
    return alg


def subalgebra_closure(g: LieAlgebra, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the seed: iterate
    S <- S + [S, S] until the dimension stabilizes, bracketing each unordered
    pair of basis rows once (den [x_i, x_j] for i < j)."""
    if seed.ambient_dim != g.dim:
        raise ValueError("seed lives in the wrong ambient space")
    span = seed
    while span.dim < g.dim:
        basis = span.basis
        i, j = np.triu_indices(len(basis), 1)
        brackets = int_einsum("pi,pik->pk", basis[i], int_einsum("bj,ijk->bik", basis, Bounded(g.C, g.cmax))[j])
        grown = Subspace.from_vectors(g.dim, np.concatenate([basis, brackets]))
        if grown.dim == span.dim:
            break
        span = grown
    return span


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x in g : [x, v] = 0 for all v in s}."""
    if s.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    if s.dim == 0:
        return Subspace.full(g.dim)
    # row (v, k), unknown x_i: the e_k coefficient of [x, v]
    system = int_einsum("vj,ijk->vki", s.basis, Bounded(g.C, g.cmax))
    return kernel_basis(system.reshape(-1, g.dim))


def transporter_into(g: LieAlgebra, target: Subspace) -> Subspace:
    """{h in g : [h, g] ⊆ target}, by exact kernel computation."""
    if target.ambient_dim != g.dim:
        raise ValueError("target lives in the wrong ambient space")
    if target.dim:
        ann = kernel_basis(target.basis)
    else:
        ann = Subspace.full(g.dim)
    if ann.dim == 0:
        return Subspace.full(g.dim)
    # row (j, u), unknown h_i: the pairing of [h, e_j] with annihilator row u
    system = int_einsum("uk,ijk->jui", ann.basis, Bounded(g.C, g.cmax))
    return kernel_basis(system.reshape(-1, g.dim))
