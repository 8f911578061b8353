"""Lie algebras by structure constants and by matrix realization.

A ``LieAlgebra`` takes its bracket [e_i, e_j] = sum_k c_ijk e_k as one
integer tensor ``C`` (C[i, j, k] = den * c_ijk) over one ``den``, as a
``reps.LieModule`` takes its stack, and holds it as one ``linalg.Exact``
value ``bracket``; rationals and floats are rejected.  Brackets
(``bracket_table``), the Killing form (Cartan's criterion), centralizers and
transporters are contractions of it, a subalgebra closure is
``Subspace.closure`` under ``bracket_table``, and the ad stack is its
transpose C[i]^T / den.  A matrix realization, the canonical basis of a span
of matrices, is one value too.  The constructor proves Jacobi by
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
from .linalg import Exact, NormForm, Subspace, int_einsum, is_int_array, kernel_basis
from .octonion import StructureConstantAlgebra


class LieAlgebra:
    """A Lie algebra given by its structure constants, optionally carrying a
    faithful matrix realization of the basis.

    ``C`` is a dim x dim x dim numpy integer array and ``den`` a positive
    Python int (not a bool, numpy integer, float or Fraction), for
    c_ijk = C[i, j, k] / den, held as the value ``bracket`` in lowest terms.
    Every instance satisfies antisymmetry and the Jacobi identity: this
    constructor checks both, raising ValueError on a failure (and on a
    mis-shaped tensor or another ``den``, TypeError on a non-integer tensor),
    and ``from_matrix_basis``, the only source of a ``realization`` (one value
    of shape (dim, n, n), the canonical basis of its span), proves them on
    the first read of its bracket.
    """

    C = property(lambda self: self.bracket.ints)
    den = property(lambda self: self.bracket.den)

    def __init__(self, C: np.ndarray, den: int = 1):
        if not is_int_array(C):
            raise TypeError("the bracket tensor is an integer array")
        if C.shape != (len(C),) * 3 or type(den) is not int or den < 1:
            raise ValueError("the bracket tensor must be dim x dim x dim over a positive denominator")
        self.dim, self.bracket, self.realization = len(C), Exact.held(C, den, lowest=True), None
        self._killing = self._adjoint = None  # built once per algebra, by killing_form and reps.adjoint_module
        asym = np.argwhere(np.any(self.C + self.C.transpose(1, 0, 2) != 0, axis=2))
        if len(asym):
            raise ValueError("brackets not antisymmetric at ({},{})".format(*asym[0]))
        # Jacobi as ad([x,y]) = [ad x, ad y] on all basis pairs (equivalent, and
        # quadratic rather than cubic), on the integer ad stack den * ad(e_i) = C[i]^T
        if self.bracket_law_failure(self.bracket.transpose(0, 2, 1)) is not None:
            raise ValueError("Jacobi identity fails")

    # -- bracket machinery ------------------------------------------------

    def bracket_law_failure(self, a: Exact) -> Optional[tuple[int, int]]:
        """First basis pair (i, j), i < j, with [m_i, m_j] != sum_k c_ijk m_k
        for the matrices m_i of a stack a (one value), or None if the law
        holds exactly on every pair: the one check of the bracket law, for a
        module's action and (in the constructor, as Jacobi) the ad stack, on
        all pairs at once (the dim^2 n^2 arrays are small where it runs)."""
        rhs = int_einsum("ijk,kmn->ijmn", self.bracket, a)
        bad = np.argwhere(np.triu(np.any(_commutators(a).differs(rhs), axis=(2, 3)), 1))
        return tuple(map(int, bad[0])) if len(bad) else None

    def bracket_table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """den * [x, y] for every row x of xs and y of ys, 2-D integer arrays
        of coordinates, as an integer array of shape (len(xs), len(ys), dim)."""
        return int_einsum("ai,bik->abk", xs, int_einsum("bj,ijk->bik", ys, self.bracket)).ints

    def realization_coordinates(self, rows: "Exact | np.ndarray") -> Optional[Exact]:
        """The value x with rows = x times the row-major flattened matrices
        of the ``realization``, or None: the span's ``coordinates``."""
        if self.realization is None:
            raise ValueError("algebra carries no matrix realization")
        return self._span.coordinates(rows)

    @classmethod
    def from_matrix_basis(cls, span: Subspace) -> "LieAlgebra":
        """The algebra of a span of row-major flattened n x n matrices closed
        under commutators, realized on its canonical basis b / s (``basis``
        over ``den``).  A non-``Subspace`` raises TypeError, a non-square
        ambient dimension ValueError.  ``bracket`` and ``realization`` are
        built on the first read of either: all [b_i, b_j] from one batched
        product, whose ``Subspace.coordinates`` are the structure constants;
        an unclosed span raises ValueError there."""
        if not isinstance(span, Subspace):
            raise TypeError("a realization is a span of flattened matrices")
        if math.isqrt(span.ambient_dim) ** 2 != span.ambient_dim:
            raise ValueError("flattened n x n matrices span a space of dimension n^2")
        alg = object.__new__(cls)
        alg.dim, alg._span, alg._killing, alg._adjoint = span.dim, span, None, None
        return alg

    def __getattr__(self, name: str):
        if name not in ("bracket", "realization"):
            raise AttributeError(name)
        span, d, n = self._span, self.dim, math.isqrt(self._span.ambient_dim)
        a = Exact.held(*span.canonical.reshape(d, n, n))
        x = span.coordinates(_commutators(a).reshape(d * d, n * n))
        if x is None:
            raise ValueError("matrix family is not closed under commutators")
        # Lemma: coordinates' exact check proved [b_i, b_j] = sum_k x_ijk b_k on a basis: the realization
        # is faithful and lawful, so antisymmetry and Jacobi hold for x because they hold in gl(n).
        self.bracket, self.realization = Exact.held(*x.reshape(d, d, d), lowest=True), a
        return getattr(self, name)


def _commutators(a: Exact) -> Exact:
    """[a_i, a_j] for every pair of matrices of the stack a, as one value
    indexed (i, j, row, column); a difference of two products fits the dtype
    that ``int_einsum`` gives each."""
    prod = int_einsum("ikm,jml->ijkl", a, a)
    return Exact(prod.ints - prod.ints.transpose(1, 0, 2, 3), prod.den)


def killing_form(g: LieAlgebra) -> NormForm:
    """The form (x, y) -> trace(ad x ad y), built once per algebra: Gram
    matrix einsum('imk,jkm->ij', c, c) of the bracket c."""
    if g._killing is None:
        g._killing = NormForm(*int_einsum("imk,jkm->ij", g.bracket, g.bracket))
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
    """Smallest bracket-closed subspace containing the seed: its
    ``Subspace.closure`` under den [x_i, x_j] for each unordered pair i < j of
    basis rows."""
    if seed.ambient_dim != g.dim:
        raise ValueError("seed lives in the wrong ambient space")
    return seed.closure(lambda b: g.bracket_table(b, b)[np.triu_indices(len(b), 1)])


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x in g : [x, v] = 0 for all v in s}."""
    if s.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    # row (v, k), unknown x_i: the e_k coefficient of [x, v]
    system = int_einsum("vj,ijk->vki", s.canonical, g.bracket).ints
    return kernel_basis(system.reshape(-1, g.dim))


def transporter_into(g: LieAlgebra, target: Subspace) -> Subspace:
    """{h in g : [h, g] ⊆ target}, by exact kernel computation."""
    if target.ambient_dim != g.dim:
        raise ValueError("target lives in the wrong ambient space")
    ann = kernel_basis(target.basis)
    # row (j, u), unknown h_i: the pairing of [h, e_j] with annihilator row u
    system = int_einsum("uk,ijk->jui", ann.canonical, g.bracket).ints
    return kernel_basis(system.reshape(-1, g.dim))
