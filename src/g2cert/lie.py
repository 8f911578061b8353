"""Lie algebras by structure constants and by matrix realization.

A ``LieAlgebra`` takes and holds its bracket [e_i, e_j] = sum_k c_ijk e_k
as one integer tensor ``C`` (dim x dim x dim, C[i, j, k] = den * c_ijk) and
one denominator ``den``, as a ``reps.LieModule`` takes its stack; rationals
and floats are rejected.  ``C`` is held read-only beside its largest
magnitude ``cmax`` (``linalg.held``), and each product formed from it reads
``cmax`` to bound the result, which ``linalg.int_dtype`` turns into a dtype.
Brackets (``bracket_table``), the Killing form (Cartan's criterion),
closures, centralizers and transporters are contractions of ``C``, and the
integer ad stack den * ad(e_i) is ``C[i]^T``.  A matrix realization is held
the same way, as one integer stack with one denominator.  Each law is proved
once: the constructor checks Jacobi by ``LieAlgebra.bracket_law_failure`` on
the ad stack, which also checks a public ``reps.LieModule``'s action, and a
realization enters only through ``LieAlgebra.from_matrix_basis``, whose exact
solve proves it faithful and lawful, hence Jacobi.  Also derivation algebras
of nonassociative algebras and so(p,q) of a symmetric form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DegenerateFormError
from .linalg import (
    Bounded,
    NormForm,
    Subspace,
    coordinate_map,
    held,
    int_dtype,
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
    integer, for c_ijk = C[i, j, k] / den, held in lowest terms with ``C``
    read-only beside its largest magnitude ``cmax``.  Every instance
    satisfies antisymmetry and the Jacobi identity: this constructor checks
    both, raising ValueError on a failure (and on a mis-shaped tensor or a
    ``den`` below 1, TypeError on a non-integer tensor), and
    ``from_matrix_basis``, the only source of a ``realization``, proves them.
    A ``realization`` is a pair (a, d) of an integer stack a of shape
    (dim, n, n), read-only, and a positive d, for the matrices a[i] / d.
    """

    def __init__(self, C: np.ndarray, den: int = 1):
        if not is_int_array(C):
            raise TypeError("the bracket tensor is an integer array")
        if C.shape != (len(C),) * 3 or den < 1:
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
        (through ``verify_jacobi``) for the ad stack.  It runs
        den [a_i, a_j] = scale sum_k C_ijk a_k for all j > i, one i at a time
        so that no dim^2 n^2 array is held; int64 carries both sides while
        every product provably fits, Python ints beyond that.
        """
        n, cmax = a.shape[1], self.cmax
        peak = max(self.den, scale, cmax, 2 * n * amax * amax * self.den, self.dim * cmax * amax * scale)
        a, c = a.astype(int_dtype(peak), copy=False), self.C.astype(int_dtype(peak), copy=False)
        for i in range(self.dim - 1):
            lhs = self.den * (a[i] @ a[i + 1 :] - a[i + 1 :] @ a[i])
            rhs = scale * np.tensordot(c[i, i + 1 :], a, axes=(1, 0))
            bad = np.flatnonzero(np.any(lhs != rhs, axis=(1, 2)))
            if len(bad):
                return i, i + 1 + int(bad[0])
        return None

    def bracket_table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """den * [x, y] for every row x of xs and y of ys, 2-D integer arrays
        of coordinates, as an integer array of shape (len(xs), len(ys), dim)."""
        return int_einsum("ai,bik->abk", xs, int_einsum("bj,ijk->bik", ys, Bounded(self.C, self.cmax)))

    def verify_jacobi(self) -> bool:
        """[ [x,y], z ] cycles sum to zero, checked as ad([x,y]) = [ad x, ad y]
        on all basis pairs (equivalent, and quadratic rather than cubic), on
        the integer ad stack den * ad(e_i) = C[i]^T."""
        return self.bracket_law_failure(self.C.transpose(0, 2, 1), self.den, self.cmax) is None

    def realization_coordinates(self, rows: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
        """Map integer rows, each a row-major flattened matrix, to (x, e) with
        row = (x / e) times the flattened matrices a / d of the realization
        (a, d), or to None when a row lies outside their span; by the
        coordinate map against a that ``from_matrix_basis`` built."""
        solved = self._coords(rows)
        return None if solved is None else (int_einsum(",ij->ij", self.realization[1], solved[0]), solved[1])

    @classmethod
    def from_matrix_basis(cls, a: np.ndarray, den: int = 1) -> "LieAlgebra":
        """Build from, and realize on, a linearly independent family of n x n
        matrices a[i] / den closed under commutators, a an integer stack.

        All commutators come from one batched integer product, and their
        coordinates in the family are the structure constants: with
        [a_i, a_j] = sum_k (t_ijk / d) a_k, c_ijk = t_ijk / (d den).  A
        non-integer stack raises TypeError; a non-square stack, a ``den``
        below 1 and a dependent or unclosed family raise ValueError.
        """
        if not is_int_array(a):
            raise TypeError("a realization is an integer stack")
        if a.ndim != 3 or a.shape[1] != a.shape[2] or den < 1:
            raise ValueError("realization must be square matrices over a positive denominator")
        d, n = len(a), a.shape[1]
        a, amax = held(a)
        t, t_den, coords = np.zeros((0, 0, 0), dtype=np.int64), 1, coordinate_map(a.reshape(d, n * n))
        if d:
            prod = int_einsum("ikm,jml->ijkl", Bounded(a, amax), Bounded(a, amax))
            solved = coords((prod - prod.transpose(1, 0, 2, 3)).reshape(d * d, n * n))
            if solved is None:
                raise ValueError("matrix family is not closed under commutators")
            t, t_den = solved
        # Lemma: coordinate_map raised on a dependent family, and its exact membership check proved
        # [a_i, a_j] = sum_k (t_ijk / d) a_k: the realization is faithful and lawful, so antisymmetry
        # and Jacobi hold for C because they hold in gl(n).
        alg = object.__new__(cls)
        alg._hold(t.reshape(d, d, d), t_den * den, (a, den))
        alg._coords = coords
        return alg


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
    n, r = alg.dim, np.arange(alg.dim)
    c = alg.M.astype(int_dtype(3 * alg.mmax), copy=False)
    # row (i, j, l), unknown D[a][b]: the e_l coefficient of D(e_i e_j) -
    # D(e_i) e_j - e_i D(e_j), where D(e_b) = sum_a D[a][b] e_a; its three
    # terms sit where a = l, b = i and b = j
    system = np.zeros((n,) * 5, dtype=c.dtype)
    system[:, :, r, r, :] = c[:, :, None, :]
    system[r, :, :, :, r] -= c.transpose(1, 2, 0)
    system[:, r, :, :, r] -= c.transpose(0, 2, 1)
    a, s = kernel_basis(system.reshape(n**3, n * n)).cleared_basis()
    return LieAlgebra.from_matrix_basis(a.reshape(-1, n, n), s)


def so_of_form(form: NormForm) -> LieAlgebra:
    """so(form) = {X : X^T G + G X = 0} for a nondegenerate form with Gram
    matrix G / den, read off its integer ``G`` and bound ``gmax``: so(G) is
    that of every nonzero multiple of G, so ``den`` plays no part."""
    if not form.nondegenerate:
        raise DegenerateFormError("so_of_form requires a nondegenerate form")
    n = len(form.G)
    gram = form.G.astype(int_dtype(2 * form.gmax), copy=False)
    eye = np.eye(n, dtype=gram.dtype)
    # row (i, j) with i <= j, unknown X[k][m]: entry (i, j) of X^T G + G X
    system = np.einsum("mi,kj->ijkm", eye, gram) + np.einsum("mj,ik->ijkm", eye, gram)
    a, s = kernel_basis(system[np.triu_indices(n)].reshape(-1, n * n)).cleared_basis()
    alg = LieAlgebra.from_matrix_basis(a.reshape(-1, n, n), s)
    assert alg.dim == n * (n - 1) // 2
    return alg


def subalgebra_closure(g: LieAlgebra, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the seed: iterate
    S <- S + [S, S] until the dimension stabilizes."""
    if seed.ambient_dim != g.dim:
        raise ValueError("seed lives in the wrong ambient space")
    span = seed
    while span.dim < g.dim:
        basis = span.int_basis()
        brackets = g.bracket_table(basis, basis)[np.triu_indices(len(basis), 1)]
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
    system = int_einsum("vj,ijk->vki", s.int_basis(), Bounded(g.C, g.cmax))
    return kernel_basis(system.reshape(-1, g.dim))


def transporter_into(g: LieAlgebra, target: Subspace) -> Subspace:
    """{h in g : [h, g] ⊆ target}, by exact kernel computation."""
    if target.ambient_dim != g.dim:
        raise ValueError("target lives in the wrong ambient space")
    if target.dim:
        ann = kernel_basis(target.int_basis())
    else:
        ann = Subspace.full(g.dim)
    if ann.dim == 0:
        return Subspace.full(g.dim)
    # row (j, u), unknown h_i: the pairing of [h, e_j] with annihilator row u
    system = int_einsum("uk,ijk->jui", ann.int_basis(), Bounded(g.C, g.cmax))
    return kernel_basis(system.reshape(-1, g.dim))
