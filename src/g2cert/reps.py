"""Modules over a Lie algebra: hom spaces, commutants, invariant bilinear
forms, Killing-orthogonal complements, generated submodules, irreducibility
certificates, wedge squares, and module isomorphism.

A ``LieModule`` holds its action once, as the integer stack ``A`` (algebra dim
x n x n, A[i] = den * rho(e_i)), read-only beside its largest magnitude
``amax``, and its one denominator ``den``, the way a ``LieAlgebra`` holds
``C``.  Every exact check and builder here is a contraction of such stacks:
the homomorphism law, intertwiners, restriction to an invariant subspace,
the images that ``Subspace.closure`` grows a generated submodule by, and the
wedge square.  Every ``LieModule`` satisfies its
homomorphism law: the public constructor checks it, and each builder here
makes its module through ``LieModule._raw`` by a lemma, stated at the call,
from a fact proved where it was established.  Hom spaces and invariant forms
(Hom(V, V*)) are solved on a spin basis of the source, the standard-basis
method of Parker's Meat-Axe (1984), grown by ``linalg.independent_rows``: T is
fixed by its values on the seed vectors, so each system has dim W unknowns per
seed instead of dim V * dim W.  Generator 0, then the rest stacked, is solved
on the survivors K as X = M K^T: g's rows are c_g X - d b_g X and T = X B^-1,
ncols * nrows * h numbers each, not m * ncols * nrows * seeds * nrows.
Intertwiners are integer matrices with one denominator, and invariant forms
are ``linalg.NormForm`` Gram matrices.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateFormError, NotSemisimpleError, PreconditionError
from .lie import LieAlgebra, killing_form, is_semisimple
from .linalg import (
    Bounded,
    NormForm,
    Subspace,
    held,
    int_einsum,
    independent_rows,
    int_inverse,
    is_int_array,
    kernel_basis,
    lowest_terms,
    rank,
    ranks_mod_p,
)


class LieModule:
    """A module over a Lie algebra: rho(e_i) = A[i] / den.

    ``A`` is an integer array of shape (algebra dim, n, n), held read-only
    beside its largest magnitude ``amax`` (``linalg.held``), and ``den`` a
    positive int (not a float, bool or numpy integer); n is read off the
    stack, so a module over the zero algebra is a (0, n, n) stack.  The homomorphism law
    rho([e_i,e_j]) = [rho(e_i), rho(e_j)] holds for every instance: this
    constructor verifies it exactly on all basis pairs, and the builders
    that use ``_raw`` prove it by the lemma stated at each call.
    """

    def __init__(self, algebra: LieAlgebra, A: np.ndarray, den: int = 1):
        if not is_int_array(A):
            raise TypeError("a module action is an integer stack")
        if A.ndim != 3 or A.shape[0] != algebra.dim or A.shape[1] != A.shape[2] or type(den) is not int or den < 1:
            raise ValueError("one square action matrix per algebra basis element, over a positive int denominator")
        self.algebra, (self.A, self.amax), self.den, self.dim, self._spins = algebra, held(A), den, A.shape[1], {}
        bad = algebra.bracket_law_failure(self.A, den, self.amax)
        if bad is not None:
            raise ValueError("homomorphism law fails at basis pair ({},{})".format(*bad))

    @classmethod
    def _raw(cls, algebra: LieAlgebra, A: np.ndarray, den: int) -> "LieModule":
        """A module whose law the caller has proved; A is held as is, read-only, where it has the dtype of held."""
        mod = object.__new__(cls)
        mod.algebra, mod.den, mod.dim, mod._spins = algebra, den, A.shape[1], {}
        mod.A, mod.amax = held(A, copy=False)
        return mod


def adjoint_module(g: LieAlgebra) -> LieModule:
    """The adjoint module, den * ad(e_i) = C[i]^T, built once per algebra."""
    if g._adjoint is None:
        # Lemma: ad is a homomorphism iff the Jacobi identity holds, and every LieAlgebra satisfies it
        g._adjoint = LieModule._raw(g, g.C.transpose(0, 2, 1), g.den)
    return g._adjoint


def natural_module(g: LieAlgebra) -> LieModule:
    """The module of g's realization, whose law ``LieAlgebra.from_matrix_basis`` proved."""
    if g.realization is None:
        raise ValueError("algebra carries no matrix realization")
    return LieModule._raw(g, *g.realization)


def restriction_module(v: LieModule, sub: Subspace) -> LieModule:
    """The action restricted to an invariant subspace, in that subspace's
    canonical basis: r[i] = s * (A[i] restricted) over v's den times s, s the
    subspace's ``den``.  r[i, k, j] is the coordinate x_k of the image A[i] b_j
    of ``basis`` row b_j (``Subspace.coordinates``, s * A[i] b_j = sum_k x_k b_k);
    an image without coordinates means the subspace is not invariant (ValueError)."""
    if sub.ambient_dim != v.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    m, d = len(v.A), sub.dim
    x = sub.coordinates(int_einsum("imn,jn->ijm", Bounded(v.A, v.amax), Bounded(sub.basis, sub.bound)).reshape(m * d, v.dim))
    if x is None:
        raise ValueError("subspace is not invariant under the action")
    # Lemma: the coordinates' exact check proved sub invariant, and an invariant subspace carries v's law
    return LieModule._raw(v.algebra, x.reshape(m, d, d).transpose(0, 2, 1), v.den * sub.den)


class Intertwiner:
    """A module homomorphism T / den, T an integer matrix of shape
    (target dim, source dim) and den a positive int, as a ``LieModule``'s;
    the intertwining identity is verified exactly by ``__post_init__``, which
    the constructor calls (and the benchmark's tracer wraps).

    T rho_v(e_i) = rho_w(e_i) T is checked for all i at once on integers, as
    den_w T A_v[i] = den_v A_w[i] T.
    """

    def __init__(self, source: LieModule, target: LieModule, T: np.ndarray, den: int = 1):
        self.source, self.target, self.T, self.den = source, target, T, den
        self.__post_init__()

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("intertwiner between modules over different algebras")
        v, w, t = self.source, self.target, self.T
        if t.shape != (w.dim, v.dim) or not is_int_array(t) or type(self.den) is not int or self.den < 1:
            raise ValueError("an intertwiner is an integer (target dim x source dim) matrix over a positive int denominator")
        va, wa = Bounded(v.A, v.amax), Bounded(w.A, w.amax)
        if not np.array_equal(int_einsum(",ab,ibc->iac", w.den, t, va), int_einsum("iab,bc,->iac", wa, t, v.den)):
            raise ValueError("matrix does not intertwine the actions")

    @cached_property
    def rank(self) -> int:
        """The rank of T over Q, taken on the first read."""
        return rank(self.T)

    @property
    def is_invertible(self) -> bool:
        return self.source.dim == self.target.dim and self.rank == self.source.dim


def _spin_basis(a: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """A basis b_k = W_k v_{s(k)} of Q^n, n >= 1, each W_k a word in the
    integer stack a (m x n x n), spun level by level from the seed e_0: under
    the basis so far go the images a[g] b_k of the last level's b_k, and the
    images ``independent_rows`` picks join (the basis rows come first and are
    independent, so all of them are picked).  When a level adds none, the
    first standard vector outside the span is the next seed.  Returns the
    basis rows and their origins (k, g, s(k)) for a[g] b_k and (-1, -1, s)
    for the seed numbered s."""
    (m, n, _), a = a.shape, held(a, copy=False)
    basis, origins, level, unit = np.eye(n, dtype=np.int64)[:1], [(-1, -1, 0)], [0], 1
    while len(basis) < n:
        if level:  # the images of the last level, in order of (k, g)
            rows = int_einsum("gij,kj->kgi", a, basis[level]).reshape(-1, n)
            sources = [(k, g, origins[k][2]) for k in level for g in range(m)]
        else:  # the standard vectors not yet tried
            rows = np.eye(n, dtype=np.int64)[unit:]
            sources = [(-1, -1, origins[-1][2] + 1)] * len(rows)
        new = [i - len(basis) for i in sorted(independent_rows(np.concatenate([basis, rows]))) if i >= len(basis)]
        if not level:
            new, unit = new[:1], unit + new[0] + 1
        level = list(range(len(basis), len(basis) + len(new)))
        basis, origins = np.concatenate([basis, rows[new]]), origins + [sources[i] for i in new]
    return basis, origins


def _spun(v: LieModule, scale: int) -> tuple:
    """For the stack a = scale * v.A: the origins of its spin basis B
    (``_spin_basis``), the ``Bounded`` stack c = x a B and (x, d), where
    x / d = B^-1; kept on v per scale."""
    if scale not in v._spins:
        a = int_einsum(",gij->gij", scale, Bounded(v.A, v.amax))
        basis, origins = _spin_basis(a)
        b_inv, d = int_inverse(cols := basis.T)
        v._spins[scale] = origins, held(int_einsum("ji,gik->gjk", b_inv, int_einsum("gij,jk->gik", a, cols)), copy=False), b_inv, d
    return v._spins[scale]


def _intertwiner_space(v: LieModule, scale: int, b: np.ndarray) -> Subspace:
    """All T (nrows x ncols, row-major) with T a[g] = b[g] T for the integer
    stacks a = scale * v.A (m x ncols x ncols) and b (m x nrows x nrows).

    On a spin basis B of columns b_k = W_k v_{s(k)}, with M_k the same word in
    the b[g], T b_k = M_k w_{s(k)} for w_s = T v_s, and T intertwines iff
    sum_j C_g[j,k] M_j w_{s(j)} = b[g] M_k w_{s(k)} for all g, k, with C_g =
    B^-1 a[g] B cleared as d C_g: nrows unknowns per seed, not nrows * ncols.
    Generator 0, then the rest stacked, cut the survivors K held as X = M K^T
    by c_g X - d b_g X (ncols * nrows * h numbers each), and T = X B^-1."""
    nrows, ncols = b.shape[1], v.dim
    if not nrows * ncols:
        return Subspace(0, ())
    (origins, c, b_inv, d), b = _spun(v, scale), held(b, copy=False)
    ms = np.zeros((ncols, nrows, origins[-1][2] + 1, nrows), dtype=object)
    for j, (k, g, s) in enumerate(origins):  # ms[j, :, s(j), :] = M_j
        ms[j, :, s] = int_einsum("ij,jk->ik", Bounded(b.array[g], b.bound), ms[k, :, s]) if k >= 0 else np.eye(nrows, dtype=int)
    x = ms.reshape(ncols, nrows, -1)
    for g in (slice(0, 1), slice(1, None)):
        reduced = int_einsum("gjk,jrh->gkrh", Bounded(c.array[g], c.bound), x) - int_einsum("grq,kqh,->gkrh", Bounded(b.array[g], b.bound), x, d)
        if reduced.any():  # an all-zero system keeps every solution
            x = int_einsum("jrh,uh->jru", x, kernel_basis(reduced.reshape(-1, x.shape[2])).basis)
    return Subspace.from_vectors(nrows * ncols, int_einsum("krh,ki->hri", x, b_inv).reshape(-1, nrows * ncols))


def hom_space(v: LieModule, w: LieModule) -> list[Intertwiner]:
    """Basis of Hom(v, w): all T with T rho_v(x) = rho_w(x) T, that is
    den_w T A_v[i] = den_v A_w[i] T."""
    if v.algebra is not w.algebra:
        raise ValueError("modules over different algebras")
    sub = _intertwiner_space(v, w.den, int_einsum(",gij->gij", v.den, Bounded(w.A, w.amax)))
    # each leading-1 basis element is its row of the basis over the subspace's one den
    return [Intertwiner(source=v, target=w, T=t.reshape(w.dim, v.dim), den=sub.den) for t in sub.basis]


class IrreducibilityCertificate(NamedTuple):
    irreducible: bool
    commutant_dim: int


def is_irreducible(v: LieModule) -> IrreducibilityCertificate:
    """Commutant-dimension test, valid over a semisimple algebra where
    complete reducibility holds: commutant dimension 1 forces a single
    irreducible summand."""
    if not is_semisimple(v.algebra):
        raise NotSemisimpleError(
            "irreducibility via commutant dimension requires a semisimple algebra"
        )
    dim = len(hom_space(v, v))
    return IrreducibilityCertificate(irreducible=dim == 1, commutant_dim=dim)


class InvariantForms(NamedTuple):
    """Solution space of B(rho(x)u, w) + B(u, rho(x)w) = 0 for all
    generators, as a subspace of row-major n x n matrices, with its
    symmetric part and, when that part is a line, a sign-normalized generator
    of it."""

    space: Subspace
    symmetric: Subspace
    generator: Optional[NormForm]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def signature(self) -> Optional[tuple[int, int, int]]:
        return None if self.generator is None else self.generator.signature


def invariant_bilinear_forms(v: LieModule) -> InvariantForms:
    """Invariant bilinear forms on a module; if the symmetric part is a single
    line, its generator is the leading-1 basis element, negated when needed
    so that the positive count does not exceed the negative one (the line
    itself is sign-free)."""
    n = v.dim
    space = _intertwiner_space(v, 1, -v.A.transpose(0, 2, 1))
    # B^T is invariant with B, and a symmetric S in the span is (S + S^T)/2
    ints = space.basis.reshape(-1, n, n)
    symmetric = Subspace.from_vectors(n * n, (ints + ints.transpose(0, 2, 1)).reshape(-1, n * n))
    generator = None
    if symmetric.dim == 1:
        g = symmetric.basis.reshape(n, n)
        generator = NormForm(g, symmetric.den)
        if generator.signature[0] > generator.signature[1]:
            generator = NormForm(-g, symmetric.den)
    return InvariantForms(space=space, symmetric=symmetric, generator=generator)


def killing_orthocomplement(g: LieAlgebra, sub: Subspace) -> Subspace:
    """Killing-orthogonal complement of a subspace on which the Killing form
    restricts nondegenerately; ad-invariance of the form makes the complement
    a module for the adjoint action of the subspace.  Scaling the basis rows
    of the subspace changes neither the rank nor the kernel used here."""
    if sub.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    b = sub.basis
    kf = killing_form(g)
    bk = int_einsum("ij,jk->ik", b, Bounded(kf.G, kf.gmax))
    if rank(int_einsum("ik,jk->ij", bk, b)) != sub.dim:
        raise DegenerateFormError("Killing form restricts degenerately")
    return kernel_basis(bk)


def submodule_generated(v: LieModule, vecs) -> list[Subspace]:
    """The smallest invariant subspace containing x, for each integer row x
    of vecs (as ``Subspace.from_vectors`` takes them).  Where [x; A_0 x; ...]
    has rank dim V mod ``linalg.PRIME``, hence over Q, that is V; any other x
    spans its line's ``Subspace.closure`` under the action, exactly."""
    if not isinstance(vecs, np.ndarray):
        vecs = np.array([tuple(x) for x in vecs] or np.zeros((0, v.dim), dtype=int), dtype=object)
    if vecs.shape[1:] != (v.dim,) or not is_int_array(vecs):
        raise ValueError("vectors must be a 2-D integer array of the module's width")
    one_step = int_einsum("imn,kn->kim", np.concatenate([np.eye(v.dim, dtype=int)[None], v.A]), vecs)
    full = Subspace.full(v.dim)
    return [full if r == v.dim else _generated_exactly(v, vec) for vec, r in zip(vecs, ranks_mod_p(one_step))]


def _generated_exactly(v: LieModule, vec: np.ndarray) -> Subspace:
    return Subspace.from_vectors(v.dim, vec[None]).closure(lambda b: int_einsum("imn,jn->ijm", Bounded(v.A, v.amax), b).reshape(-1, v.dim))


def bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all [x, y] with x over a basis of a and y over a basis of b."""
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    table = g.bracket_table(a.basis, b.basis)
    return Subspace.from_vectors(g.dim, table.reshape(-1, g.dim))


def wedge_square(v: LieModule) -> LieModule:
    """Induced action on wedge^2: x.(u ^ w) = (x u) ^ w + u ^ (x w), on the
    lexicographic basis e_i ^ e_j with i < j.

    That is K = A (x) 1 + 1 (x) A on antisymmetric tensors: the coefficient
    of e_a ^ e_b (a < b) in x.(e_i ^ e_j) (i < j) is A[a,i] [b = j] +
    A[b,j] [a = i] - A[b,i] [a = j] - A[a,j] [b = i], each term added where
    its indicator holds: a sum of at most four stack entries, and ``linalg``
    holds the stack in a dtype where a sum of four times the largest one fits."""
    a, (lo, hi) = v.A, np.triu_indices(v.dim, 1)  # pair k is e_lo[k] ^ e_hi[k]
    wedge = np.zeros((len(a), len(lo), len(lo)), dtype=a.dtype)
    for sign, x, y, s, t in ((1, hi, hi, lo, lo), (1, lo, lo, hi, hi), (-1, lo, hi, hi, lo), (-1, hi, lo, lo, hi)):
        r, c = np.nonzero(x[:, None] == y)  # [x of row pair r = y of column pair c]
        wedge[:, r, c] += sign * a[:, s[r], t[c]]
    # Lemma: A (x) 1 + 1 (x) A is a module whenever A is, and the antisymmetric tensors are invariant under it
    return LieModule._raw(v.algebra, wedge, v.den)


def wedge_so_isomorphism(form: NormForm, so_alg: LieAlgebra) -> Intertwiner:
    """The map u ^ w -> <., u> w - <., w> u from wedge^2(E) to so(E), as an
    intertwiner of so(E)-modules, for so_alg = ``lie.so_of_form(form)``;
    bijectivity is the caller's rank check.

    An equivariant bijection here is automatically one for every subalgebra
    of so(E) as well."""
    n = len(form.G)
    if not form.nondegenerate:
        raise DegenerateFormError("wedge/so isomorphism needs a nondegenerate form")
    nat = natural_module(so_alg)
    wedge = wedge_square(nat)
    adj = adjoint_module(so_alg)
    # den times the image of e_i ^ e_j: row j is G[i], row i is -G[j]
    rows, cols = np.triu_indices(n, 1)
    images = np.zeros((len(rows), n, n), dtype=object)
    images[np.arange(len(rows)), cols] += form.G[rows]
    images[np.arange(len(rows)), rows] -= form.G[cols]
    x = so_alg.realization_coordinates(images.reshape(len(rows), n * n))
    if x is None:
        raise AssertionError("image of wedge map escaped so(E)")
    phi, den = lowest_terms(x.T, form.den)
    return Intertwiner(source=wedge, target=adj, T=phi, den=den)


def module_isomorphism(v: LieModule, w: LieModule) -> Optional[Intertwiner]:
    """The first invertible element of the Hom(v, w) basis, or None when the
    modules are not isomorphic.

    That is a decision when the dimensions differ, when Hom(v, w) is 0, or
    when it is a line (every element a multiple of the one basis element).  A
    larger Hom with no invertible basis element is left undecided and raises
    PreconditionError.
    """
    if v.dim != w.dim:
        return None
    homs = hom_space(v, w)
    for h in homs:
        if h.is_invertible:
            return h
    if len(homs) <= 1:
        return None
    raise PreconditionError(
        f"no basis element of the {len(homs)}-dimensional Hom space is invertible; "
        "isomorphism undecided"
    )
