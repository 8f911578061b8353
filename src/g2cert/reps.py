"""Modules over a Lie algebra: hom spaces, commutants, invariant bilinear
forms, Killing-orthogonal complements, generated submodules, irreducibility
certificates, wedge squares, and module isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFormError, NotSemisimpleError, PreconditionError
from .lie import LieAlgebra, killing_form, is_semisimple, so_of_form
from .linalg import (
    Matrix,
    Subspace,
    ZERO,
    clear_denominators,
    int_array,
    int_einsum,
    kernel_basis,
    signature,
)


class LieModule:
    """A module over a Lie algebra: one action matrix per basis element.

    The homomorphism law rho([e_i,e_j]) = [rho(e_i), rho(e_j)] is verified
    exactly at construction on all basis pairs.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        action: Sequence[Matrix],
        name: str = "",
        dim: Optional[int] = None,
    ):
        self.algebra = algebra
        self.action = tuple(action)
        self.name = name
        if len(self.action) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")
        if self.action:
            self.dim = self.action[0].nrows
            if dim is not None and dim != self.dim:
                raise ValueError("declared dimension contradicts action matrices")
        else:
            if dim is None:
                raise ValueError("a module over the zero algebra needs an explicit dim")
            self.dim = dim
        for m in self.action:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")
        bad = algebra.bracket_law_failure(self.action)
        if bad is not None:
            raise ValueError("homomorphism law fails at basis pair ({},{})".format(*bad))


def adjoint_module(g: LieAlgebra) -> LieModule:
    """The adjoint module, built (and its homomorphism law checked) once per
    algebra."""
    if g._adjoint is None:
        g._adjoint = LieModule(g, g.ad_basis, name=f"ad({g.name})")
    return g._adjoint


def natural_module(g: LieAlgebra, name: str = "") -> LieModule:
    if g.realization is None:
        raise ValueError("algebra carries no matrix realization")
    return LieModule(g, g.realization, name=name or f"nat({g.name})")


def restricted_action(mats: Sequence[Matrix], sub: Subspace) -> list[Matrix]:
    """Each matrix restricted to an invariant subspace, in that subspace's
    basis."""
    out = []
    for m in mats:
        cols = [sub.coordinates_of(m.apply(b)) for b in sub.basis]
        if any(c is None for c in cols):
            raise ValueError("subspace is not invariant under the action")
        out.append(Matrix(cols).transpose() if cols else Matrix.zeros(0, 0))
    return out


def restriction_module(v: LieModule, sub: Subspace, name: str = "") -> LieModule:
    """Action restricted to an invariant subspace, in that subspace's basis."""
    if sub.ambient_dim != v.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    return LieModule(v.algebra, restricted_action(v.action, sub), name=name, dim=sub.dim)


@dataclass(frozen=True)
class Intertwiner:
    """A module homomorphism; the intertwining identity is verified exactly.

    T rho_v(e_i) = rho_w(e_i) T is checked for all i at once on integers: T
    scaled by its denominator, both actions by one common denominator.
    """

    source: LieModule
    target: LieModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("intertwiner between modules over different algebras")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError("intertwiner matrix has wrong shape")
        v, w = self.source, self.target
        t_ints, _ = clear_denominators(self.matrix.flatten())
        flat, _ = clear_denominators([x for m in v.action + w.action for row in m.rows for x in row])
        split = len(v.action) * v.dim * v.dim
        t = np.array(t_ints, dtype=object).reshape(w.dim, v.dim)
        rho_v = np.array(flat[:split], dtype=object).reshape(len(v.action), v.dim, v.dim)
        rho_w = np.array(flat[split:], dtype=object).reshape(len(w.action), w.dim, w.dim)
        if not np.array_equal(int_einsum("ab,ibc->iac", t, rho_v), int_einsum("iab,bc->iac", rho_w, t)):
            raise ValueError("matrix does not intertwine the actions")

    @property
    def is_invertible(self) -> bool:
        return (
            self.source.dim == self.target.dim
            and self.matrix.rank() == self.source.dim
        )


def _sylvester_kernel(
    pairs: Sequence[tuple[Matrix, Matrix]], nrows: int, ncols: int
) -> Subspace:
    """Common kernel of the maps T -> T A - B T over all pairs (A, B), where T
    is nrows x ncols, vectorized row-major.

    The first pair is solved through an explicit (possibly large) linear
    system; each later pair only constrains the surviving span, which keeps
    everything small after the first step.
    """
    size = nrows * ncols
    if not pairs:
        return Subspace.full(size)
    vectors: Optional[np.ndarray] = None  # integer spanning rows of the survivors
    for a, b in pairs:
        ints, _den = clear_denominators(a.flatten() + b.flatten())
        peak = 2 * max(map(abs, ints), default=0)
        a_int = int_array(ints[: ncols * ncols], peak).reshape(ncols, ncols)
        b_int = int_array(ints[ncols * ncols :], peak).reshape(nrows, nrows)
        if vectors is None:
            # row-major vec(T A - B T) = (kron(I, A^T) - kron(B, I)) vec(T)
            system = np.kron(np.eye(nrows, dtype=a_int.dtype), a_int.T) - np.kron(
                b_int, np.eye(ncols, dtype=b_int.dtype)
            )
            survivors = kernel_basis(system)
            vectors = survivors.int_basis()
        else:
            t = vectors.reshape(-1, nrows, ncols)
            images = (t @ a_int - b_int @ t).reshape(len(vectors), size)
            coeff_kernel = kernel_basis(images.T)
            vectors = coeff_kernel.int_basis() @ vectors
        if not len(vectors):
            return Subspace(size, ())
    return Subspace.from_vectors(size, vectors.tolist())


def hom_space(v: LieModule, w: LieModule) -> list[Intertwiner]:
    """Basis of Hom(v, w): all T with T rho_v(x) = rho_w(x) T."""
    if v.algebra is not w.algebra:
        raise ValueError("modules over different algebras")
    pairs = list(zip(v.action, w.action))
    sub = _sylvester_kernel(pairs, w.dim, v.dim)
    return [
        Intertwiner(source=v, target=w, matrix=Matrix.from_flat(b, w.dim, v.dim))
        for b in sub.basis
    ]


@dataclass(frozen=True)
class IrreducibilityCertificate:
    irreducible: bool
    commutant_dim: int

    def __bool__(self) -> bool:
        return self.irreducible


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


@dataclass(frozen=True)
class InvariantForms:
    """Solution space of B(rho(x)u, w) + B(u, rho(x)w) = 0 for all generators."""

    basis: tuple[Matrix, ...]
    symmetric_basis: tuple[Matrix, ...]
    signature: Optional[tuple[int, int, int]]  # of a sign-normalized generator
    generator: Optional[Matrix]

    @property
    def dim(self) -> int:
        return len(self.basis)


def invariant_bilinear_forms(v: LieModule) -> InvariantForms:
    """Invariant bilinear forms on a module; if the symmetric part is a single
    line, report the signature of a generator normalized so that the positive
    count does not exceed the negative one (the line itself is sign-free)."""
    pairs = [(rho, -rho.transpose()) for rho in v.action]
    sub = _sylvester_kernel(pairs, v.dim, v.dim)
    forms = [Matrix.from_flat(b, v.dim, v.dim) for b in sub.basis]
    # B^T is invariant with B, and a symmetric S in the span is (S + S^T)/2
    sym_sub = Subspace.from_vectors(v.dim * v.dim, [(f + f.transpose()).flatten() for f in forms])
    sym_forms = tuple(Matrix.from_flat(b, v.dim, v.dim) for b in sym_sub.basis)
    sig = None
    gen = None
    if len(sym_forms) == 1:
        gen = sym_forms[0]
        sig = signature(gen)
        if sig[0] > sig[1]:
            gen = -gen
            sig = (sig[1], sig[0], sig[2])
    return InvariantForms(
        basis=tuple(forms),
        symmetric_basis=sym_forms,
        signature=sig,
        generator=gen,
    )


def killing_orthocomplement(g: LieAlgebra, sub: Subspace) -> Subspace:
    """Killing-orthogonal complement of a subspace on which the Killing form
    restricts nondegenerately; ad-invariance of the form makes the complement
    a module for the adjoint action of the subspace."""
    if sub.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    k = killing_form(g).gram
    b = Matrix(sub.basis)
    restricted = b * k * b.transpose()
    if restricted.rank() != sub.dim:
        raise DegenerateFormError("Killing form restricts degenerately")
    comp = kernel_basis(b * k)
    assert comp.dim == g.dim - sub.dim
    return comp


def submodule_generated(v: LieModule, vec: Sequence[Fraction]) -> Subspace:
    """Smallest action-invariant subspace containing the vector."""
    vec = tuple(Fraction(x) for x in vec)
    if len(vec) != v.dim:
        raise ValueError("vector has the wrong length")
    current = Subspace.from_vectors(v.dim, [vec] if any(vec) else [])
    while True:
        vectors = list(current.basis)
        for m in v.action:
            for b in current.basis:
                vectors.append(m.apply(b))
        grown = Subspace.from_vectors(v.dim, vectors)
        if grown.dim == current.dim:
            return grown
        current = grown


def bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all [x, y] with x over a basis of a and y over a basis of b."""
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    table = g.bracket_table(a.int_basis(), b.int_basis())
    return Subspace.from_vectors(g.dim, table.reshape(-1, g.dim).tolist())


def _wedge_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def wedge_square(v: LieModule, name: str = "") -> LieModule:
    """Induced action on wedge^2: x.(u ^ w) = (x u) ^ w + u ^ (x w), on the
    lexicographic basis e_i ^ e_j with i < j."""
    n = v.dim
    idx = _wedge_index(n)
    pos = {p: a for a, p in enumerate(idx)}
    dim = len(idx)
    mats = []
    for m in v.action:
        rows = [[ZERO] * dim for _ in range(dim)]
        for col, (i, j) in enumerate(idx):
            for k in range(n):
                c = m.rows[k][i]
                if c:  # (e_k ^ e_j) term
                    if k < j:
                        rows[pos[(k, j)]][col] += c
                    elif k > j:
                        rows[pos[(j, k)]][col] -= c
                c = m.rows[k][j]
                if c:  # (e_i ^ e_k) term
                    if i < k:
                        rows[pos[(i, k)]][col] += c
                    elif i > k:
                        rows[pos[(k, i)]][col] -= c
        mats.append(Matrix(rows))
    return LieModule(v.algebra, mats, name=name or f"wedge2({v.name})", dim=dim)


def wedge_so_isomorphism(gram: Matrix, so_alg: Optional[LieAlgebra] = None) -> Intertwiner:
    """The map u ^ w -> <., u> w - <., w> u from wedge^2(E) to so(E), as an
    intertwiner of so(E)-modules; bijectivity is the caller's rank check.

    An equivariant bijection here is automatically one for every subalgebra
    of so(E) as well."""
    n = gram.nrows
    if not gram.is_symmetric() or gram.rank() != n:
        raise DegenerateFormError("wedge/so isomorphism needs a nondegenerate form")
    if so_alg is None:
        so_alg = so_of_form(gram)
    nat = natural_module(so_alg)
    wedge = wedge_square(nat)
    adj = adjoint_module(so_alg)
    cols = []
    for (i, j) in _wedge_index(n):
        rows = [[ZERO] * n for _ in range(n)]
        for c in range(n):
            rows[j][c] += gram.rows[i][c]
            rows[i][c] -= gram.rows[j][c]
        coords = so_alg.realization_coordinates(Matrix(rows))
        if coords is None:
            raise AssertionError("image of wedge map escaped so(E)")
        cols.append(coords)
    phi = Matrix(cols).transpose()
    return Intertwiner(source=wedge, target=adj, matrix=phi)


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
