"""Modules over a Lie algebra: hom spaces, commutants, invariant bilinear
forms, Killing-orthogonal complements, generated submodules, irreducibility
certificates, wedge squares, and module isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFormError, NotSemisimpleError
from .lie import LieAlgebra, killing_form, is_semisimple, so_of_form
from .linalg import (
    Matrix,
    Subspace,
    ZERO,
    _strip_row,
    clear_denominators,
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

    def rho(self, coords: Sequence[Fraction]) -> Matrix:
        """Action of an algebra element given by coordinates."""
        out = Matrix.zeros(self.dim, self.dim)
        for c, m in zip(coords, self.action):
            if c:
                out = out + m.scale(c)
        return out

    @classmethod
    def direct_sum(cls, v: "LieModule", w: "LieModule", name: str = "") -> "LieModule":
        if v.algebra is not w.algebra:
            raise ValueError("modules over different algebras")
        mats = []
        for a, b in zip(v.action, w.action):
            rows = [
                tuple(row) + (ZERO,) * w.dim for row in a.rows
            ] + [
                (ZERO,) * v.dim + tuple(row) for row in b.rows
            ]
            mats.append(Matrix(rows))
        return cls(v.algebra, mats, name=name or f"{v.name}+{w.name}", dim=v.dim + w.dim)


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
    """A module homomorphism; the intertwining identity is verified exactly."""

    source: LieModule
    target: LieModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("intertwiner between modules over different algebras")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError("intertwiner matrix has wrong shape")
        for rs, rt in zip(self.source.action, self.target.action):
            if self.matrix * rs != rt * self.matrix:
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
        a_int, b_int = ints[: ncols * ncols], ints[ncols * ncols :]
        if vectors is None:
            rows = []
            for r in range(nrows):
                base = r * ncols
                for s in range(ncols):
                    row = [0] * size
                    for k in range(ncols):
                        row[base + k] += a_int[k * ncols + s]
                    for k in range(nrows):
                        row[k * ncols + s] -= b_int[r * nrows + k]
                    rows.append(row)
            basis = kernel_basis(Matrix(rows)).basis
            vectors = _int_vectors(basis, size)
        else:
            t = vectors.reshape(-1, nrows, ncols)
            a_arr = np.array(a_int, dtype=object).reshape(ncols, ncols)
            b_arr = np.array(b_int, dtype=object).reshape(nrows, nrows)
            images = (t @ a_arr - b_arr @ t).reshape(len(vectors), size)
            coeff_kernel = kernel_basis(Matrix(images.T.tolist()))
            vectors = _int_vectors(coeff_kernel.basis, len(vectors)) @ vectors
        if not len(vectors):
            return Subspace(size, ())
    return Subspace.from_vectors(size, vectors.tolist())


def _int_vectors(vecs: Sequence[Sequence[Fraction]], length: int) -> np.ndarray:
    """Primitive integer multiples of the vectors, as rows of an object array."""
    rows = [_strip_row(clear_denominators(v)[0]) for v in vecs]
    return np.array(rows, dtype=object).reshape(len(rows), length)


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
    sym_vecs = [f.flatten() for f in forms if f.is_symmetric()]
    if len(sym_vecs) < len(forms):
        # extract the symmetric subspace of the span properly
        n = v.dim
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                rows.append(
                    [b[i * n + j] - b[j * n + i] for b in sub.basis]
                )
        coeff = kernel_basis(Matrix(rows)) if rows else Subspace.full(len(forms))
        sym_vecs = []
        for coeffs in coeff.basis:
            vec = [ZERO] * (n * n)
            for c, b in zip(coeffs, sub.basis):
                if c:
                    for k, x in enumerate(b):
                        if x:
                            vec[k] += c * x
            sym_vecs.append(tuple(vec))
    sym_sub = Subspace.from_vectors(v.dim * v.dim, sym_vecs)
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
    vectors = [g.bracket(x, y) for x in a.basis for y in b.basis]
    return Subspace.from_vectors(g.dim, vectors)


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
    """An invertible intertwiner if one is found: each hom-space basis element
    is tried first, then a deterministic seeded sample of 64 small-integer
    combinations."""
    if v.dim != w.dim:
        return None
    homs = hom_space(v, w)
    if not homs:
        return None
    for h in homs:
        if h.is_invertible:
            return h
    rng = Random("module-isomorphism")
    for _ in range(64):
        coeffs = [rng.randint(-3, 3) for _ in homs]
        if not any(coeffs):
            continue
        m = Matrix.zeros(w.dim, v.dim)
        for c, h in zip(coeffs, homs):
            if c:
                m = m + h.matrix.scale(c)
        if m.rank() == v.dim:
            return Intertwiner(source=v, target=w, matrix=m)
    return None
