"""Exact dense linear algebra over the rationals.

Everything downstream (structure constants, Killing forms, kernels of
intertwining constraints) runs on the primitives in this module.  All results
are exact ``fractions.Fraction`` values; no floating point is used anywhere.
``clear_denominators`` is the one place a Fraction sequence is scaled to
integers.

Two elimination engines sit behind the public API, and the input size picks
one:

* a fraction-free integer row reduction (per-row denominator clearing, gcd
  stripping), used for everything small enough;
* a certified multi-modular kernel solver for large systems: eliminate modulo
  word-sized primes with numpy, CRT-combine, lift by rational reconstruction
  (Wang, Guy and Davenport 1982; Monagan, ISSAC 2004), and then *verify the
  candidate exactly*.  Nullity mod p upper-bounds the true nullity, so a
  verified candidate of that size is provably the kernel.  Each prime is
  eliminated once; a pivot-pattern disagreement or a lift that never
  verifies falls back to fraction-free elimination, so correctness never
  depends on the fast path.

Both stay because neither is slower everywhere.  Measured on one CPU of a
2-vCPU x86-64 machine, Python 3.11, best of 3: on the 358-368 x 64
derivation systems of Cayley-algebra mutants the modular solver takes
7.5-9 ms per system against 14-16 ms fraction-free; on the four large
systems of a full verification run (356 x 64, 166 x 196, 320 x 441,
176 x 171) it takes 8, 32, 180 and 33 ms against 11, 36, 176 and 30 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# Primes just below 2**31: pivots and row updates stay inside int64.
_PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
)

# Above this rows*cols*min(rows, cols) estimate, kernel_basis prefers the
# certified modular path.
_MODULAR_THRESHOLD = 1_000_000

# Strip row gcds during integer elimination once entries pass this size.
_GCD_STRIP_BOUND = 1 << 96


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _raw(cls, rows: tuple) -> "Matrix":
        m = object.__new__(cls)
        m.rows = rows
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        row = (ZERO,) * ncols
        return cls._raw(tuple(row for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._raw(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
            )
        )

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        return cls._raw(
            tuple(
                tuple(Fraction(entries[i]) if i == j else ZERO for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls(tuple((x,) for x in entries))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._raw(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Matrix":
        return Matrix._raw(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix._raw(tuple(tuple(c * a for a in r) for r in self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        cols = tuple(zip(*other.rows)) if other.rows else ()
        return Matrix._raw(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                    for col in cols
                )
                for row in self.rows
            )
        )

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-times-column-vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((a * b for a, b in zip(row, vec) if a and b), ZERO)
            for row in self.rows
        )

    def transpose(self) -> "Matrix":
        return Matrix._raw(tuple(zip(*self.rows))) if self.rows else Matrix(())

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self * other - other * self

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major vectorization."""
        return tuple(x for row in self.rows for x in row)

    @classmethod
    def from_flat(cls, vec: Sequence, nrows: int, ncols: int) -> "Matrix":
        if len(vec) != nrows * ncols:
            raise ValueError("flat length mismatch")
        return cls(tuple(tuple(vec[i * ncols + j] for j in range(ncols)) for i in range(nrows)))

    def rank(self) -> int:
        return rref(self).rank

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        aug = Matrix(
            tuple(self.rows[i] + Matrix.identity(n).rows[i] for i in range(n))
        )
        red = rref(aug)
        if red.pivots[:n] != tuple(range(n)) or red.rank != n:
            raise ValueError("matrix is singular")
        return Matrix(tuple(row[n:] for row in red.reduced.rows))


# ---------------------------------------------------------------------------
# integer elimination core


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n_i and the least d > 0 with values[i] == n_i / d.

    Scaling a row this way keeps its kernel and row space; scaling a family
    of matrices by one d keeps every linear relation among them.
    """
    den = math.lcm(*{x.denominator for x in values})
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _rows_to_int(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    return [clear_denominators(row)[0] for row in rows]


def _strip_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _int_rref(rows: list[list[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Exact RREF of an integer matrix.

    Fraction-free two-row combinations during elimination; each pivot row is
    normalized to a leading 1 only at the end.  Returns (rows, pivot columns).
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # smallest nonzero magnitude keeps coefficient growth down
        best = -1
        best_abs = 0
        for i in range(r, nrows):
            v = work[i][c]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best, best_abs = i, a
        if best < 0:
            continue
        if best != r:
            work[best], work[r] = work[r], work[best]
        piv_row = work[r]
        piv = piv_row[c]
        for i in range(nrows):
            if i == r:
                continue
            v = work[i][c]
            if not v:
                continue
            g = math.gcd(piv, v)
            pf = piv // g
            vf = v // g
            cur = work[i]
            new = [pf * a - vf * b for a, b in zip(cur, piv_row)]
            if max(map(abs, new), default=0) > _GCD_STRIP_BOUND:
                new = _strip_row(new)
            work[i] = new
        pivots.append(c)
        r += 1
    # sort pivot rows ahead of zero rows, normalize leading entries to 1
    out: list[list[Fraction]] = []
    for idx, c in enumerate(pivots):
        row = work[idx]
        piv = row[c]
        out.append([Fraction(x, piv) for x in row])
    for idx in range(len(pivots), nrows):
        out.append([ZERO] * ncols)
    return out, pivots


@dataclass(frozen=True)
class RrefResult:
    reduced: "Matrix"
    rank: int
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, rank, and pivot columns."""
    rows, pivots = _int_rref(_rows_to_int(m.rows))
    return RrefResult(Matrix(rows), len(pivots), tuple(pivots))


def _kernel_vectors_from_rref(
    rows: list[list[Fraction]], pivots: list[int], ncols: int
) -> list[tuple[Fraction, ...]]:
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        vecs.append(tuple(v))
    return vecs


# ---------------------------------------------------------------------------
# certified modular kernel path


def _rref_mod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = np.mod(a, p).astype(np.int64)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def _rational_reconstruct(r: int, m: int) -> Optional[Fraction]:
    """Lift a residue mod m to p/q with |p|, q <= sqrt(m/2), if possible."""
    bound = math.isqrt(m // 2)
    old_r, cur_r = m, r % m
    old_s, cur_s = 0, 1
    while cur_r > bound:
        q = old_r // cur_r
        old_r, cur_r = cur_r, old_r - q * cur_r
        old_s, cur_s = cur_s, old_s - q * cur_s
    num, den = cur_r, cur_s
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    if den > bound or math.gcd(num, den) != 1:
        return None
    return Fraction(num, den)


def _verify_kernel(int_rows: list[list[int]], vecs: list[tuple[Fraction, ...]]) -> bool:
    """Exact check that every candidate vector annihilates every row."""
    if not vecs:
        return True
    scaled = _rows_to_int(vecs)
    amax = max(abs(x) for row in int_rows for x in row)
    bmax = max(abs(x) for v in scaled for x in v)
    # int64 while every dot product provably fits, Python ints beyond that
    dtype = np.int64 if amax * bmax * len(int_rows[0]) < (1 << 62) else object
    return not np.any(np.array(int_rows, dtype=dtype) @ np.array(scaled, dtype=dtype).T)


def _lift_kernel(
    residues: np.ndarray, modulus: int, pivots: list[int], free: list[int], ncols: int
) -> Optional[list[tuple[Fraction, ...]]]:
    """Kernel candidates from the CRT residues of the reduced free columns:
    each entry is a negated reduced entry, lifted by rational reconstruction."""
    vecs = []
    for col, f in enumerate(free):
        v = [ZERO] * ncols
        v[f] = ONE
        for i, c in enumerate(pivots):
            lifted = _rational_reconstruct(-residues[i, col] % modulus, modulus)
            if lifted is None:
                return None
            v[c] = lifted
        vecs.append(tuple(v))
    return vecs


def _kernel_modular(int_rows: list[list[int]], ncols: int) -> Optional[list[tuple[Fraction, ...]]]:
    """Kernel via mod-p elimination + CRT + rational reconstruction.

    Each prime is eliminated once and CRT-combined into the running residues,
    which are lifted and verified after 1, 2, 4 and 8 primes.  Returns a
    verified exact kernel basis, or None if a prime disagrees on the pivot
    pattern or no lift verifies (the caller then falls back to fraction-free
    elimination).
    """
    arr = np.array(int_rows, dtype=object)
    pivots_ref: Optional[list[int]] = None
    for count, p in enumerate(_PRIMES, start=1):
        red, pivots = _rref_mod_p((arr % p).astype(np.int64), p)
        if pivots_ref is None:
            pivots_ref = pivots
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            residues, modulus = red[:, free].astype(object), 1
        elif pivots != pivots_ref:
            return None  # unlucky prime: pivot pattern disagreement
        else:
            step = (red[:, free].astype(object) - residues) * pow(modulus, -1, p) % p
            residues = residues + modulus * step
        modulus *= p
        if count & (count - 1):
            continue
        vecs = _lift_kernel(residues, modulus, pivots_ref, free, ncols)
        if vecs is not None and _verify_kernel(int_rows, vecs):
            # nullity mod p >= true nullity; exhibiting that many exact,
            # independent kernel vectors pins the kernel down completely.
            return vecs
    return None


def kernel_basis(m: Matrix) -> "Subspace":
    """Exact kernel {x : m x = 0}, canonicalized."""
    ncols = m.ncols
    if ncols == 0:
        return Subspace(0, ())
    int_rows = [r for r in _rows_to_int(m.rows) if any(r)]
    if not int_rows:
        return Subspace.full(ncols)
    size = len(int_rows) * ncols * min(len(int_rows), ncols)
    if size > _MODULAR_THRESHOLD:
        vecs = _kernel_modular(int_rows, ncols)
        if vecs is not None:
            return Subspace.from_vectors(ncols, vecs)
    rows, pivots = _int_rref(int_rows)
    vecs = _kernel_vectors_from_rref(rows, pivots, ncols)
    return Subspace.from_vectors(ncols, vecs)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its canonical (RREF) row basis.

    Canonical storage makes equality of subspaces plain tuple equality.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [
            [x if isinstance(x, Fraction) else Fraction(x) for x in v] for v in vectors
        ]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        rows = [r for r in rows if any(r)]
        if not rows:
            return cls(ambient_dim, ())
        reduced, pivots = _int_rref(_rows_to_int(rows))
        return cls(ambient_dim, tuple(tuple(r) for r in reduced[: len(pivots)]))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(
            ambient_dim,
            tuple(
                tuple(ONE if i == j else ZERO for j in range(ambient_dim))
                for i in range(ambient_dim)
            ),
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def coordinates_of(self, vec: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
        """Coefficients of vec in the canonical basis, or None if outside."""
        vec = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in vec)
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        coeffs = tuple(vec[p] for p in self._pivots())
        residual = list(vec)
        for c, row in zip(coeffs, self.basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        residual[j] -= c * x
        if any(residual):
            return None
        return coeffs

    def contains_vector(self, vec: Sequence[Fraction]) -> bool:
        return self.coordinates_of(vec) is not None

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [a|a; b|0] rows, zero left blocks span a∩b."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        stacked = [list(v) + list(v) for v in self.basis] + [
            list(v) + [ZERO] * n for v in other.basis
        ]
        if not stacked:
            return Subspace(n, ())
        reduced, pivots = _int_rref(_rows_to_int(stacked))
        vecs = [
            tuple(row[n:])
            for row, p in zip(reduced, pivots)
            if p >= n
        ]
        return Subspace.from_vectors(n, vecs)

    def basis_matrix(self) -> Matrix:
        """Basis vectors as the columns of an (ambient x dim) matrix."""
        return Matrix(self.basis).transpose() if self.basis else Matrix.zeros(self.ambient_dim, 0)


# ---------------------------------------------------------------------------
# signatures


def signature(m: Matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric matrix.

    Symmetric Gaussian congruence with the usual zero-diagonal repair: swap in
    a nonzero diagonal if one exists further down, otherwise fold row/column j
    into i (which makes the new diagonal entry 2*m[i][j] != 0).
    """
    if not m.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    n = m.nrows
    a = [list(row) for row in m.rows]
    pos = neg = 0
    for i in range(n):
        if not a[i][i]:
            swap = next((j for j in range(i + 1, n) if a[j][j]), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                fold = next((j for j in range(i + 1, n) if a[i][j]), None)
                if fold is None:
                    continue  # row is null from here on
                for j in range(n):
                    a[i][j] += a[fold][j]
                for row in a:
                    row[i] += row[fold]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j]:
                f = a[i][j] / d
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for row in a:
                    row[j] -= f * row[i]
    return (pos, neg, n - pos - neg)
