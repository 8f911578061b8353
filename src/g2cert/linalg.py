"""Exact dense linear algebra over the rationals.

Everything downstream (structure constants, Killing forms, kernels of
intertwining constraints) runs on the primitives in this module.  All results
are exact integers or ``fractions.Fraction`` values; no floating point is used.

Every matrix the package stores, takes or returns is a numpy integer array
(int64, or object dtype of Python ints) with, where it is rational, one
positive denominator beside it; constructors reject anything else.
``int_cleared`` is the one place an array of rationals becomes one integer
array with one denominator, and ``int_dtype`` the one place that turns a
bound into int64 or Python ints: int64 when the bound is below 2**61, so a
sum of up to four such results fits.  The owners ``LieAlgebra.C``,
``LieModule.A``, ``NormForm.G`` and ``StructureConstantAlgebra.M`` keep their
arrays read-only beside the largest magnitude (``held``), and ``int_einsum``
reads it off a ``Bounded`` operand, as it reads ``Subspace.bound`` beside a
basis; it still scans fresh products and realization stacks.  ``int_inverse``,
the one exact inverse, reads the canonical basis of [a | I]; Fractions remain
in ``Matrix`` and ``rref``, which only the benchmark's tracer and their own
behaviour tests touch.

One exact elimination engine sits behind the public API: a fraction-free
integer row reduction (per-row denominator clearing, gcd stripping), which
``Subspace.from_vectors`` runs once on any family.  Its canonical basis,
cleared where it is made to ``basis`` over its least denominator ``den``, is
the one coordinate system: ``Subspace.coordinates`` reads x = v[:, pivots],
exactly when den v = x basis.  A word-sized prime, ``PRIME``, only decides
which rows the engine sees.  An integer matrix's rank over Q is at least its
rank mod p (Dixon, Numer. Math. 40, 1982), so rows independent modulo
``PRIME`` are independent over Q:

* ``independent_rows`` picks the rows of one matrix independent of the rows
  above them, by one forward elimination mod p over the columns, however
  many rows there are; ``kernel_basis`` and ``reps``' spin bases pick with it;
* ``kernel_basis`` first presolves singleton rows: a row with one nonzero
  entry r_c says r_c x_c = 0, so x_c = 0 over Q, and dropping column c may
  leave another row with one nonzero entry.  The kernel is that of the live
  columns, padded with zeros.  Of those columns it eliminates only the rows
  picked independent mod p, rank many instead of all, right to left, so the
  kernel comes out canonical, and checks it against every row exactly; only
  a failed check, where the rank over Q exceeds the rank mod p, eliminates
  every row;
* ``ranks_mod_p`` ranks a stack of small systems in one batch, so that exact
  work is left only for the systems whose rank mod p falls short.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

# A prime just below 2**31: pivots and row updates mod PRIME stay inside int64.
PRIME = 2147483647

# Strip row gcds during integer elimination once entries pass this size.
_GCD_STRIP_BOUND = 1 << 96


# Matrix, RrefResult and rref have no caller in src/ and are no test's oracle: bench/tracer.py wraps them by name (ROADMAP item 3).
class Matrix:
    """A matrix with Fraction entries, read by ``int_cleared``, inverted by ``int_inverse``."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        a, d = int_cleared([list(row) for row in rows])
        self.rows = tuple(tuple(Fraction(int(x), d) for x in row) for row in a)

    def inverse(self) -> "Matrix":
        """d a^-1 = d x / e for self = a / d; ValueError if self is singular (its rows are dependent)."""
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("inverse of non-square matrix")
        a, d = int_cleared(self.rows)
        x, e = int_inverse(a.reshape(n, n))
        return Matrix([Fraction(d * int(v), e) for v in row] for row in x)


# ---------------------------------------------------------------------------
# integer elimination core


def max_abs(a: np.ndarray) -> int:
    """The largest magnitude of an integer array's entries, 0 when it is empty."""
    return int(np.abs(a).max(initial=0))


def int_dtype(peak: int):
    """int64 when peak, a bound on every entry and partial sum of a result,
    is below 2**61, so a sum of up to four such results fits; Python ints
    (object) otherwise."""
    return np.int64 if peak < (1 << 61) else object


# An integer array beside a bound on its entries' magnitudes, for int_einsum to read.
Bounded = NamedTuple("Bounded", [("array", np.ndarray), ("bound", int)])


def held(a: np.ndarray, copy: bool = True) -> Bounded:
    """a read-only, of dtype ``int_dtype`` of its largest magnitude, beside
    that magnitude; a copy unless copy is False and a has that dtype."""
    bound = max_abs(a)
    a = a.astype(int_dtype(bound), copy=copy)
    a.flags.writeable = False
    return Bounded(a, bound)


def int_cleared(values) -> tuple[np.ndarray, int]:
    """A nested sequence or array of exact rationals (ints, numpy integers read
    as ints, Fractions; any other leaf: TypeError) as one integer array a of the
    same shape and the least den > 0 with a == den * values; int64 or Python ints
    as ``int_dtype`` decides (one den keeps every linear relation).  An integer
    array is copied; the rest is read in one pass (ragged: ValueError)."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            return values.astype(int_dtype(max_abs(values))), 1
        shape, flat = values.shape, values.ravel().tolist()
    else:
        shape, flat = [], [values]
        while flat and isinstance(flat[0], (list, tuple, np.ndarray)):
            n, level, flat = len(flat[0]), flat, []
            for x in level:
                if not isinstance(x, (list, tuple, np.ndarray)) or len(x) != n:
                    raise ValueError("a ragged nested sequence has no array shape")
                flat.extend(x.tolist() if isinstance(x, np.ndarray) else x)
            shape.append(n)
    if not set(map(type, flat)) <= {int, Fraction}:
        if any(isinstance(x, (list, tuple, np.ndarray)) for x in flat):
            raise ValueError("a ragged nested sequence has no array shape")
        if not all(isinstance(x, (int, Fraction, np.integer)) for x in flat):
            raise TypeError("a rational entry must be an int, a numpy integer or a Fraction")
        flat = [int(x) if isinstance(x, np.integer) else x for x in flat]
    den = math.lcm(*{x.denominator for x in flat})
    ints = [x.numerator * (den // x.denominator) for x in flat] if den > 1 else [x.numerator for x in flat]
    return np.array(ints, dtype=int_dtype(max(max(ints, default=0), -min(ints, default=0)))).reshape(shape), den


def lowest_terms(a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """The rational array a / den, a an integer array, as the same pair
    divided by the gcd of den and every entry of a."""
    g = math.gcd(den, *map(int, a.flat))
    return (a // g, den // g) if g > 1 else (a, den)


# spec -> its operands' letter groups and the letters it sums over, split once per spec
_PLANS: dict[str, tuple[list[str], set[str]]] = {}


def int_einsum(spec: str, *operands) -> np.ndarray:
    """np.einsum over integer operands, exactly: ``Bounded`` arrays and
    Python ints, whose bounds are read, and integer arrays or nested lists of
    ints, which are scanned.  Every entry and partial sum is at most the
    product of the bounds times the number of summed terms; ``int_dtype``
    picks the dtype from that, and an array that has it is not copied."""
    if (plan := _PLANS.get(spec)) is None:
        inputs, output = spec.split("->")
        plan = _PLANS[spec] = inputs.split(","), set(inputs) - set(output) - {","}
    groups, summed = plan
    arrays, sizes, peak = [], {}, 1
    for letters, op in zip(groups, operands):
        if isinstance(op, int):
            op = Bounded(op, abs(op))
        elif not isinstance(op, Bounded):
            op = op if isinstance(op, np.ndarray) else np.array(op, dtype=object)
            op = Bounded(op, max_abs(op))
        sizes.update(zip(letters, op.array.shape if letters else ()))
        arrays.append(op.array)
        peak *= op.bound or 1
    dtype = int_dtype(peak * math.prod(sizes[x] for x in summed))
    return np.einsum(spec, *(a if isinstance(a, int) else a.astype(dtype, copy=False) for a in arrays))


def _int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Exact RREF of an integer matrix, as (rows, pivot columns).

    Fraction-free two-row combinations during elimination; only the pivot
    rows come out, each primitive (divided by its gcd) with a positive pivot,
    so row i is a positive multiple of the leading-1 RREF row of pivots[i].
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
            if max(map(abs, new), default=0) > _GCD_STRIP_BOUND and (g := math.gcd(*new)) > 1:
                new = [x // g for x in new]
            work[i] = new
        pivots.append(c)
        r += 1
    gcds = [math.gcd(*row) if row[c] > 0 else -math.gcd(*row) for row, c in zip(work, pivots)]
    return [[x // g for x in row] for row, g in zip(work, gcds)], pivots


def is_int_array(a) -> bool:
    """Whether a is a numpy integer array: int64, or Python ints (object)."""
    return isinstance(a, np.ndarray) and (a.dtype.kind == "i" or (a.dtype == object and not set(map(type, a.flat)) - {int}))


def _int_matrix(m: np.ndarray) -> np.ndarray:
    """m itself if it is a 2-D numpy integer array (int64, or object dtype
    of Python ints); TypeError for any other input."""
    if m.ndim != 2 or not is_int_array(m):
        raise TypeError("a 2-D integer array is required")
    return m


class RrefResult(NamedTuple):
    reduced: tuple[tuple[Fraction, ...], ...]
    rank: int
    pivots: tuple[int, ...]


def rref(m: np.ndarray) -> RrefResult:
    """Unique reduced row echelon form of a 2-D integer array, as leading-1
    Fraction rows followed by its zero rows, with its rank and pivot
    columns."""
    rows, pivots = _int_rref(_int_matrix(m).tolist())
    reduced = tuple(tuple(Fraction(x, r[c]) for x in r) for r, c in zip(rows, pivots))
    return RrefResult(reduced + ((Fraction(0),) * m.shape[1],) * (len(m) - len(pivots)), len(pivots), tuple(pivots))


def ranks_mod_p(stack: np.ndarray) -> np.ndarray:
    """The rank mod ``PRIME`` of each matrix of an integer stack, by one
    fraction-free elimination of them all, in place: each row becomes
    piv * row - row[c] * pivot_row (products below PRIME**2 < 2**62), which
    also zeroes the pivot row, so no row is a pivot twice."""
    a = np.mod(stack, PRIME).astype(np.int64, copy=False)
    k, nrows, ncols = a.shape
    ranks, at = np.zeros(k, dtype=np.int64), np.arange(k)
    for c in range(ncols if nrows else 0):
        col = a[:, :, c]
        rows = np.argmax(col != 0, axis=1)
        piv = col[at, rows]
        ranks += piv != 0
        rest = a[:, :, c + 1 :]
        pivot_rows = rest[at, rows]
        rest *= np.where(piv, piv, 1)[:, None, None]
        rest -= col[:, :, None] * pivot_rows[:, None, :]
        rest %= PRIME
    return ranks


def independent_rows(a: np.ndarray) -> list[int]:
    """Indices of rows of the integer array a that are linearly independent
    modulo ``PRIME``, hence over Q, as many as a's rank mod ``PRIME``.

    Forward elimination of a's columns mod ``PRIME``: column c picks the first
    row nonzero in it, clears c from the other rows nonzero there (only
    columns >= c, as every row is already zero left of c) and then zeroes the
    picked row, so no row is picked twice.  A row is cleared only by rows
    picked above it, so it is picked exactly when it is independent of them."""
    a = np.mod(a, PRIME).astype(np.int64)
    picked = []
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[:, c])
        if not nz.size:
            continue
        r, rest = nz[0], nz[1:]
        if rest.size:  # products below PRIME**2 < 2**62
            pivot = a[r, c:] * pow(int(a[r, c]), -1, PRIME) % PRIME
            a[rest, c:] = (a[rest, c:] - a[rest, c, None] * pivot) % PRIME
        a[r] = 0
        picked.append(int(r))
    return picked


def _kernel_rows(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """The canonical kernel basis of integer rows ncols wide, as primitive rows,
    and its leading columns, by one ``_int_rref`` of the rows, columns reversed.
    Lemma: there, with primitive rows r_i and pivots c_i, the kernel vector
    s e_f - sum_i (s / r_i[c_i]) r_i[f] e_{c_i} of a free column f (s the lcm
    of the pivot entries it needs) is nonzero only at f and at c_i < f.
    Reversed back, it leads at f with s > 0 and is the only one nonzero at f:
    divided by their gcds, in order of f, they are the kernel's RREF rows."""
    reduced, pivots = _int_rref([r[::-1] for r in rows])
    kernel, free = [], [f for f in range(ncols) if ncols - 1 - f not in pivots]
    for f in free:
        used = [(r, c) for r, c in zip(reduced, pivots) if r[ncols - 1 - f]]
        v, s = [0] * ncols, math.lcm(*(r[c] for r, c in used))
        v[f] = s
        for r, c in used:
            v[ncols - 1 - c] = -r[ncols - 1 - f] * (s // r[c])
        g = math.gcd(*v)
        kernel.append([x // g for x in v])
    return kernel, free


def _unforced_columns(a: np.ndarray) -> np.ndarray:
    """The mask of a's columns left live by singleton presolve: a row with
    exactly one nonzero entry among the live columns, r_c x_c = 0, forces x_c
    to 0 in every kernel vector, so column c dies; repeated until no row is a
    singleton."""
    nz = a != 0
    live = np.ones(a.shape[1], dtype=bool)
    counts = nz.sum(axis=1)
    while np.any(single := counts == 1):
        forced = np.any(nz[single], axis=0) & live
        live &= ~forced
        counts -= nz[:, forced].sum(axis=1)
    return live


def kernel_basis(m: np.ndarray) -> "Subspace":
    """Exact kernel {x : m x = 0} of a 2-D numpy integer array (int64 or
    object dtype of Python ints), in its canonical basis.

    Certificate: every kernel vector is 0 on the columns that singleton
    presolve forces (``_unforced_columns``), so the kernel of m is the kernel
    of its live columns padded with zeros.  Of the rows nonzero there, those
    picked independent modulo ``PRIME`` are eliminated exactly, right to left,
    into their canonical kernel (``_kernel_rows``), which contains the kernel
    of the live columns and is checked to annihilate every row of them, so
    the two are equal.  The check fails only when the live columns' rank over Q
    exceeds their rank mod ``PRIME``; then all of m is eliminated exactly.
    """
    ncols = _int_matrix(m).shape[1]
    a = m[np.any(m != 0, axis=1)]
    live = _unforced_columns(a)
    b = a[:, live]
    b = b[np.any(b != 0, axis=1)]
    rows, free = _kernel_rows(b[independent_rows(b)].tolist() if len(b) else [], b.shape[1])
    kernel = np.zeros((len(rows), ncols), dtype=object)
    kernel[:, live] = reduced = np.array(rows, dtype=object).reshape(len(rows), b.shape[1])
    if np.any(int_einsum("ij,kj->ik", b, reduced)):
        return Subspace._raw(ncols, *_kernel_rows(a.tolist(), ncols))
    return Subspace._raw(ncols, kernel, np.flatnonzero(live)[free].tolist())


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^n held by its canonical (RREF) basis: ``basis``, a
    read-only array of Python ints, is ``den`` times the leading-1 rows and
    ``den`` their least denominator, so basis[i, pivots[i]] == den at the
    leading columns ``pivots``, and ``bound`` is its largest magnitude.  The
    constructor takes the primitive integer rows (each RREF row over its gcd)
    and rejects any other with ValueError: each row has n Python ints with
    gcd 1 and leads with a positive entry, the leading columns strictly
    increase, and no other row is nonzero in a pivot column.
    """

    __slots__ = ("ambient_dim", "basis", "bound", "den", "pivots")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence[int]]):
        rows = tuple(map(tuple, rows))
        nonzero = [[x != 0 for x in row] for row in rows]
        pivots = tuple(nz.index(True) if True in nz else -1 for nz in nonzero)
        if (
            any(len(row) != ambient_dim or set(map(type, row)) - {int} for row in rows)
            or min(pivots, default=0) < 0
            or any(row[p] < 0 or math.gcd(*row) != 1 for row, p in zip(rows, pivots))
            or any(p >= q for p, q in zip(pivots, pivots[1:]))
            or any(sum([nz[p] for p in pivots]) != 1 for nz in nonzero)
        ):
            raise ValueError("rows are not the primitive integer rows of a reduced row echelon form")
        self._hold(ambient_dim, rows, pivots)

    @classmethod
    def _raw(cls, ambient_dim: int, rows, pivots) -> "Subspace":
        sub = object.__new__(cls)
        sub._hold(ambient_dim, rows, pivots)
        return sub

    def _hold(self, ambient_dim: int, rows, pivots):
        """Primitive RREF rows cleared in one step: row i is its leading-1 row
        times its pivot entry, so den is the lcm of the pivot entries."""
        rows = np.array(rows, dtype=object).reshape(len(pivots), ambient_dim)
        lead = rows[np.arange(len(pivots)), list(pivots)]
        self.ambient_dim, self.den, self.pivots = ambient_dim, math.lcm(*lead.tolist()), tuple(pivots)
        self.basis = rows * (self.den // lead)[:, None]
        self.basis.flags.writeable = False
        self.bound = max_abs(self.basis)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and (self.ambient_dim, self.den) == (other.ambient_dim, other.den) and np.array_equal(self.basis, other.basis)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """The span of integer vectors, rows of Python ints or a 2-D numpy
        integer array; any other entry raises ValueError."""
        if not isinstance(vectors, np.ndarray):
            vectors = np.array([tuple(v) for v in vectors] or np.zeros((0, ambient_dim), dtype=int), dtype=object)
        if vectors.shape[1:] != (ambient_dim,) or not is_int_array(vectors):
            raise ValueError("vectors must be a 2-D integer array of the ambient width")
        return cls._raw(ambient_dim, *_int_rref(vectors[np.any(vectors != 0, axis=1)].tolist()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._raw(ambient_dim, np.eye(ambient_dim, dtype=object), range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def coordinates(self, other: "Subspace | np.ndarray") -> Optional[np.ndarray]:
        """x = v[:, pivots], so v = x (basis / den), for other a subspace (v
        its ``basis``) or a 2-D integer array v of the ambient width (else
        ValueError); None unless den v = x basis."""
        v = other.basis if isinstance(other, Subspace) else other
        if not is_int_array(v) or v.shape[1:] != (self.ambient_dim,):
            raise ValueError("rows must be integer vectors of the ambient width")
        x = v[:, list(self.pivots)]
        return x if np.array_equal(int_einsum("ip,pn->in", x, Bounded(self.basis, self.bound)), int_einsum(",in->in", self.den, v)) else None

    def contains(self, other: "Subspace | np.ndarray") -> bool:
        """Whether other lies in S: it has ``coordinates``."""
        return self.coordinates(other) is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, np.concatenate([self.basis, other.basis]))


def int_inverse(a: np.ndarray) -> tuple[np.ndarray, int]:
    """For an invertible square integer array a, x and d with x / d = a^-1
    in lowest terms: [a | I] spans the rows of [I | a^-1], so its canonical
    basis is [d I | x] over d (``Subspace``).  A non-square a, or a pivot in
    I (a is singular), raises ValueError."""
    k, n = _int_matrix(a).shape
    if k != n:
        raise ValueError("int_inverse takes a square array")
    span = Subspace.from_vectors(2 * k, np.concatenate([a, np.eye(k, dtype=a.dtype)], axis=1))
    if span.pivots != tuple(range(k)):
        raise ValueError("vector family is linearly dependent")
    return span.basis[:, k:], span.den


def rank(m: np.ndarray) -> int:
    """Rank over Q of a 2-D numpy integer array."""
    return Subspace.from_vectors(m.shape[1], m).dim


# ---------------------------------------------------------------------------
# signatures and symmetric forms


def signature(m) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix, a
    2-D integer array or a nested sequence of ints.

    Symmetric Gaussian congruence on Python ints with the usual zero-diagonal
    repair: swap in a nonzero diagonal if one exists further down, otherwise
    fold row/column j into the first (which makes the new diagonal entry
    2*m[0][j] != 0).  Eliminating a pivot d leaves |d| times its Schur
    complement, divided by the gcd of its entries: a positive multiple, so the
    inertia is unchanged.
    """
    a = [[int(x) for x in row] for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    n = len(a)
    if any(len(row) != n for row in a) or any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("signature requires a symmetric matrix")
    pos = neg = 0
    while a:
        if not a[0][0]:
            swap = next((j for j in range(1, len(a)) if a[j][j]), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                fold = next((j for j in range(1, len(a)) if a[0][j]), None)
                if fold is None:  # a null row and column
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[fold])]
                for row in a:
                    row[0] += row[fold]
        d, top = a[0][0], a[0][1:]
        if d > 0:
            pos += 1
        else:
            neg += 1
        s, d = (1, d) if d > 0 else (-1, -d)
        rest = [[d * x - s * row[0] * y for x, y in zip(row[1:], top)] for row in a[1:]]
        g = math.gcd(*(x for row in rest for x in row))
        a = [[x // g for x in row] for row in rest] if g > 1 else rest
    return (pos, neg, n - pos - neg)


# What a form fixes with a vector e = u / s alone (``NormForm.unit_facts``): u, s;
# n = u^T G u, so B(e, e) = n / (den s^2); K = 2 u (G u)^T - n I, so K / n fixes e and
# negates e's orthogonal complement (an algebra's conjugation when e is its unit); that
# complement, the kernel of (G u)^T, and the form on its canonical basis; whether it holds e.
UnitFacts = NamedTuple("UnitFacts", [("u", Bounded), ("s", int), ("n", int), ("K", Bounded), ("imaginary", tuple), ("inside", bool)])


class NormForm:
    """A symmetric bilinear form, and the quadratic norm x -> B(x, x) it
    polarizes, held as the integer Gram matrix ``G`` = den * gram and the
    positive ``den`` in lowest terms, ``G`` read-only beside its largest
    magnitude ``gmax``, and one ``UnitFacts`` per vector asked about.  A
    non-square, non-symmetric or non-integer ``G``, or a ``den`` that is not
    a Python int of at least 1 (a bool, numpy integer, float or Fraction),
    raises ValueError."""

    def __init__(self, G: np.ndarray, den: int = 1):
        if G.ndim != 2 or G.shape[0] != G.shape[1] or not is_int_array(G) or type(den) is not int or den < 1:
            raise ValueError("a Gram matrix is a square integer array over a positive denominator")
        if not np.array_equal(G, G.T):
            raise ValueError("Gram matrix must be symmetric")
        G, self.den = lowest_terms(G, den)
        self.G, self.gmax = held(G)
        self._units: dict[tuple, UnitFacts] = {}

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        return signature(self.G)  # den > 0

    @property
    def nondegenerate(self) -> bool:
        return self.signature[2] == 0

    def restricted(self, b: np.ndarray, s: int = 1) -> "NormForm":
        """The form on the span of the rows of b / s, b an integer array, in
        that basis: Gram matrix b G b^T / (den s^2)."""
        return NormForm(int_einsum("ik,kl,jl->ij", b, Bounded(self.G, self.gmax), b), self.den * s * s)

    def unit_facts(self, e: Sequence) -> UnitFacts:
        """The ``UnitFacts`` of the rational vector e, kept per e (``G`` is read-only),
        so algebras sharing the form and their unit share them.  e is read by
        ``int_cleared`` (an inexact entry: TypeError); a length other than the
        form's dimension raises ValueError."""
        if (key := tuple(e)) not in self._units:
            cleared, s = int_cleared(e)
            if cleared.shape != (len(self.G),):
                raise ValueError("a vector of the form's dimension is required")
            u = held(cleared, copy=False)
            gu = int_einsum("ij,j->i", Bounded(self.G, self.gmax), u)
            n = int(int_einsum("i,i->", u, gu))
            # each int64 term is below 2**61 (int_dtype), so their difference fits
            k = int_einsum(",i,j->ij", 2, u, gu) - int_einsum(",ij->ij", n, Bounded(np.eye(len(key), dtype=np.int64), 1))
            sub = kernel_basis(gu.reshape(1, -1))
            self._units[key] = UnitFacts(u, s, n, held(k, copy=False), (sub, self.restricted(sub.basis, sub.den)), sub.contains(u.array.reshape(1, -1)))
        return self._units[key]
