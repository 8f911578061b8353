"""Exact dense linear algebra over the rationals.

Everything downstream (structure constants, Killing forms, kernels of
intertwining constraints) runs on the primitives in this module.  All results
are exact integers or ``fractions.Fraction`` values; no floating point is used.

Every matrix the package stores, takes or returns is a numpy integer array
(int64, or object dtype of Python ints) over one positive denominator: one
``Exact`` value, which carries its largest magnitude, ``bound``, measured
once; constructors reject anything else.  ``int_cleared`` is the one place
rationals become one integer array over one denominator, ``Exact.held``
makes every owner's value but a ``Subspace``'s canonical basis (cleared where
it is made), and ``int_dtype`` turns a bound into int64 (below 2**61, so a
sum of four results fits) or Python ints.  ``int_einsum`` multiplies values
into a value over the product of their dens, and values are equal as
rational arrays, so an identity states its two sides at their own scales.
``int_inverse``, the one exact inverse, reads the canonical basis of
[a | I]; Fractions remain in ``Matrix`` and ``rref``, which only the
benchmark's tracer and their own tests touch.

One exact elimination engine sits behind the public API: a fraction-free
integer row reduction (gcd stripping), which ``Subspace.from_vectors`` runs
once on any family, and ``Subspace.closure``, the one loop that grows a span,
runs once a step.  Its canonical basis, one value over its least
denominator, is the one coordinate system (``Subspace.coordinates``).  A
word-sized prime, ``PRIME``, only decides which rows the engine sees: an
integer matrix's rank over Q is at least its rank mod p (Dixon, Numer. Math.
40, 1982), so rows independent modulo ``PRIME`` are independent over Q
(``independent_rows``, ``ranks_mod_p``), and ``kernel_basis`` eliminates only
the rows so picked and checks its kernel against every row exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

# A prime just below 2**31: pivots and row updates mod PRIME stay inside int64.
PRIME = 2147483647


# Matrix, RrefResult and rref have no caller in src/ and are no test's oracle: bench/tracer.py wraps them by name (ROADMAP item 3).
class Matrix:
    """A matrix with Fraction entries, read by ``int_cleared``, inverted by ``int_inverse``."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(map(tuple, Exact(*int_cleared([list(row) for row in rows])).fractions()))

    def inverse(self) -> "Matrix":
        """d a^-1 = d x / e for self = a / d; ValueError if self is singular (its rows are dependent)."""
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("inverse of non-square matrix")
        a, d = int_cleared(self.rows)
        return Matrix(int_einsum(",ij->ij", d, int_inverse(a.reshape(n, n))).fractions())


# ---------------------------------------------------------------------------
# integer elimination core


def max_abs(a: np.ndarray) -> int:
    """The largest magnitude of an integer array's entries, 0 when it is
    empty; an int64 array's is read off its max and min, as np.abs wraps
    -2**63 to itself."""
    if a.dtype == object:
        return int(np.max(np.abs(a), initial=0))
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def int_dtype(peak: int):
    """int64 when peak, a bound on every entry and partial sum of a result,
    is below 2**61, so a sum of up to four such results fits; Python ints
    (object) otherwise."""
    return np.int64 if peak < (1 << 61) else object


class Exact:
    """The rational array ints / den: ints a numpy integer array (int64, or
    object dtype of Python ints), den a positive Python int, and ``bound``,
    the largest magnitude of ints, measured on its first read unless given.
    Owners hold theirs read-only (``held``), as ``int_einsum`` makes its
    results.  A value unpacks as (ints, den); values are equal when they are
    the same rational array (``differs``)."""

    __slots__ = ("ints", "den", "_bound")

    def __init__(self, ints: np.ndarray, den: int = 1, bound: Optional[int] = None):
        self.ints, self.den, self._bound = ints, den, bound

    @classmethod
    def held(cls, a: np.ndarray, den: int = 1, lowest: bool = False) -> "Exact":
        """a / den as an owner holds it: divided by the gcd of den and every
        entry if lowest, in the dtype ``int_dtype`` gives its bound, and
        read-only, copied if a is writeable (so no caller's array changes)."""
        if lowest and (g := math.gcd(den, *map(int, a.flat))) > 1:
            a, den = a // g, den // g
        bound = max_abs(a)
        a = a.astype(int_dtype(bound), copy=a.flags.writeable)
        a.flags.writeable = False
        return cls(a, den, bound)

    @property
    def bound(self) -> int:
        if self._bound is None:
            self._bound = max_abs(self.ints)
        return self._bound

    def __iter__(self):
        return iter((self.ints, self.den))

    def reshape(self, *shape) -> "Exact":
        return Exact(self.ints.reshape(*shape), self.den, self._bound)

    def transpose(self, *axes) -> "Exact":
        return Exact(self.ints.transpose(*axes), self.den, self._bound)

    def times(self, k: int) -> np.ndarray:
        """ints * k, exactly."""
        return self.ints if k == 1 else self.ints.astype(int_dtype((self.bound or 1) * k), copy=False) * k

    def differs(self, other: "Exact") -> np.ndarray:
        """The mask of entries where self and other differ as rationals:
        ints * other.den against other.ints * den, over their gcd."""
        g = math.gcd(self.den, other.den)
        return self.times(other.den // g) != other.times(self.den // g)

    def __eq__(self, other) -> bool:
        return isinstance(other, Exact) and self.ints.shape == other.ints.shape and not self.differs(other).any()

    def fractions(self):
        """The entries as Fractions, nested as ``tolist`` nests them."""
        return np.array([Fraction(int(x), self.den) for x in self.ints.flat], dtype=object).reshape(self.ints.shape).tolist()


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


# spec -> the (operand, axis) of each letter it sums over, found once per spec
_PLANS: dict[str, list[tuple[int, int]]] = {}


def int_einsum(spec: str, *operands) -> Exact:
    """np.einsum over exact operands, exactly, as a read-only value over the
    product of their dens: ``Exact`` values and Python ints, whose bounds are
    read, and integer arrays or nested lists of ints (over 1), which are
    scanned.  Every entry and partial sum is at most the product of the
    bounds times the number of summed terms; ``int_dtype`` picks the dtype
    from that, and an array that has it is not copied."""
    if (plan := _PLANS.get(spec)) is None:
        inputs, output = spec.split("->")
        groups = inputs.split(",")
        plan = _PLANS[spec] = [next((i, g.index(x)) for i, g in enumerate(groups) if x in g) for x in set(inputs) - set(output) - {","}]
    arrays, peak, den = [], 1, 1
    for op in operands:
        if isinstance(op, Exact):
            a, bound, den = op.ints, op.bound, den * op.den
        elif isinstance(op, int):
            a, bound = op, abs(op)
        else:
            a = op if isinstance(op, np.ndarray) else np.array(op, dtype=object)
            bound = max_abs(a)
        arrays.append(a)
        peak *= bound or 1
    dtype = int_dtype(peak * math.prod(arrays[i].shape[k] for i, k in plan))
    out = np.asarray(np.einsum(spec, *(a if isinstance(a, int) else a.astype(dtype, copy=False) for a in arrays)))
    out.flags.writeable = False
    return Exact(out, den)


def _int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Exact RREF of an integer matrix, as (rows, pivot columns).

    Fraction-free two-row combinations, each divided by its gcd; only the
    pivot rows come out, each primitive with a positive pivot, so row i is a
    positive multiple of the leading-1 RREF row of pivots[i].
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
            if (g := math.gcd(*new)) > 1:
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
    if not is_int_array(m) or m.ndim != 2:
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

    Fraction-free forward elimination of a's columns mod ``PRIME``, as in
    ``ranks_mod_p``: column c picks the first row nonzero in it, turns each
    other row nonzero there into piv * row - row[c] * pivot_row (columns >= c
    only; every row is zero left of c) and zeroes the picked row.  Each update
    scales a row by a unit, so a row is cleared only by rows picked above it:
    it is picked exactly when it is independent of them."""
    a = np.mod(a, PRIME).astype(np.int64)
    picked = []
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[:, c])
        if not nz.size:
            continue
        r, rest = nz[0], nz[1:]
        if rest.size:  # products below PRIME**2 < 2**62
            a[rest, c:] = (a[r, c] * a[rest, c:] - a[rest, c, None] * a[r, c:]) % PRIME
        a[r] = 0
        picked.append(int(r))
    return picked


def _kernel_rows(rows: list[list[int]], ncols: int) -> tuple[np.ndarray, list[int]]:
    """The canonical kernel basis of integer rows ncols wide, primitive rows
    of object dtype, and its leading columns, by one ``_int_rref``, columns reversed.
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
    return np.array(kernel, dtype=object).reshape(len(free), ncols), free


def _unforced_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of m's columns left live by singleton presolve, and each row's
    count of nonzero entries on them (0 or at least 2): a row with exactly one
    nonzero entry among the live columns, r_c x_c = 0, forces x_c to 0 in
    every kernel vector, so column c dies; repeated while a row is a singleton."""
    nz = m != 0
    live = np.ones(m.shape[1], dtype=bool)
    counts = nz.sum(axis=1)
    while np.any(single := counts == 1):
        forced = np.any(nz[single], axis=0) & live
        live &= ~forced
        counts -= nz[:, forced].sum(axis=1)
    return live, counts


def kernel_basis(m: np.ndarray) -> "Subspace":
    """Exact kernel {x : m x = 0} of a 2-D numpy integer array (int64 or
    object dtype of Python ints), in its canonical basis.

    Certificate: every kernel vector is 0 on the columns that singleton
    presolve forces (``_unforced_columns``), so the kernel of m is the kernel
    of its live block, the rows nonzero on the live columns read on them,
    padded with zeros; that block is sliced from m in one pass.  Its rows
    picked independent modulo ``PRIME`` are eliminated exactly, right to left,
    into their canonical kernel (``_kernel_rows``), which contains the kernel
    of the block and is checked to annihilate every row of it, so the two are
    equal.  The check fails only when the block's rank over Q exceeds its rank
    mod ``PRIME``; then every row of the block is eliminated exactly.
    """
    ncols = _int_matrix(m).shape[1]
    live, counts = _unforced_columns(m)
    b = m[np.ix_(counts > 0, live)]
    reduced, free = _kernel_rows(b[independent_rows(b)].tolist() if len(b) else [], b.shape[1])
    if np.any(int_einsum("ij,kj->ik", b, reduced).ints):
        reduced, free = _kernel_rows(b.tolist(), b.shape[1])
    kernel = np.zeros((len(free), ncols), dtype=object)
    kernel[:, live] = reduced
    return Subspace._raw(ncols, kernel, np.flatnonzero(live)[free].tolist())


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^n held by its canonical (RREF) basis, the leading-1
    rows as one value ``canonical``: ``basis``, a read-only array of Python
    ints, over ``den``, their least denominator, so basis[i, pivots[i]] ==
    den at the leading columns ``pivots``.  The constructor takes the
    primitive integer rows (each RREF row over its gcd) and rejects any other
    with ValueError: each row has n Python ints with gcd 1 and leads with a
    positive entry, the leading columns strictly increase, and no other row
    is nonzero in a pivot column.
    """

    __slots__ = ("ambient_dim", "canonical", "pivots")
    basis = property(lambda self: self.canonical.ints)
    den = property(lambda self: self.canonical.den)

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
        den = math.lcm(*lead.tolist())
        basis = rows * (den // lead)[:, None]
        basis.flags.writeable = False
        self.ambient_dim, self.canonical, self.pivots = ambient_dim, Exact(basis, den), tuple(pivots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim and self.canonical == other.canonical

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

    def coordinates(self, other: "Subspace | Exact | np.ndarray") -> Optional[Exact]:
        """The value x = v[:, pivots] over v's den, for v the rows of other: a
        subspace's ``canonical``, a value, or a 2-D integer array (over 1) of
        the ambient width (else ValueError); None unless v = x ``canonical``."""
        v = other.canonical if isinstance(other, Subspace) else other if isinstance(other, Exact) else Exact(other)
        if not is_int_array(v.ints) or v.ints.shape[1:] != (self.ambient_dim,):
            raise ValueError("rows must be integer vectors of the ambient width")
        x = Exact(v.ints[:, list(self.pivots)], v.den)
        return x if int_einsum("ip,pn->in", x, self.canonical) == v else None

    def contains(self, other: "Subspace | np.ndarray") -> bool:
        """Whether other lies in S: it has ``coordinates``."""
        return self.coordinates(other) is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, np.concatenate([self.basis, other.basis]))

    def closure(self, images) -> "Subspace":
        """The smallest subspace T containing S with images(b) in T for T's
        basis b, images mapping a basis to a 2-D integer array of rows of the
        ambient width: T <- span(b, images(b)) until the dimension stops
        growing.  A zero S (no basis rows to take images of) or a full S is
        T at once."""
        span = self
        while 0 < span.dim < span.ambient_dim:
            grown = Subspace.from_vectors(span.ambient_dim, np.concatenate([span.basis, images(span.basis)]))
            if grown.dim == span.dim:
                break
            span = grown
        return span


def int_inverse(a: np.ndarray) -> Exact:
    """For an invertible square integer array a, the value x / d = a^-1 in
    lowest terms: [a | I] spans the rows of [I | a^-1], so its canonical
    basis is [d I | x] over d (``Subspace``).  A non-square a, or a pivot in
    I (a is singular), raises ValueError."""
    k, n = _int_matrix(a).shape
    if k != n:
        raise ValueError("int_inverse takes a square array")
    span = Subspace.from_vectors(2 * k, np.concatenate([a, np.eye(k, dtype=a.dtype)], axis=1))
    if span.pivots != tuple(range(k)):
        raise ValueError("vector family is linearly dependent")
    return Exact(span.basis[:, k:], span.den)


def rank(m: np.ndarray) -> int:
    """Rank over Q of a 2-D numpy integer array; TypeError for any other input."""
    return Subspace.from_vectors(_int_matrix(m).shape[1], m).dim


# ---------------------------------------------------------------------------
# signatures and symmetric forms


def signature(m) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix, a
    2-D integer array or a nested sequence of ints; an entry that is not an
    int or a numpy integer raises TypeError (``int`` would truncate it).

    Symmetric Gaussian congruence on Python ints with the usual zero-diagonal
    repair: swap in a nonzero diagonal if one exists further down, otherwise
    fold row/column j into the first (which makes the new diagonal entry
    2*m[0][j] != 0).  Eliminating a pivot d leaves |d| times its Schur
    complement, divided by the gcd of its entries: a positive multiple, so the
    inertia is unchanged.
    """
    rows = m.tolist() if isinstance(m, np.ndarray) else m
    if not all(isinstance(x, (int, np.integer)) for row in rows for x in row):
        raise TypeError("a signature takes int or numpy integer entries")
    a = [[int(x) for x in row] for row in rows]
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


# What a form fixes with a vector e alone (``NormForm.unit_facts``): e as one value u; its
# norm n = B(e, e); K = 2 e B(e, .) - n I, so K / n fixes e and negates e's orthogonal
# complement (an algebra's conjugation when e is its unit); that complement, the kernel of
# B(e, .), and the form on its canonical basis; whether it holds e.
UnitFacts = NamedTuple("UnitFacts", [("u", Exact), ("n", Exact), ("K", Exact), ("imaginary", tuple), ("inside", bool)])


class NormForm:
    """A symmetric bilinear form, and the quadratic norm x -> B(x, x) it
    polarizes, held as its Gram matrix, one value ``gram`` = G / den in
    lowest terms, and one ``UnitFacts`` per vector asked about.  A
    non-square, non-symmetric or non-integer ``G``, or a ``den`` that is not
    a Python int of at least 1 (a bool, numpy integer, float or Fraction),
    raises ValueError."""

    G = property(lambda self: self.gram.ints)
    den = property(lambda self: self.gram.den)

    def __init__(self, G: np.ndarray, den: int = 1):
        if G.ndim != 2 or G.shape[0] != G.shape[1] or not is_int_array(G) or type(den) is not int or den < 1:
            raise ValueError("a Gram matrix is a square integer array over a positive denominator")
        if not np.array_equal(G, G.T):
            raise ValueError("Gram matrix must be symmetric")
        self.gram, self._units = Exact.held(G, den, lowest=True), {}

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        return signature(self.G)  # den > 0

    @property
    def nondegenerate(self) -> bool:
        return self.signature[2] == 0

    def restricted(self, b: np.ndarray, s: int = 1) -> "NormForm":
        """The form on the span of the rows of b / s, b an integer array, in
        that basis."""
        basis = Exact(b, s)
        return NormForm(*int_einsum("ik,kl,jl->ij", basis, self.gram, basis))

    def unit_facts(self, e: Sequence) -> UnitFacts:
        """The ``UnitFacts`` of the rational vector e, kept per e (``gram`` is read-only),
        so algebras sharing the form and their unit share them.  e is read by
        ``int_cleared`` (an inexact entry: TypeError); a length other than the
        form's dimension raises ValueError."""
        if (key := tuple(e)) not in self._units:
            u = Exact.held(*int_cleared(e))
            if u.ints.shape != (len(self.G),):
                raise ValueError("a vector of the form's dimension is required")
            gu = int_einsum("ij,j->i", self.gram, u)
            n = int_einsum("i,i->", u, gu)
            # both over n's den; each int64 term is below 2**61 (int_dtype), so their difference fits
            k = int_einsum(",i,j->ij", 2, u, gu).ints - int_einsum(",ij->ij", n, np.eye(len(key), dtype=np.int64)).ints
            sub = kernel_basis(gu.ints.reshape(1, -1))
            self._units[key] = UnitFacts(u, n, Exact.held(k, n.den), (sub, self.restricted(*sub.canonical)), sub.contains(u.ints.reshape(1, -1)))
        return self._units[key]
