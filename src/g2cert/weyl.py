"""Abstract root systems from Cartan matrices and the Weyl dimension formula.

Conventions: the Cartan matrix entry is C[i][j] = 2 (a_i, a_j) / (a_i, a_i),
so the reflection in the i-th simple root acts on root coordinates by
m -> m - (sum_j C[i][j] m_j) e_i, and the integer symmetrizer d (with d_i
proportional to (a_i, a_i)/2) makes diag(d) . C symmetric positive definite.
The overall scale of the form cancels in every dimension computed here.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Sequence

from .linalg import signature

# Cap on the weights a dimension census enumerates, (bound + 1)^rank.  On one
# x86-64 core a weight takes about 0.05 ms for G2 and 1 ms for E8, so a
# census stays under two minutes.
MAX_CENSUS_WEIGHTS = 100_000

# Cap on the rank of a Cartan type, checked before any Cartan matrix or root
# system is built.  A dimension census of rank 17 or more is over the weight
# cap anyway, since 2^17 > MAX_CENSUS_WEIGHTS.
MAX_RANK = 16

# Cap on the dimension simple_algebra_census decides, checked before any
# Cartan matrix is built.  A_r, of dimension r(r + 2), is the smallest type of
# rank r, so every type of rank above MAX_RANK exceeds it.
MAX_CENSUS_DIM = MAX_RANK * (MAX_RANK + 2)

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}
# floors that remove the classical coincidences B2=C2, A3=D3, D2=A1+A1
_CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}


def _chain(n: int) -> list[list[int]]:
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = c[i + 1][i] = -1
    return c


def _cartan_matrix(letter: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and integer symmetrizer for a simple type."""
    if letter == "A":
        return _chain(rank), [1] * rank
    if letter == "B":  # last simple root short
        c = _chain(rank)
        c[rank - 1][rank - 2] = -2
        return c, [2] * (rank - 1) + [1]
    if letter == "C":  # last simple root long
        c = _chain(rank)
        c[rank - 2][rank - 1] = -2
        return c, [1] * (rank - 1) + [2]
    if letter == "D":
        c = _chain(rank - 1)
        for row in c:
            row.append(0)
        c.append([0] * rank)
        c[rank - 1][rank - 1] = 2
        c[rank - 1][rank - 3] = c[rank - 3][rank - 1] = -1
        return c, [1] * rank
    if letter == "E":
        # node 0 attached to node 2 of the chain 1-2-3-...-(rank-1)
        c = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            c[i][i] = 2
        for i in range(1, rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        c[0][3] = c[3][0] = -1
        return c, [1] * rank
    if letter == "F":
        c = _chain(4)
        c[1][2], c[2][1] = -1, -2  # bond from long pair to short pair
        return c, [2, 2, 1, 1]
    if letter == "G":
        return [[2, -3], [-1, 2]], [1, 3]
    raise ValueError(f"unknown type letter {letter!r}")


class CartanType:
    """A simple type: label, rank, Cartan matrix, and integer symmetrizer,
    validated at construction."""

    __slots__ = ("label", "rank", "cartan_matrix", "symmetrizer")

    def __init__(self, label: str, rank: int, cartan_matrix: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...]):
        c, d, n = cartan_matrix, symmetrizer, rank
        if len(c) != n or any(len(row) != n for row in c):
            raise ValueError("Cartan matrix has wrong shape")
        if any(c[i][i] != 2 for i in range(n)):
            raise ValueError("Cartan matrix diagonal must be 2")
        if any(c[i][j] > 0 for i in range(n) for j in range(n) if i != j):
            raise ValueError("off-diagonal Cartan entries must be <= 0")
        if any(x <= 0 for x in d):
            raise ValueError("symmetrizer must be positive")
        sym = [[d[i] * c[i][j] for j in range(n)] for i in range(n)]
        if any(sym[i][j] != sym[j][i] for i in range(n) for j in range(n)):
            raise ValueError("symmetrizer does not symmetrize the Cartan matrix")
        if signature(sym) != (n, 0, 0):
            raise ValueError("symmetrized Cartan matrix is not positive definite")
        self.label, self.rank, self.cartan_matrix, self.symmetrizer = label, rank, cartan_matrix, symmetrizer


@functools.lru_cache(maxsize=None)
def cartan_type(label: str) -> CartanType:
    """The type of a label like "G2" or "b3", built and validated once per
    process for each label."""
    name = label.strip().upper()
    if not name:
        raise ValueError("empty Cartan type label")
    letter, digits = name[0], name[1:]
    if not digits.isdecimal():
        raise ValueError(f"Cartan type label {label!r} is not a letter and a rank, like G2")
    rank = int(digits)
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the cap of {MAX_RANK}")
    if letter in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[letter]:
            raise ValueError(f"type {letter}{rank} does not exist")
    elif letter in _CLASSICAL_MIN_RANK:
        if rank < _CLASSICAL_MIN_RANK[letter]:
            raise ValueError(f"type {letter}{rank} is not used here (too small or a duplicate)")
    else:
        raise ValueError(f"unknown type letter {letter!r}")
    c, d = _cartan_matrix(letter, rank)
    return CartanType(
        label=f"{letter}{rank}",
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in c),
        symmetrizer=tuple(d),
    )


class RootSystem(NamedTuple):
    """Positive roots in simple-root coordinates."""

    cartan: CartanType
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def algebra_dimension(self) -> int:
        return self.cartan.rank + 2 * len(self.positive_roots)


def root_system(ct: CartanType) -> RootSystem:
    """Generate all roots by closing the simple roots under simple reflections;
    positive roots are those with nonnegative coordinates."""
    n = ct.rank
    c = ct.cartan_matrix
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(n):
                pairing = sum(c[i][j] * m[j] for j in range(n))
                refl = tuple(
                    m[j] - pairing if j == i else m[j] for j in range(n)
                )
                if refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        frontier = nxt
    positive = sorted(m for m in roots if all(x >= 0 for x in m))
    assert len(positive) * 2 == len(roots)
    assert all(any(x > 0 for x in m) for m in positive)
    return RootSystem(cartan=ct, positive_roots=tuple(positive))


def weyl_dimension(rs: RootSystem, weight: Sequence[int]) -> int:
    """dim of the irreducible with the given dominant highest weight:
    prod over positive roots of (weight+rho, a) / (rho, a), one exact division."""
    n = rs.cartan.rank
    if len(weight) != n:
        raise ValueError("weight has wrong length")
    if any(x < 0 for x in weight):
        raise ValueError("weight must be dominant (componentwise >= 0)")
    d = rs.cartan.symmetrizer
    top = bot = 1
    for root in rs.positive_roots:
        top *= sum(m * d[j] * (weight[j] + 1) for j, m in enumerate(root))
        bot *= sum(m * d[j] for j, m in enumerate(root))
    dim, rest = divmod(top, bot)
    assert rest == 0 and dim > 0
    return dim


class DimensionCensus(NamedTuple):
    entries: tuple[tuple[tuple[int, ...], int], ...]  # (weight, dim), sorted
    monotone: bool


def dimension_census(rs: RootSystem, coeff_bound: int) -> DimensionCensus:
    """All dominant weights with coefficients <= coeff_bound and their
    dimensions, sorted by (dim, weight); also checks that the dimension
    strictly increases under every unit coefficient increment inside the
    grid, which is what justifies using a finite bound at all."""
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be >= 1")
    n = rs.cartan.rank
    if (coeff_bound + 1) ** n > MAX_CENSUS_WEIGHTS:
        raise ValueError(
            f"(bound + 1)^rank = {coeff_bound + 1}^{n} weights exceeds "
            f"the cap of {MAX_CENSUS_WEIGHTS}"
        )
    grid = {w: weyl_dimension(rs, w) for w in itertools.product(range(coeff_bound + 1), repeat=n)}
    monotone = all(
        grid[w[:i] + (w[i] + 1,) + w[i + 1 :]] > dim
        for w, dim in grid.items() for i in range(n) if w[i] < coeff_bound
    )
    entries = tuple(sorted(grid.items(), key=lambda kv: (kv[1], kv[0])))
    return DimensionCensus(entries=entries, monotone=monotone)


def _drops_to(big, small) -> bool:
    """Whether the Cartan matrix small is big's without its first or its last
    node.  A subset of simple roots spans a root subsystem (Humphreys 1972,
    Ch. III), so then small's roots embed in big's and big is larger."""
    small = [list(row) for row in small]
    return any([list(row[keep]) for row in big[keep]] == small for keep in (slice(1, None), slice(len(big) - 1)))


def simple_algebra_census(dim_target: int) -> list[str]:
    """Labels of all simple complex types of the given dimension, 1 to
    ``MAX_CENSUS_DIM`` (else ValueError), counting dimension as rank + 2 *
    (number of positive roots) from the generated root systems; classical
    duplicates are excluded by rank floors.  Each family runs upward in rank.
    A type that ``_drops_to`` one of dimension at least the target, in any
    family, exceeds it: its roots are not built, nor is its ``CartanType``
    validated.  Its family ends there, as each later type of the family drops
    to the one before it and so exceeds the target too.  Every family reaches
    the target by rank MAX_RANK, as A_r is the smallest type of rank r."""
    if not 1 <= dim_target <= MAX_CENSUS_DIM:
        raise ValueError(f"dimension {dim_target} must be between 1 and the cap of {MAX_CENSUS_DIM}")
    families = {x: itertools.count(floor) for x, floor in _CLASSICAL_MIN_RANK.items()} | _EXCEPTIONAL_RANKS
    hits, reached = [], {}  # reached: rank -> Cartan matrices of the types of dimension >= the target
    for letter, ranks in families.items():
        for rank in ranks:
            c, _ = _cartan_matrix(letter, rank)
            if any(_drops_to(c, small) for small in reached.get(rank - 1, ())):
                reached.setdefault(rank, []).append(c)
                break
            dim = root_system(cartan_type(f"{letter}{rank}")).algebra_dimension
            if dim == dim_target:
                hits.append(f"{letter}{rank}")
            if dim >= dim_target:
                reached.setdefault(rank, []).append(c)
    return sorted(hits)
