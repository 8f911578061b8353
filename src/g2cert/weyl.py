"""Abstract root systems from Cartan matrices and the Weyl dimension formula.

Conventions: the Cartan matrix entry is C[i][j] = 2 (a_i, a_j) / (a_i, a_i),
so the reflection in the i-th simple root acts on root coordinates by
m -> m - (sum_j C[i][j] m_j) e_i, and the integer symmetrizer d (with d_i
proportional to (a_i, a_i)/2) makes diag(d) . C symmetric positive definite.
The overall scale of the form cancels in every dimension computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import signature

# Cap on the weights a dimension census enumerates, (bound + 1)^rank.  On one
# x86-64 core a weight takes about 0.05 ms for G2 and 1 ms for E8, so a
# census stays under two minutes.
MAX_CENSUS_WEIGHTS = 100_000

# Cap on the rank of a Cartan type, checked before any Cartan matrix or root
# system is built.  A census over every rank up to R grows like R^5 (0.6 s at
# R = 16 and 1.4 s at R = 20 on one x86-64 core), and a dimension census of
# rank 17 or more is over the weight cap anyway, since 2^17 > MAX_CENSUS_WEIGHTS.
MAX_RANK = 16

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


@dataclass(frozen=True)
class CartanType:
    """A simple type: label, rank, Cartan matrix, and integer symmetrizer."""

    label: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    def __post_init__(self):
        c = self.cartan_matrix
        d = self.symmetrizer
        n = self.rank
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


def cartan_type(name: str, rank: int | None = None) -> CartanType:
    """Look up a type from a label like "G2" or a letter plus explicit rank."""
    name = name.strip().upper()
    if not name:
        raise ValueError("empty Cartan type label")
    letter = name[0]
    if len(name) > 1:
        declared = int(name[1:])
        if rank is not None and rank != declared:
            raise ValueError(f"rank {rank} contradicts label {name}")
        rank = declared
    if rank is None:
        raise ValueError("rank required")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the cap of {MAX_RANK}")
    if letter in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[letter]:
            raise ValueError(f"type {letter}{rank} does not exist")
    elif letter in _CLASSICAL_MIN_RANK:
        if rank < _CLASSICAL_MIN_RANK[letter]:
            raise ValueError(
                f"type {letter}{rank} is not used here (too small or a duplicate)"
            )
    else:
        raise ValueError(f"unknown type letter {letter!r}")
    c, d = _cartan_matrix(letter, rank)
    return CartanType(
        label=f"{letter}{rank}",
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in c),
        symmetrizer=tuple(d),
    )


@dataclass(frozen=True)
class RootSystem:
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


@dataclass(frozen=True)
class DimensionCensus:
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
    grid: dict[tuple[int, ...], int] = {}

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == n:
            grid[prefix] = weyl_dimension(rs, prefix)
            return
        for v in range(coeff_bound + 1):
            rec(prefix + (v,))

    rec(())
    monotone = True
    for w, dim in grid.items():
        for i in range(n):
            if w[i] + 1 <= coeff_bound:
                up = w[:i] + (w[i] + 1,) + w[i + 1 :]
                if grid[up] <= dim:
                    monotone = False
    entries = tuple(sorted(grid.items(), key=lambda kv: (kv[1], kv[0])))
    return DimensionCensus(entries=entries, monotone=monotone)


def _drops_to(big: CartanType, small: CartanType) -> bool:
    """Whether small's Cartan matrix is big's without node 0 (B, C, D) or its
    last node (A, E): then small's roots embed in big's, so big is larger."""
    keep = range(1, big.rank) if big.label[0] in "BCD" else range(big.rank - 1)
    return [tuple(big.cartan_matrix[i][j] for j in keep) for i in keep] == list(small.cartan_matrix)


def simple_algebra_census(dim_target: int, max_rank: int = 8) -> list[str]:
    """Labels of all simple complex types of the given dimension, counting
    dimension as rank + 2 * (number of positive roots) from the generated
    root systems; classical duplicates are excluded by rank floors.  Past the
    target, a family's next rank is skipped wherever it ``_drops_to`` the last."""
    if not 1 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must be between 1 and the cap of {MAX_RANK}")
    families = {x: range(floor, max_rank + 1) for x, floor in _CLASSICAL_MIN_RANK.items()}
    families.update({x: [r for r in ranks if r <= max_rank] for x, ranks in _EXCEPTIONAL_RANKS.items()})
    hits = []
    for letter, ranks in families.items():
        above = None  # the last type built or skipped, while it exceeds the target
        for rank in ranks:
            ct = cartan_type(letter, rank)
            if above is not None and _drops_to(ct, above):
                above = ct
                continue
            dim = root_system(ct).algebra_dimension
            if dim == dim_target:
                hits.append(ct.label)
            above = ct if dim > dim_target else None
    return sorted(hits)
