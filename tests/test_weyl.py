import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2cert import weyl
from g2cert.linalg import signature
from g2cert.weyl import (
    MAX_CENSUS_DIM,
    MAX_RANK,
    _drops_to,
    cartan_type,
    dimension_census,
    root_system,
    simple_algebra_census,
    weyl_dimension,
)

LABELS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4")


@pytest.fixture(scope="module")
def g2():
    return root_system(cartan_type("G2"))


@pytest.mark.parametrize(
    "label,count",
    [("A1", 1), ("A2", 3), ("B2", 4), ("B3", 9), ("C3", 9), ("G2", 6), ("D4", 12), ("F4", 24)],
)
def test_positive_root_counts(label, count):
    assert len(root_system(cartan_type(label)).positive_roots) == count


@pytest.mark.parametrize(
    "label,dim",
    [("A1", 3), ("A2", 8), ("B3", 21), ("C3", 21), ("G2", 14), ("F4", 52),
     ("E6", 78), ("E7", 133), ("E8", 248)],
)
def test_algebra_dimensions(label, dim):
    assert root_system(cartan_type(label)).algebra_dimension == dim


def test_positive_roots_have_nonnegative_coordinates(g2):
    assert all(all(x >= 0 for x in root) for root in g2.positive_roots)


def test_g2_fundamental_dimensions(g2):
    assert weyl_dimension(g2, (0, 0)) == 1
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14


def test_g2_adjoint_weight_matches_dimension(g2):
    assert weyl_dimension(g2, (0, 1)) == g2.algebra_dimension


def test_a1_dimensions():
    a1 = root_system(cartan_type("A1"))
    assert [weyl_dimension(a1, (k,)) for k in (1, 2, 3)] == [2, 3, 4]


def test_nondominant_rejected(g2):
    with pytest.raises(ValueError):
        weyl_dimension(g2, (-1, 0))


def test_census_g2_small_dimensions(g2):
    census = dimension_census(g2, 10)
    assert census.monotone
    nontrivial_below_14 = [
        (w, d) for w, d in census.entries if any(w) and d < 14
    ]
    assert nontrivial_below_14 == [((1, 0), 7)]
    assert all(d != 6 for _, d in census.entries)


def test_g2_census_of_bound_1_is_complete_below_27(g2):
    """Why the suite's census bound is a constant: the bound-1 grid lists 7
    at (1,0) and 14 at (0,1) and is monotone, and the Weyl dimension strictly
    increases in each coefficient, so every weight outside it, some
    coefficient at least 2, has dimension at least that of (2,0) or (0,2),
    27 and 77.  Every grid of bound >= 1 therefore lists the same dimensions
    below 27 as the suite's bound 10: none is 6, and 7 is the only nontrivial
    one below 14."""
    small = dimension_census(g2, 1)
    assert small.monotone
    assert dict(small.entries)[(1, 0)] == 7 and dict(small.entries)[(0, 1)] == 14
    assert (weyl_dimension(g2, (2, 0)), weyl_dimension(g2, (0, 2))) == (27, 77)
    below_27 = [(w, d) for w, d in dimension_census(g2, 10).entries if d < 27]
    assert below_27 == [(w, d) for w, d in small.entries if d < 27]
    assert [d for _, d in below_27] == [1, 7, 14]


def test_census_sorted_by_dimension(g2):
    census = dimension_census(g2, 3)
    dims = [d for _, d in census.entries]
    assert dims == sorted(dims)


def test_census_a1_small_grid():
    a1 = root_system(cartan_type("A1"))
    census = dimension_census(a1, 3)
    assert census.entries == (((0,), 1), ((1,), 2), ((2,), 3), ((3,), 4))


def test_simple_algebra_census_dim21():
    assert simple_algebra_census(21) == ["B3", "C3"]


FAMILIES = {"A": range(1, MAX_RANK + 1), "B": range(2, MAX_RANK + 1), "C": range(3, MAX_RANK + 1),
            "D": range(4, MAX_RANK + 1), "E": (6, 7, 8), "F": (4,), "G": (2,)}


def _matrix(label: str):
    return cartan_type(label).cartan_matrix


def test_each_rank_drops_to_the_one_below():
    """The premise of the census pruning, along every family up to the cap
    and across families: F4 without its last node is B3, E6 without its first
    is A5, and D5 without its last is A4."""
    for letter, ranks in FAMILIES.items():
        for small, big in zip(ranks, ranks[1:]):
            assert _drops_to(_matrix(f"{letter}{big}"), _matrix(f"{letter}{small}")), (letter, big)
    for big, small in (("F4", "B3"), ("E6", "A5"), ("D5", "A4"), ("G2", "A1")):
        assert _drops_to(_matrix(big), _matrix(small)), (big, small)
    assert not _drops_to(_matrix("B4"), _matrix("C3"))
    assert not _drops_to(_matrix("D5"), _matrix("B4"))
    assert not _drops_to(_matrix("F4"), _matrix("C3"))


# The dimension of each simple type of rank r: sl(r + 1), so(2r + 1), sp(2r), so(2r) and the five exceptional algebras
DIMENSION = {"A": lambda r: r * (r + 2), "B": lambda r: r * (2 * r + 1), "C": lambda r: r * (2 * r + 1),
             "D": lambda r: r * (2 * r - 1), "E": {6: 78, 7: 133, 8: 248}.get, "F": {4: 52}.get, "G": {2: 14}.get}


def test_pruned_census_equals_the_unpruned_reference(monkeypatch):
    """For every target the census accepts, its labels are those of every type
    up to the rank cap whose algebra has that dimension, by the classical
    dimension formulas, which build no root system."""
    monkeypatch.setattr(weyl, "root_system", functools.lru_cache(maxsize=None)(root_system))
    dims = {f"{letter}{rank}": DIMENSION[letter](rank) for letter, ranks in FAMILIES.items() for rank in ranks}
    for target in range(1, MAX_CENSUS_DIM + 1):
        assert simple_algebra_census(target) == sorted(x for x, d in dims.items() if d == target), target


def test_census_stops_each_family_past_the_target(monkeypatch):
    """B3 and C3 reach 21, so B4 and C4 are skipped; F4 drops to B3 and E6 to
    A5, so no exceptional root system but G2's is built; and only the built
    types are validated, each once."""
    weyl.cartan_type.cache_clear()
    validated, built = [], []
    monkeypatch.setattr(weyl, "signature", lambda m: validated.append(len(m)) or signature(m))
    monkeypatch.setattr(weyl, "root_system", lambda ct: built.append(ct.label) or root_system(ct))
    assert simple_algebra_census(21) == ["B3", "C3"]
    assert built == ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]
    assert validated == [int(label[1:]) for label in built]


def test_simple_algebra_census_other_dims():
    assert simple_algebra_census(14) == ["G2"]
    assert simple_algebra_census(4) == []
    assert simple_algebra_census(3) == ["A1"]
    assert simple_algebra_census(8) == ["A2"]


def test_classical_coincidences_excluded():
    with pytest.raises(ValueError):
        cartan_type("C2")  # same algebra as B2
    with pytest.raises(ValueError):
        cartan_type("D3")  # same algebra as A3
    with pytest.raises(ValueError):
        cartan_type("D2")  # not simple
    with pytest.raises(ValueError):
        cartan_type("E9")


@pytest.mark.parametrize("label", ["G", "B", "3", "G-2", "G 2", "G2.0"])
def test_a_label_without_a_rank_is_rejected(label):
    with pytest.raises(ValueError, match="a letter and a rank"):
        cartan_type(label)


def test_one_label_names_one_type():
    assert cartan_type(" b3 ").label == "B3"
    assert cartan_type("b3").cartan_matrix == cartan_type("B3").cartan_matrix
    assert cartan_type("G2") is cartan_type("G2")


@pytest.mark.parametrize("label", LABELS)
def test_trivial_weight_gives_dimension_one(label):
    rs = root_system(cartan_type(label))
    assert weyl_dimension(rs, (0,) * rs.cartan.rank) == 1


@pytest.mark.parametrize("label", LABELS)
def test_adjoint_weight_exists_in_grid(label):
    rs = root_system(cartan_type(label))
    census = dimension_census(rs, 2)
    assert any(d == rs.algebra_dimension for _, d in census.entries)


@given(
    st.sampled_from(LABELS),
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
)
def test_weyl_dimension_is_positive_integer(label, coeffs):
    rs = root_system(cartan_type(label))
    weight = tuple(coeffs[: rs.cartan.rank])
    dim = weyl_dimension(rs, weight)
    assert isinstance(dim, int)
    assert dim >= 1


@given(
    st.sampled_from(("A2", "B2", "G2")),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(0, 1),
)
def test_monotone_under_increments(label, weight, direction):
    rs = root_system(cartan_type(label))
    bumped = tuple(
        w + (1 if i == direction else 0) for i, w in enumerate(weight)
    )
    assert weyl_dimension(rs, bumped) > weyl_dimension(rs, weight)


def test_cartan_validation_rejects_bad_matrices():
    from g2cert.weyl import CartanType

    with pytest.raises(ValueError):
        CartanType(label="X2", rank=2, cartan_matrix=((2, 1), (1, 2)), symmetrizer=(1, 1))
    for cartan in (
        ((2, -2), (-2, 2)),  # affine A1: semidefinite
        ((2, -3), (-3, 2)),  # hyperbolic: indefinite
        ((2, -1, 0), (-1, 2, -2), (0, -2, 2)),  # leading 2x2 minors positive, det -2
    ):
        with pytest.raises(ValueError, match="positive definite"):
            CartanType(label="X", rank=len(cartan), cartan_matrix=cartan, symmetrizer=(1,) * len(cartan))

