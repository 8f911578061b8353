import pytest
from hypothesis import settings

from g2cert.linalg import ONE, ZERO
from g2cert.octonion import StructureConstantAlgebra
from g2cert.suite import VerificationContext

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def ctx():
    """Shared canonical constructions; everything on it is immutable."""
    return VerificationContext()


@pytest.fixture(scope="session")
def cayley(ctx):
    return ctx.cayley


@pytest.fixture(scope="session")
def derivations(ctx):
    return ctx.derivations


@pytest.fixture(scope="session")
def so34(ctx):
    return ctx.so34


@pytest.fixture(scope="session")
def natural_rep(ctx):
    return ctx.natural_rep


@pytest.fixture(scope="session")
def matrix_algebra_2x2():
    """Structure constants of the full 2x2 matrix algebra, basis E11,E12,E21,E22."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    mul = [[[ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                mul[i][j][idx[(a, d)]] = ONE
    return StructureConstantAlgebra(
        dim=4, mul=tuple(tuple(tuple(p) for p in row) for row in mul)
    )


@pytest.fixture(scope="session")
def rational_line_algebra():
    """The 1-dimensional unital algebra (the base field itself)."""
    return StructureConstantAlgebra(dim=1, mul=(((ONE,),),), unit_index=0)
