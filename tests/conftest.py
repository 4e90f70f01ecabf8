import random

import pytest
from hypothesis import settings

from flpdl.algebra import bool2, cost_chain, load_algebra, product

# every property draws the same examples on every run (derandomize also
# turns off the example database), and no example fails for being slow
settings.register_profile("flpdl", derandomize=True, deadline=None)
settings.load_profile("flpdl")


@pytest.fixture(scope="session")
def B():
    return bool2()


@pytest.fixture(scope="session")
def C3():
    return cost_chain(3)


@pytest.fixture(scope="session")
def C5():
    return cost_chain(5)


@pytest.fixture(scope="session")
def P6():
    return product(bool2(), cost_chain(3))


@pytest.fixture(scope="session")
def builtins(B, C3, C5, P6):
    return {
        "builtin:bool2": B,
        "builtin:cost:2": cost_chain(2),
        "builtin:cost:3": C3,
        "builtin:cost:5": C5,
        "builtin:cost:8": cost_chain(8),
        "builtin:product(bool2,cost:3)": P6,
    }


@pytest.fixture()
def rng():
    return random.Random(0)
