import random

import numpy as np
import pytest
from hypothesis import settings

from flpdl.algebra import FLAlgebra, bool2, cost_chain, load_algebra, product

# every property draws the same examples on every run (derandomize also
# turns off the example database), and no example fails for being slow
settings.register_profile("flpdl", derandomize=True, deadline=None)
settings.load_profile("flpdl")


def godel_chain(size):
    """The Gödel chain 0 < 1 < ... < size-1: meet and fusion min, join max, a => c
    top if a <= c and c otherwise, one the top."""
    x, y = np.indices((size, size))
    top = size - 1
    imp = np.where(x <= y, top, y)
    return FLAlgebra(size, np.minimum(x, y), np.maximum(x, y), np.minimum(x, y), imp, imp,
                     x <= y, one=top, zero=0, bottom=0, top=top)


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
