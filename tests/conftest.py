import warnings
from fractions import Fraction

import pytest

# On a failing @given test hypothesis imports its patch writer, whose libcst
# import raises a DeprecationWarning; under filterwarnings = ["error"] that
# aborted the whole session.  Importing it once here, with the warning
# ignored, lets the failure be reported as one failed test.  Without libcst
# (an optional hypothesis extra) the plugin skips the patch writer quietly,
# and so does this.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from plausilearn import make_alphabet, mass_function, simplex_grid


@pytest.fixture
def coin():
    return make_alphabet(["H", "T"])


@pytest.fixture
def urn():
    return make_alphabet(["R", "B", "G"])


@pytest.fixture
def coin_grid(coin):
    return simplex_grid(coin, 10)


@pytest.fixture
def fair_coin(coin):
    return mass_function(coin, [Fraction(1, 2), Fraction(1, 2)])
