import sys
from fractions import Fraction

import pytest

from syzdepth import stanley


@pytest.fixture
def search_limit(monkeypatch):
    """set(name, value) patches a limit of the exact search, such as
    stanley.SEARCH_NODE_LIMIT or stanley.POINT_LIMIT, for one test.

    The cache of searched ideal values is keyed on the ideal alone, since the
    limits never change outside tests, so it is emptied whenever a limit is
    set and again after the test.
    """
    def set_limit(name, value):
        monkeypatch.setattr(stanley, name, value)
        stanley._searched_ideal_sdepth.cache_clear()

    yield set_limit
    stanley._searched_ideal_sdepth.cache_clear()


# The modules that may call the Fraction constructor: linalg, for
# coefficients, blocks, for densities, and fractions' own arithmetic.
FRACTION_MAKERS = {"fractions", "syzdepth.linalg", "syzdepth.blocks"}


@pytest.fixture
def fractions_only_from_linalg(monkeypatch):
    """Fail the test where any other module calls the Fraction constructor.

    The vector form of module elements made a Fraction of every
    coefficient, in freemod; with rows the only element form, linalg alone
    makes coefficients.
    """
    real_new = Fraction.__new__

    def watched_new(cls, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__")
        assert caller in FRACTION_MAKERS, f"{caller} made a Fraction"
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", watched_new)
