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
