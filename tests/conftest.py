import pytest
from hypothesis import settings

settings.register_profile("tbsl", deadline=None)
settings.load_profile("tbsl")


@pytest.fixture(scope="session")
def links_200():
    from oracles import all_links

    return all_links(200)


@pytest.fixture(scope="session")
def fibered_keys_200():
    from oracles import fibered_census

    return fibered_census(200)


@pytest.fixture
def fresh_witness_table():
    """Rebuild the witness table's cached rows and ``Ln`` strips in a test that replaces one of
    their builders or must build them itself, and once more after it, so no broken row or strip
    region outlives the test, and no region cached before it hides a broken builder."""
    from tbsl import foliation

    caches = (foliation._table, foliation._ln_row, foliation._ln_strips)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
