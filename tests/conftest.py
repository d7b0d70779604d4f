"""Fixtures every test module shares: an empty engine cache around each test, and plant.

Every test starts and ends with an empty engine cache (fock.clear_action_cache:
fock's id tables and images, every memo entry and _pair_bracket's memo), so
no image, id or bracket leaks from one test into another.  A test that
clears the cache in the middle of its run does so on purpose.
"""

import pytest

from faults import FAULTS, faulty_code
from jordan_voa import fock


@pytest.fixture(autouse=True)
def empty_engine_cache():
    fock.clear_action_cache()
    yield
    fock.clear_action_cache()


@pytest.fixture
def plant():
    """plant(name) runs the catalogued fault FAULTS[name] until the test ends.

    The cache is emptied as the fault goes in, so nothing the correct code
    cached is read under it; the autouse fixture empties it again after the
    faults are taken out.
    """
    planted = []

    def put(name):
        function, edits, _ = FAULTS[name]
        code = faulty_code(function, edits)
        planted.append((function, function.__code__))
        fock.clear_action_cache()
        function.__code__ = code

    try:
        yield put
    finally:
        for function, code in reversed(planted):
            function.__code__ = code
