"""Campaign-suite fixtures: a shared-memory leak guard on every test.

Process campaigns stream their records through a
``multiprocessing.shared_memory`` block that the parent must unlink on
every exit path: success, a raised failure, a watchdog kill, a crashed
worker.  The autouse guard checks that after each test in this
directory, so a path that leaks a ``/dev/shm`` segment fails the test
that took it.
"""

import glob

import pytest


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture
def shm_segments():
    """The ``/dev/shm`` segments Python's shared memory has open now."""
    return _segments


@pytest.fixture(autouse=True)
def no_shm_leak():
    before = _segments()
    yield
    leaked = _segments() - before
    assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"
