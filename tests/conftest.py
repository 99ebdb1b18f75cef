"""Suite-wide guards."""

import tempfile
import threading

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from emforge.corpus import ENCODER_THREAD_PREFIX

# Hypothesis writes a cache under ./.hypothesis even with database=None, and
# does so while collecting: point it at a temporary directory for the session.
_hypothesis_home = None


def pytest_configure(config):
    global _hypothesis_home
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _hypothesis_home.cleanup()


@pytest.fixture(autouse=True)
def no_encoder_thread_left():
    """Fail any test that leaves a PNG encoder thread alive."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(ENCODER_THREAD_PREFIX)]
    if alive:
        pytest.fail(f"encoder threads still alive after the test: {alive}")
