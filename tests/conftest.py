"""Suite-wide guards."""

import threading

import pytest

from emforge.corpus import ENCODER_THREAD_PREFIX


@pytest.fixture(autouse=True)
def no_encoder_thread_left():
    """Fail any test that leaves a PNG encoder thread alive."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(ENCODER_THREAD_PREFIX)]
    if alive:
        pytest.fail(f"encoder threads still alive after the test: {alive}")
