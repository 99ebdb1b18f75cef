"""Suite-wide guards."""

import getpass
import os
import tempfile
import threading

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from emforge.corpus import ENCODER_THREAD_PREFIX


def _hypothesis_home() -> str:
    """One Hypothesis home per user under the system temp directory.

    Hypothesis writes caches under ./.hypothesis even with database=None,
    and does so while collecting, so the suite points it outside the
    checkout. The directory outlives the session: a fresh one each run
    would rebuild the UTF-8 charmap behind `st.text()`'s default alphabet,
    seconds of work, every time.
    """
    user = os.getuid() if hasattr(os, "getuid") else getpass.getuser()
    home = os.path.join(tempfile.gettempdir(), f"emforge-hypothesis-{user}")
    os.makedirs(home, mode=0o700, exist_ok=True)
    return home


def pytest_configure(config):
    set_hypothesis_home_dir(_hypothesis_home())


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)


@pytest.fixture(autouse=True)
def no_encoder_thread_left():
    """Fail any test that leaves a PNG encoder thread alive."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(ENCODER_THREAD_PREFIX)]
    if alive:
        pytest.fail(f"encoder threads still alive after the test: {alive}")
