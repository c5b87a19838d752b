import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ncgb.words import Alphabet

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # HYPOTHESIS_PROFILE=ci makes property tests derandomized; without it
    # examples stay random.  The tests save no examples (database=None), so
    # both profiles print a reproduction blob for any failure.
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.register_profile("local", print_blob=True)
    settings.load_profile("ci" if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else "local")


@pytest.fixture(scope="session")
def ab():
    """Two-letter alphabet a > b."""
    return Alphabet(["a", "b"])


@pytest.fixture(scope="session")
def xy():
    """Two-letter alphabet x > y."""
    return Alphabet(["x", "y"])
