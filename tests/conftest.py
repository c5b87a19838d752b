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
    # HYPOTHESIS_PROFILE=ci makes property tests derandomized and prints a
    # reproduction blob for any failure; without it examples stay random
    settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        settings.load_profile("ci")


@pytest.fixture(scope="session")
def ab():
    """Two-letter alphabet a > b."""
    return Alphabet(["a", "b"])


@pytest.fixture(scope="session")
def xy():
    """Two-letter alphabet x > y."""
    return Alphabet(["x", "y"])
