import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from blocktree import reset_counters
from blocktree.parallel import set_threads


@pytest.fixture(autouse=True)
def _clean_state():
    reset_counters()
    yield
    set_threads(1)
