import os
from pathlib import Path

import pytest

from symprop.proportions import ProportionTable

# pytest imports the package from src (see pyproject.toml); the CLI tests
# that start a subprocess get the same tree through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="module")
def table() -> ProportionTable:
    """One table per test module, for the tests that query ``ProportionTable``
    directly; the public functions build the rows they read.  The row it
    keeps is shared within a module only, so no test's cost depends on which
    modules ran before it."""
    return ProportionTable()
