import pytest

from symprop.proportions import ProportionTable


@pytest.fixture(scope="module")
def table() -> ProportionTable:
    """One table per test module: the row it keeps is shared within a module
    only, so no test's cost depends on which modules ran before it."""
    return ProportionTable()
