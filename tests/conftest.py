import pytest

from symprop.proportions import ProportionTable


@pytest.fixture(scope="module")
def table() -> ProportionTable:
    """One memo per test module: rows accumulate within a module only, so no
    test's cost depends on which modules ran before it."""
    return ProportionTable()
