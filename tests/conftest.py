import time

import pytest

from flashlife import estimation
from flashlife.allocation import PolicyConfig, simulate_lifetime
from flashlife.channel import default_device_params


@pytest.fixture(autouse=True)
def no_stored_seed_tables():
    """Every test starts and ends without stored wear-fit seed tables, so a
    test that patches the bin-probability kernel neither reads a table that
    another test's kernel built nor leaves its own behind."""
    estimation._seed_table.cache_clear()
    yield
    estimation._seed_table.cache_clear()


@pytest.fixture(autouse=True, scope="session")
def child_runtime_warnings_fail():
    """Child interpreters the tests start copy os.environ, so with this
    they too turn every RuntimeWarning into an error, as pyproject.toml's
    filterwarnings does in this process. Session-wide, so that it reaches
    the children of module-scoped fixtures as well."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        yield


@pytest.fixture(scope="session")
def params():
    return default_device_params()


class TimedRun:
    def __init__(self, result, seconds):
        self.result = result
        self.seconds = seconds


@pytest.fixture(scope="session")
def fixed_run(params):
    t0 = time.perf_counter()
    result = simulate_lifetime(params, PolicyConfig(mode="fixed"))
    return TimedRun(result, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def dynamic_run(params):
    t0 = time.perf_counter()
    result = simulate_lifetime(params, PolicyConfig(mode="dynamic"))
    return TimedRun(result, time.perf_counter() - t0)
