import pathlib
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hallq import RepCategory, parse_quiver

DATA = pathlib.Path(__file__).parent / "data"

# The same property examples on every run, and no example database.
settings.register_profile("hallq", derandomize=True, database=None)
settings.load_profile("hallq")
# hypothesis still caches the constants it reads from source files; keep
# that cache out of the checkout (`.hypothesis/` by default)
set_hypothesis_home_dir(pathlib.Path(tempfile.gettempdir()) / "hallq-hypothesis")


def load(name: str):
    return parse_quiver((DATA / f"{name}.quiver").read_text())


@pytest.fixture(scope="session")
def a1():
    return RepCategory(load("a1"))


@pytest.fixture(scope="session")
def a1p3():
    return RepCategory(load("a1p3"))


@pytest.fixture(scope="session")
def a2():
    return RepCategory(load("a2"))


@pytest.fixture(scope="session")
def l2():
    return RepCategory(load("l2"))


@pytest.fixture(scope="session")
def l2m2():
    return RepCategory(load("l2m2"))


@pytest.fixture(scope="session")
def l2m4():
    return RepCategory(load("l2m4"))


@pytest.fixture(scope="session")
def kronecker():
    return RepCategory(load("kronecker"))


@pytest.fixture(scope="session")
def l3():
    return RepCategory(load("l3"))


@pytest.fixture(scope="session")
def a3():
    return RepCategory(load("a3"))


@pytest.fixture(scope="session")
def mixed():
    return RepCategory(load("mixed"))
