import pytest
from hypothesis import settings

from commands import write_files

# every property draws the same examples on every run; a test that needs
# another count sets max_examples alone
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    """``{key: path}`` of the input files ``commands.FILES`` names."""
    return write_files(tmp_path_factory.mktemp("inputs"))
