import pytest

from commands import write_files


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    """``{key: path}`` of the input files ``commands.FILES`` names."""
    return write_files(tmp_path_factory.mktemp("inputs"))
