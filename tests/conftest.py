import errno
import os

import pytest

from spheremin import make_catenoid_fixture, make_double_vase, make_vase, mesh


@pytest.fixture(scope="session")
def catenoid():
    return make_catenoid_fixture()


@pytest.fixture(scope="session")
def vase2():
    return make_vase(2, 0.5)


@pytest.fixture(scope="session")
def vase3():
    return make_vase(3, 0.5)


@pytest.fixture(scope="session")
def dvase2():
    return make_double_vase(2, 0.5)


class HalfWrite:
    """A file whose every write puts half its data on disk, then raises ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """`full_disk(*suffixes)` makes the files that `mesh.open_output` opens
    at a path ending with one of the suffixes fill the disk part-way."""
    def fill(*suffixes):
        def open_full(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return HalfWrite(fh) if str(path).endswith(suffixes) else fh

        monkeypatch.setattr(mesh, "open", open_full, raising=False)
    return fill
