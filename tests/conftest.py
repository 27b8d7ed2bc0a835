"""Test settings shared by every module.

Hypothesis runs a derandomized profile: the same examples on every machine
and every run, no deadline, and no example database. It still caches the
constants it reads from the code under test, when tests are collected;
that cache goes to the system's temporary directory, not the source tree.
"""

import tempfile
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from pma import field

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pma-hypothesis")


@pytest.fixture
def upsilon_builds(monkeypatch):
    """What the solver, the deep pad and the blinding build while a test
    runs, in order: ("inverse", matrix, None) for each inverse an Upsilon
    computes, and ("pack", matrix, depth) for each packing of its columns."""
    log = []
    invert, pack = field.Upsilon.__dict__["inverse"].func, field.Upsilon.packed

    def inverse(ups):
        log.append(("inverse", ups, None))
        return invert(ups)

    def packing(ups, depth):
        if depth not in ups._packed:
            log.append(("pack", ups, depth))
        return pack(ups, depth)

    memo = cached_property(inverse)
    memo.__set_name__(field.Upsilon, "inverse")
    monkeypatch.setattr(field.Upsilon, "inverse", memo)
    monkeypatch.setattr(field.Upsilon, "packed", packing)
    return log
