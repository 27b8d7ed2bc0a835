"""Test settings shared by every module.

Hypothesis runs a derandomized profile: the same examples on every machine
and every run, no deadline, and no example database. It still caches the
constants it reads from the code under test, when tests are collected;
that cache goes to the system's temporary directory, not the source tree.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pma-hypothesis")
