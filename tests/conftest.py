"""Fixtures shared by the test modules."""

import os

import pytest

import coreclust


@pytest.fixture
def child_env():
    """The environment for a child Python process: this process's own, with
    the package under test first on PYTHONPATH, so the child imports the same
    coreclust whatever its working directory (the console script exists only
    after an install)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coreclust.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
