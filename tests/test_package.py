"""The package's lazy export table: each public name loads its module on
first use, and `dir` and attribute access see what an eager package would."""

import importlib
import subprocess
import sys

import pytest

import coreclust


def test_every_export_is_its_modules_object():
    wrong = [name for name in coreclust.__all__
             if getattr(coreclust, name) is not getattr(importlib.import_module(
                 f"coreclust.{coreclust._MODULE_OF[name]}"), name)]
    assert wrong == []


def test_dir_lists_every_export_and_submodule():
    listed = dir(coreclust)
    assert set(coreclust.__all__) <= set(listed)
    assert set(coreclust._EXPORTS) <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'iid_sample'"):
        coreclust.iid_sample


def test_a_submodule_resolves_after_a_bare_import(child_env):
    # in a fresh process nothing has imported coreclust.geometry yet, so the
    # attribute comes from the package's __getattr__
    code = ("import sys, coreclust\n"
            "assert 'coreclust.geometry' not in sys.modules\n"
            "print(coreclust.geometry.__name__, coreclust.geometry.cost is "
            "coreclust.cost)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "coreclust.geometry True\n"
