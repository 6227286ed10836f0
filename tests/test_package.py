import importlib
import pkgutil
from pathlib import Path

import pytest

import conewise

MODULES = sorted(m.name for m in pkgutil.iter_modules(conewise.__path__, "conewise."))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", ["conewise", *MODULES])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
