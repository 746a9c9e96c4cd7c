import importlib
import pkgutil

import pytest

import bogodamp

MODULES = ["bogodamp"] + [f"bogodamp.{m.name}"
                          for m in pkgutil.iter_modules(bogodamp.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
