"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name != "repro.__main__"]
    assert len(names) > 1
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing, f"__all__ names undefined: {missing}"
