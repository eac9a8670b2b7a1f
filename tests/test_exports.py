"""The package's public names."""

import importlib
import pkgutil

import fracwkb


def test_every_exported_name_resolves():
    """Every module's `__all__` lists each of its names once, and each resolves."""
    stale = []
    for info in pkgutil.iter_modules(fracwkb.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fracwkb.{info.name}")
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), info.name
        stale += [f"{info.name}.{n}" for n in exported if not hasattr(module, n)]
    assert stale == []
