"""The package's public names."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import fracwkb


def _modules():
    """(name, module) for every module of the package but `__main__`, which
    runs the CLI on import."""
    for info in pkgutil.iter_modules(fracwkb.__path__):
        if info.name != "__main__":
            yield info.name, importlib.import_module(f"fracwkb.{info.name}")


def test_every_exported_name_resolves():
    """Every module's `__all__` lists each of its names once, and each resolves."""
    stale = []
    for name, module in _modules():
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), name
        stale += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
    assert stale == []


# exported functions that no package code calls yet, each with its reason
UNCALLED = {
    "measure_bernstein": "ROADMAP item 12 CLI row",
    "operator_norm_estimate": "ROADMAP item 12 CLI row",
}


class _References(ast.NodeVisitor):
    """The names a module reads, as variables or attributes, outside the
    body of the top-level function of the same name."""

    def __init__(self):
        self.names, self._own = set(), None

    def visit_Module(self, node):
        for stmt in node.body:
            self._own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            self.visit(stmt)

    def _read(self, name):
        if name != self._own:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def test_every_exported_function_has_a_caller():
    """Each function in a module's `__all__` is read somewhere in the package
    or the benchmark, not only by tests; imports and docstrings do not count."""
    root = pathlib.Path(__file__).resolve().parents[1]
    refs = _References()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "benchmarks").rglob("*.py")):
        if not path.name.startswith("test_"):
            refs.visit(ast.parse(path.read_text(), filename=str(path)))
    uncalled = [name for _, module in _modules() for name in getattr(module, "__all__", [])
                if inspect.isfunction(getattr(module, name)) and name not in refs.names]
    assert sorted(uncalled) == sorted(UNCALLED)
