"""Source hygiene: every module-level import in the package is used, no
module reaches into another module's private (single-underscore) names, and
no public function or class exists only for the tests to call, every
exception class survives a pickle round trip, and no source line is longer
than 100 characters.

``__init__.py`` is exempt from the import check because its imports are the
package's re-exports.
"""

import ast
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsmfem"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_MODULES = {p.stem for p in MODULES}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_package_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_line_over_100_characters():
    long = [f"{path.name}:{i}" for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, f"lines over 100 characters: {long}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_of_other_modules(path):
    """Neither ``from .mod import _name`` nor ``mod._name`` on a package
    module imported as ``from . import mod``, anywhere in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    reaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None and alias.name in PACKAGE_MODULES:
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    reaches.append(f"{node.module}.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            reaches.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    assert not reaches, f"{path.name}: private names of other modules {reaches}"


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(nodes) -> set[str]:
    """Names used under ``nodes``: bare names, names imported from a package
    module, and ``mod.name`` on a package module."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                out.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in PACKAGE_MODULES):
                out.add(node.attr)
    return out


def test_no_public_function_only_tests_call():
    """Every public module-level function or class is re-exported by
    ``__init__.py`` or used by package code: another module, or its own
    module outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    exported = _referenced_names([ast.parse((PACKAGE / "__init__.py").read_text())])
    unused = []
    for stem, tree in trees.items():
        elsewhere = _referenced_names(t for s, t in trees.items() if s != stem)
        for definition in _public_definitions(tree):
            own = _referenced_names(node for node in tree.body if node is not definition)
            if definition.name not in exported | elsewhere | own:
                unused.append(f"{stem}.{definition.name} (line {definition.lineno})")
    assert not unused, f"public names that no package code uses: {unused}"


# constructor arguments of the exception classes whose fields are not a message
_EXCEPTION_ARGS = {"InstabilityError": (64, 1.0, 0.1, 1)}


def _exception_classes() -> list[type]:
    out = []
    for path in MODULES:
        module = importlib.import_module(f"tsmfem.{path.stem}")
        out += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return out


def test_exception_classes_found():
    names = {cls.__name__ for cls in _exception_classes()}
    assert {"ConfigError", "ExchangeFormatError", "InstabilityError",
            "MeshFormatError"} <= names


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__name__)
def test_exception_survives_a_pickle_round_trip(cls):
    """A process pool returns a worker's exception pickled; one whose
    ``args`` are not its constructor's arguments fails to unpickle there,
    and the pool breaks instead of reporting it."""
    exc = cls(*_EXCEPTION_ARGS.get(cls.__name__, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))
