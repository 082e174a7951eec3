"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "isaclab"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; an attribute chain such as
    ``np.fft`` reads its first name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _module_privates(tree: ast.Module) -> dict[str, int]:
    """Names bound at module level that start with one underscore, with
    their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    return bound


def _reads(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as an attribute or imports by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


_TREES = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
          for p in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(_TREES), ids=lambda p: p.name)
def test_every_private_module_name_is_read(path):
    """A private helper or constant that no source file reads is dead code;
    tests do not count as readers."""
    read = set().union(*(_reads(t) for t in _TREES.values()))
    dead = [f"{name} (line {line})"
            for name, line in sorted(_module_privates(_TREES[path]).items())
            if name not in read]
    assert dead == []


def test_errors_defines_three_exception_types():
    """Bad input is a ParseError or ValidationError (exit 2); every other
    detected failure is a plain ToolkitError (exit 3)."""
    from isaclab import errors
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert defined == {"ToolkitError", "ParseError", "ValidationError"}
