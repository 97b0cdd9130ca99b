"""The package's error contract, and its imports, checked on its source.

A cause the caller can fix raises `InputError`, the one exception class the
package defines; a failed check on values the package computed itself raises
AssertionError; `cli.main` turns only InputError and OSError into exit 2.
Every module uses each name it imports.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geochroma"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_input_error_is_the_only_exception_class():
    def is_exception(name, found):
        builtin = getattr(builtins, name or "", None)
        return name in found or (isinstance(builtin, type) and issubclass(builtin, BaseException))

    classes = [node for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found: set[str] = set()
    while True:  # a class derived from an exception class is one too
        more = {c.name for c in classes if any(is_exception(_name(b), found) for b in c.bases)}
        if more <= found:
            break
        found |= more
    assert found == {"InputError"}


def test_every_raise_is_input_error_or_assertion_error():
    # a bare re-raise passes; an assert statement does not, as python -O drops it
    stray = [(file, node.lineno) for file, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Assert) or isinstance(node, ast.Raise)
             and node.exc is not None and _name(node.exc) not in ("InputError", "AssertionError")]
    assert stray == []


def test_cli_main_catches_input_error_and_os_error_only():
    main = next(node for node in TREES["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    assert [_name(t) for t in handlers[0].type.elts] == ["InputError", "OSError"]


def test_every_imported_name_is_used():
    # a deletion that leaves its import behind shows up here
    unused = []
    for file, tree in TREES.items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(file, line, name) for name, line in imported.items() if name not in used]
    assert unused == []
