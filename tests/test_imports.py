"""Static hygiene: every import in src/muspec and in tests/ is used."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "muspec"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_detector_flags_and_clears():
    tree = ast.parse("import os\nfrom typing import Optional, Tuple\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == ["Tuple (line 2)", "os (line 1)"]
    tree = ast.parse("from .a import f\n__all__ = ['f']\n")
    assert _unused_imports(tree) == []


def _unused_imports_in(root: Path) -> dict:
    found = {path.name: _unused_imports(ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))}
    return {name: names for name, names in found.items() if names}


def test_no_unused_imports_in_package():
    assert _unused_imports_in(SRC) == {}


def test_no_unused_imports_in_tests():
    assert _unused_imports_in(TESTS) == {}
