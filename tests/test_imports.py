"""Static hygiene: every import in src/muspec and in tests/ is used, every
module-level name src/muspec defines is referenced in src/, tests/ or bench/,
and every name a src/muspec docstring or comment cites is defined there."""
import ast
import io
import re
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "muspec"
BENCH = TESTS.parent / "bench"


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


def _defined_names(tree: ast.Module) -> dict:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def _referenced_names(tree: ast.Module) -> set:
    """Names read, and attributes of any object; importing a name alone does
    not reference it."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_unreferenced_name_detector_flags_and_clears():
    tree = ast.parse("A = 1\nB = A\ndef f(): pass\nclass C: pass\n__all__ = []\n")
    assert sorted(_defined_names(tree)) == ["A", "B", "C", "f"]
    assert _referenced_names(tree) == {"A"}
    assert _referenced_names(ast.parse("from m import g\nm.h\nk()\n")) == {"m", "h", "k"}


def test_every_module_level_name_is_referenced():
    trees = [ast.parse(path.read_text()) for root in (SRC, TESTS, BENCH) for path in sorted(root.glob("*.py"))]
    used = set().union(*map(_referenced_names, trees))
    unused = {
        path.name: sorted(f"{name} (line {line})" for name, line in defined.items() if name not in used)
        for path in sorted(SRC.glob("*.py"))
        for defined in [_defined_names(ast.parse(path.read_text()))]
    }
    assert {name: found for name, found in unused.items() if found} == {}



# Protocol methods take every parameter their protocol passes, read or not.
PROTOCOL_METHODS = {
    "countermeasures.py": {"nda_unlabel"},
    "uarch.py": {
        "FallthroughPredictor.predict",
        "FallthroughPredictor.update",
        "BackwardTakenPredictor.update",
        "SequentialScheduler.update",
    },
}


def _unused_parameters(tree: ast.Module) -> list:
    """``name(parameter)`` for each parameter, ``self`` and ``cls`` aside, of
    a function, a method or a nested function that its body never reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(f"{name}({p})" for p in params if p not in read and p not in ("self", "cls"))
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_unused_parameter_detector_flags_and_clears():
    tree = ast.parse(
        "def f(a, b, *c, d, **e):\n    return a\n"
        "def g(x, y):\n    def h(z):\n        return x\n    return h\n"
        "class C:\n    def m(self, v):\n        pass\n    @classmethod\n    def n(cls, w=1):\n        return w\n"
    )
    assert _unused_parameters(tree) == ["f(b)", "f(c)", "f(d)", "f(e)", "g(y)", "g.h(z)", "C.m(v)"]


def test_no_unused_parameters_in_package():
    found = {path.name: _unused_parameters(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    functions = {name: {p[: p.index("(")] for p in params} for name, params in found.items()}
    unread = {
        name: [p for p in params if p[: p.index("(")] not in PROTOCOL_METHODS.get(name, ())]
        for name, params in found.items()
    }
    assert {name: params for name, params in unread.items() if params} == {}
    # the allowlist names only methods that leave a parameter unread
    stale = {name: fns - functions[name] for name, fns in PROTOCOL_METHODS.items()}
    assert not any(stale.values()), stale


# ``name`` or ``module.name`` in a docstring or comment
CITED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")
# uAsm words the docs cite as code, not Python names
UASM_WORDS = {"jmp", "ite"}


def _docs(source: str, tree: ast.Module):
    """Each comment and docstring of ``source`` with its first line."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                yield doc.lineno, doc.value.value


def _bound_names(tree: ast.Module) -> set:
    """Every function, class, parameter, variable and attribute the module
    binds, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _stale_citations(sources: dict) -> list:
    """``file:line name`` for each cited name, or part of a dotted one, that
    no module of ``sources`` (file name -> text) binds and that is no module
    name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    known = UASM_WORDS | {"muspec"} | {Path(name).stem for name in sources}
    known |= set().union(*map(_bound_names, trees.values()))
    stale = []
    for name, tree in trees.items():
        for line, text in _docs(sources[name], tree):
            for m in CITED.finditer(text):
                if not known.issuperset(m.group(1).split(".")):
                    stale.append((name, line + text.count("\n", 0, m.start()), m.group(1)))
    return [f"{name}:{line} {cited}" for name, line, cited in sorted(stale)]


def test_stale_citation_detector_flags_and_clears():
    source = (
        '"""Module, see ``b.f``."""\n'
        "def f(x):\n"
        '    """Runs ``x`` through\n    ``gone``, then ``jmp``."""\n'
        "    return x  # ``y``: ``f``\n"
    )
    assert _stale_citations({"b.py": source}) == ["b.py:4 gone", "b.py:5 y"]


def test_every_cited_name_is_defined_in_package():
    assert _stale_citations({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []
