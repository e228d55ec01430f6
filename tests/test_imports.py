import ast
from pathlib import Path

import warplab

SRC = Path(warplab.__file__).parent
REPO = Path(__file__).resolve().parent.parent
# bindings perfbench/test_perfbench.py reads from these modules, which the
# modules themselves never call
KEPT_FOR_PERFBENCH = {("dimension", "brentq"), ("harness", "orbit_distance")}


def unused_imports(tree):
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name for name in imported if name not in used}


def test_every_import_is_used():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(ast.parse(path.read_text(), str(path)))}
    assert found == KEPT_FOR_PERFBENCH


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\nnp.sum(pi)\n")
    assert unused_imports(tree) == {"os", "tau"}


def _is_dataclass(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(f, "id", getattr(f, "attr", None)) == "dataclass"


def stored_fields(tree):
    """(name, line) of every dataclass field and every self.<name> store."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            out += [(st.target.id, st.lineno) for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            out.append((node.attr, node.lineno))
    return out


def read_attributes(tree):
    """Every name read as an attribute, x.name."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_field_is_read():
    # by name: a field counts as read where any object's attribute of that
    # name is read in the package, the tests or perfbench
    read = set()
    for path in [*SRC.glob("*.py"), *(REPO / "tests").glob("*.py"),
                 *(REPO / "perfbench").glob("*.py")]:
        read |= read_attributes(ast.parse(path.read_text(), str(path)))
    unread = {(path.stem, name, line)
              for path in sorted(SRC.glob("*.py"))
              for name, line in stored_fields(ast.parse(path.read_text(), str(path)))
              if name not in read}
    assert unread == set()


def test_write_only_field_is_found():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "class B:\n    def __init__(self):\n        self.u = 1\n        self.w = self.u\n"
    )
    assert stored_fields(tree) == [("x", 3), ("y", 4), ("u", 7), ("w", 8)]
    assert read_attributes(tree) == {"u"}
