import ast
from pathlib import Path

import warplab

SRC = Path(warplab.__file__).parent
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
