import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import warplab

SRC = Path(warplab.__file__).parent
REPO = Path(__file__).resolve().parent.parent
# bindings perfbench/test_perfbench.py reads from these modules, which the
# modules themselves never call
KEPT_FOR_PERFBENCH = {("dimension", "brentq"), ("harness", "orbit_distance")}
# the oscillating construction, which a pure run never loads
CONSTRUCTION = ("ladder", "piecewise", "smoothing", "construction_io")
# modules every run loads, which must leave the construction and the grid
# oracle to the paths that use them
ENTRY = ("__init__", "cli", "harness", "grushin")
# modules of one or some harness steps, which the harness imports in the
# steps that run them
STEP = ("cache", "christoffel", "dimension", "grushin", "orbits")


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
    in_tests = {(path.stem, name)
                for path in sorted((REPO / "tests").glob("*.py"))
                for name in unused_imports(ast.parse(path.read_text(), str(path)))}
    assert in_tests == set()


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\nnp.sum(pi)\n")
    assert unused_imports(tree) == {"os", "tau"}


def private_defs(tree):
    """(name, line) of every non-dunder _private function, method or class."""
    return [(n.name, n.lineno) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n.name.startswith("_") and not n.name.endswith("__")]


def read_names(tree):
    """Every name read, bare (x) or as an attribute (obj.x)."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | read_attributes(tree)


def test_every_private_def_is_referenced():
    # by name, anywhere in the package: a private def no code of the
    # package reads is left over
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = {(stem, name, line) for stem, tree in trees.items()
              for name, line in private_defs(tree) if name not in read}
    assert unread == set()


def test_unreferenced_private_def_is_found():
    tree = ast.parse("def _a():\n    return _b()\ndef _b():\n    pass\ndef _c():\n    pass\n"
                     "class _D:\n    def __init__(self):\n        self._g = self._f\n"
                     "    def _e(self):\n        pass\n    def _f(self):\n        pass\n"
                     "    def _g(self):\n        pass\n")
    defs = private_defs(tree)
    assert [name for name, _ in defs] == ["_a", "_b", "_c", "_D", "_e", "_f", "_g"]
    read = read_names(tree)
    assert {name for name, _ in defs if name not in read} == {"_a", "_c", "_D", "_e", "_g"}


def module_constants(tree):
    """(name, line) of every module-level UPPER_CASE constant: each name an
    assignment at the top of the module binds, tuple targets included."""
    out = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and n.id.strip("_") and n.id == n.id.upper()
                and not n.id.startswith("__")]
    return out


def test_every_module_constant_is_read():
    # by name, anywhere in the package: a constant no code of the package
    # reads is left over from the code that read it
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = {(stem, name, line) for stem, tree in trees.items()
              for name, line in module_constants(tree) if name not in read}
    assert unread == set()


def test_unread_module_constant_is_found():
    tree = ast.parse("import math\nEPS = 2.0 ** -52\nBIG = 1e308\n_A, _B = 1, 2\n_ = 3\n"
                     "__all__ = ['f']\nTAU: float = 2 * math.pi\nlower = 4\n"
                     "def f():\n    LOCAL = 5\n    return EPS * _A * LOCAL\n")
    assert module_constants(tree) == [("EPS", 2), ("BIG", 3), ("_A", 4), ("_B", 4), ("TAU", 7)]
    read = read_names(tree)
    assert {name for name, _ in module_constants(tree) if name not in read} == {"BIG", "_B", "TAU"}


# read by no module of the package: the reader of the file build-example writes
PUBLIC_FOR_USERS = {("construction_io", "load_construction")}


def public_defs(tree):
    """(name, line) of every public top-level function or class."""
    return [(n.name, n.lineno) for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def unread_public_defs(trees, exported):
    """(module, name) of every public top-level def that no module of trees
    reads and that is not exported."""
    read = set().union(*map(read_names, trees.values()))
    return {(stem, name) for stem, tree in trees.items()
            for name, _ in public_defs(tree) if name not in read and name not in exported}


def test_every_public_def_is_read_or_exported():
    # a public def the package neither reads nor exports serves only the
    # tests, which keep such helpers themselves
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert unread_public_defs(trees, set(warplab.__all__)) == PUBLIC_FOR_USERS


def test_unread_public_def_is_found():
    trees = {"a": ast.parse("def f():\n    return g()\ndef g():\n    pass\nclass H:\n"
                            "    def method(self):\n        pass\ndef _p():\n    pass\n"),
             "b": ast.parse("import a\ndef run():\n    return a.H()\ndef extra():\n    pass\n")}
    assert unread_public_defs(trees, {"run"}) == {("a", "f"), ("b", "extra")}


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


def module_level_imports(tree, package="warplab"):
    """Modules a module imports when it is loaded: every import outside a
    function body, relative ones resolved against the package."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = f"{package}.{node.module}" if node.level and node.module else (
                node.module or package)
            if module == package:  # from . import x: x is a submodule
                found.update(f"{package}.{a.name}" for a in node.names)
            else:
                found.add(module)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_module_level_imports_leave_mpmath_and_the_construction_to_their_path():
    imports = {path.stem: module_level_imports(ast.parse(path.read_text(), str(path)))
               for path in sorted(SRC.glob("*.py"))}
    mp_importers = {stem for stem, mods in imports.items()
                    if any(m.split(".")[0] == "mpmath" for m in mods)}
    assert mp_importers == set()
    deferred = {f"warplab.{m}" for m in (*CONSTRUCTION, "gridpath")}
    assert {stem: sorted(imports[stem] & deferred) for stem in ENTRY} == {
        stem: [] for stem in ENTRY}


def test_harness_leaves_each_step_module_to_its_step():
    tree = ast.parse((SRC / "harness.py").read_text())
    assert sorted(module_level_imports(tree) & {f"warplab.{m}" for m in STEP}) == []


def test_orbits_leaves_the_cache_to_the_pure_table():
    # the oscillating table has no cache, so loading orbits loads no cache
    tree = ast.parse((SRC / "orbits.py").read_text())
    assert "warplab.cache" not in module_level_imports(tree)


def all_imports(tree):
    """Top-level names of every module a module imports anywhere, functions included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_mpmath():
    # the construction runs in doubles and log-doubles: mpmath is a test
    # dependency, for the 40-digit references of tests/oracles.py
    importers = {path.stem for path in sorted(SRC.glob("*.py"))
                 if "mpmath" in all_imports(ast.parse(path.read_text()))}
    assert importers == set()


def test_mpmath_import_is_found_in_a_function_body():
    tree = ast.parse("import math\ndef f(x):\n    from mpmath import mpf\n    return mpf(x)\n"
                     "def g():\n    import mpmath.libmp\n")
    assert "mpmath" in all_imports(tree)


def test_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("mpmath") for d in project["optional-dependencies"]["test"])


def test_no_module_imports_hashlib():
    # hashlib maps OpenSSL's libcrypto, about 3.7 MB of resident memory
    importers = {path.stem for path in sorted(SRC.glob("*.py"))
                 if {"hashlib", "_hashlib"} & all_imports(ast.parse(path.read_text()))}
    assert importers == set()


def test_import_walker_sees_function_bodies():
    tree = ast.parse("import os.path\nfrom . import cache\ndef f():\n    import hashlib\n"
                     "    from json import dumps\n")
    assert all_imports(tree) == {"os", "hashlib", "json"}


def test_module_level_import_guard_sees_through_blocks_not_functions():
    tree = ast.parse("import mpmath.libmp\nfrom . import ladder as ld\nfrom .smoothing import x\n"
                     "from numpy import sum\ntry:\n    from .gridpath import y\nexcept ImportError:"
                     "\n    pass\nclass C:\n    import json\n"
                     "def f():\n    from .piecewise import z\n    import mpmath\n")
    assert module_level_imports(tree) == {"mpmath.libmp", "warplab.ladder", "warplab.smoothing",
                                          "numpy", "warplab.gridpath", "json"}


# -- what a fresh process loads -----------------------------------------------

def loaded_after(code, tmp_path=None):
    """sys.modules of a fresh interpreter after it runs code, which may read
    `out`, a scratch directory."""
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("WARPLAB_CACHE_DIR", None)
    script = (f"out = {str(tmp_path)!r}\n{code}\n"
              "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_warplab_loads_no_submodule_no_numpy_and_no_mpmath():
    mods = loaded_after("import warplab")
    assert sorted(m for m in mods if m.startswith("warplab.")
                  or m.split(".")[0] in ("numpy", "mpmath")) == []


def test_pure_full_suite_never_loads_mpmath_the_construction_or_the_grid_oracle(tmp_path):
    mods = loaded_after(
        "from warplab.cli import main\n"
        "assert main(['full-suite', '--alpha', '0.5', '--outdir', out + '/run',\n"
        "             '--cache-dir', out + '/cache']) == 0\n", tmp_path)
    assert "warplab.harness" in mods and "warplab.grushin" in mods
    assert sorted(mods & {"mpmath", *(f"warplab.{m}" for m in (*CONSTRUCTION, "gridpath"))}) == []
    assert sorted(mods & {"hashlib", "_hashlib"}) == []


def test_oracle_run_imports_load_no_mpmath():
    # the import lines of perfbench/child.py's oracle run
    mods = loaded_after(
        "import warplab\n"
        "from warplab import christoffel, curvature, gridpath, halfplane\n"
        "from warplab.config import parse_config\n"
        "from warplab.harness import write_csv\n"
        "from warplab.warping import power_decay_h, standard_f\n")
    assert "warplab.gridpath" in mods
    assert "mpmath" not in mods
    assert sorted(mods & {f"warplab.{m}" for m in ("cache", "dimension", "grushin", "orbits")}) == []


# what one pure (alpha 1/2) run of each mode loads: the modules every run
# needs, and each step's own; only a step that reads distances builds the
# orbit table, with its cache
EVERY_RUN = {"cli", "config", "harness", "curvature", "halfplane", "numerics", "warping",
             "jets"}
ORBIT_TABLE = {"orbits", "cache"}
MODE_MODULES = {
    "ricci-check": EVERY_RUN | {"christoffel"},
    "orbit-growth": EVERY_RUN | ORBIT_TABLE,
    "capacity": EVERY_RUN | ORBIT_TABLE | {"dimension"},
    "grushin-compare": EVERY_RUN | {"grushin"},
    "full-suite": EVERY_RUN | ORBIT_TABLE | {"christoffel", "dimension", "grushin"},
}


@pytest.mark.parametrize("mode", sorted(MODE_MODULES))
def test_each_mode_loads_only_the_modules_it_runs(mode, tmp_path):
    mods = loaded_after(
        "from warplab.cli import main\n"
        f"assert main([{mode!r}, '--alpha', '0.5', '--outdir', out + '/run',\n"
        "             '--cache-dir', out + '/cache']) == 0\n", tmp_path)
    assert sorted(m[len("warplab."):] for m in mods if m.startswith("warplab.")) == sorted(
        MODE_MODULES[mode])


OSC_SUITE = (
    "from warplab.cli import main\n"
    "assert main(['full-suite', '--alpha', '0.6', '--beta', '1.2', '--A', '0.3',\n"
    "             '--B', '1.5', '--radius-bound', '1e40', '--outdir', out + '/run',\n"
    "             '--cache-dir', out + '/cache']) == 0\n")


def test_oscillating_full_suite_loads_the_construction(tmp_path):
    mods = loaded_after(OSC_SUITE, tmp_path)
    assert {f"warplab.{c}" for c in CONSTRUCTION} <= mods
    assert "mpmath" not in mods
    assert sorted(mods & {"hashlib", "_hashlib"}) == []


def test_oscillating_full_suite_runs_where_mpmath_cannot_load(tmp_path):
    # a None entry in sys.modules makes every import of mpmath raise
    mods = loaded_after("import sys\nsys.modules['mpmath'] = None\n" + OSC_SUITE, tmp_path)
    assert (tmp_path / "run" / "report.json").exists()
    assert "warplab.construction_io" in mods


# -- the lazy public API --------------------------------------------------------

def test_star_import_binds_every_public_name():
    ns = {}
    exec("from warplab import *", ns)
    assert len(warplab.__all__) == 56
    assert sorted(k for k in ns if k != "__builtins__") == sorted(warplab.__all__)
    assert all(ns[name] is getattr(warplab, name) for name in warplab.__all__)


def test_dir_lists_every_public_name():
    assert set(warplab.__all__) <= set(dir(warplab))


def test_unknown_public_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'warplab' has no attribute 'no_such_name'"):
        warplab.no_such_name  # noqa: B018
