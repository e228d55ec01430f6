"""The package is what a run reaches.

Every function definition in src/warplab, methods and nested functions
included, is called by some CLI run of RUNS, or ALLOWED names it with the
reason no run calls it.  The runs take every mode on the pure 1/2 and the
oscillating 1e40 model, plus --emit-config, the WARPLAB_CACHE_DIR default,
a config error and a schedule whose ladder cannot be built.  They run in a
fresh process under sys.settrace call events, with the CLI imported under
the trace as a fresh `warplab` process imports it.  An allowed definition
that a run does reach fails the test too, so the list cannot go stale.

    PYTHONPATH=src python tests/test_reach.py

prints the unreached definitions: module, name, lines and reason.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import warplab
from warplab.config import MODES

if __package__:
    from .test_imports import PUBLIC_FOR_USERS
else:  # run as a script
    from test_imports import PUBLIC_FOR_USERS

SRC = Path(warplab.__file__).parent
REPO = SRC.parent.parent

PURE = ("--alpha", "0.5")
OSC = ("--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5", "--radius-bound", "1e40")
# (argv, exit status), "{out}" standing for the runs' scratch directory.
# The pure build-example is the config error: that mode needs an
# oscillating model.
RUNS = (
    *(((mode, *model, "--outdir", f"{{out}}/{tag}-{mode}", "--cache-dir", "{out}/cache"),
       2 if (tag, mode) == ("pure", "build-example") else 0)
      for tag, model in (("pure", PURE), ("osc", OSC)) for mode in MODES),
    (("ricci-check", *PURE, "--outdir", "{out}/emit", "--emit-config", "{out}/config.json"), 0),
    (("orbit-growth", *PURE, "--outdir", "{out}/env-cache"), 0),  # WARPLAB_CACHE_DIR
    # junctions at 100 and 129.2, under the 5x rule: LadderGrowthError
    (("full-suite", "--alpha", "0.55", "--beta", "0.6", "--A", "0.3", "--B", "1.5",
      "--outdir", "{out}/ladder"), 2),
)

PROBED = "perfbench/spans.py probes it or perfbench/child.py calls it"
JETS = "Jet2 arithmetic the tests' references use, until Jet2 leaves src (ROADMAP item 10)"
CALIBRATION = "a calibration family of the tests"
ERROR_ONLY = "an exception's method, run only where the error is raised"
# whole modules no run loads
ALLOWED_MODULES = {
    "gridpath": "the grid oracle: perfbench's pure-oracles workload and the tests run it",
}
ALLOWED = {
    ("grushin", "grushin_distance"): PROBED,
    ("curvature", "ricci_report"): PROBED,
    ("curvature", "_axis_report"): "ricci_report's r = 0 branch, kept with ricci_report",
    ("warping", "WarpingFunction.__call__"): PROBED,
    **{("jets", name): JETS for name in (
        "_lift.lifted", "Jet2.constant", "Jet2.is_finite", "Jet2.__repr__", "Jet2.__neg__",
        "Jet2.__sub__", "Jet2.__rsub__", "Jet2.__truediv__", "Jet2.__rtruediv__", "jet_sin",
        "jet_exp")},
    **{("warping", name): CALIBRATION for name in (
        "_linear_f_frame", "_sine_f_frame", "constant_h", "linear_f", "sine_f", "exp_decay_h",
        "exp_decay_h.frame")},
    ("ladder", "ExponentSchedule.__post_init__"):
        "no CLI flag or config key builds an ExponentSchedule (ROADMAP item 5)",
    **{key: "no module reads it: the reader of the file build-example writes"
       for key in PUBLIC_FOR_USERS},
    ("halfplane", "TargetUnreachable.__init__"): ERROR_ONLY,
    ("halfplane", "ArcBoundViolation.__str__"): ERROR_ONLY,
    ("smoothing", "NotCertified.__init__"): ERROR_ONLY,
    ("__init__", "__dir__"): "the lazy package's dir(warplab) hook, which no run calls",
}


@dataclass(frozen=True)
class Def:
    module: str
    name: str  # dotted: Class.method, outer.inner
    first: int  # the first line, decorators included, as the code object's co_firstlineno
    last: int


def definitions(module, tree):
    """Every function, method and nested function of a module's tree, in order."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append(Def(module, prefix + child.name, first, child.end_lineno))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def package_definitions():
    return [d for path in sorted(SRC.glob("*.py"))
            for d in definitions(path.stem, ast.parse(path.read_text(), str(path)))]


def called(fn):
    """(file, first line, name) of every code object that starts a frame
    while fn() runs, and fn's result."""
    seen = set()

    def tracer(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}, result


def unreached(defs, calls):
    """The defs (module, first line, name) no call of calls started."""
    hit = {(Path(f).stem, line, name) for f, line, name in calls if Path(f).parent == SRC}
    return [d for d in defs if (d.module, d.first, d.name.rsplit(".", 1)[-1]) not in hit]


def run_all(out):
    """Exit status of each of RUNS, their output swallowed.  Only for a
    fresh process: the runs set WARPLAB_CACHE_DIR and import the CLI."""
    os.environ["WARPLAB_CACHE_DIR"] = os.path.join(out, "env-cache-dir")
    from warplab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return [main([a.replace("{out}", out) for a in argv]) for argv, _ in RUNS]


def reason(module, name):
    return ALLOWED_MODULES.get(module) or ALLOWED.get((module, name))


def test_every_definition_is_reached_or_allowed():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, __file__, "--json"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit_codes"] == [code for _, code in RUNS]
    defs = package_definitions()
    assert sorted(set(ALLOWED) - {(d.module, d.name) for d in defs}) == []
    missed = {tuple(key) for key in result["unreached"]}
    # a definition no run reaches: call it from a run, delete it, or allow it with a reason
    assert sorted(key for key in missed if reason(*key) is None) == []
    # an allowed definition that a run reaches: drop its entry
    assert sorted(key for key in ((d.module, d.name) for d in defs)
                  if reason(*key) and key not in missed) == []


def test_probed_names_are_in_perfbench():
    text = "".join((REPO / "perfbench" / name).read_text() for name in ("spans.py", "child.py"))
    assert [name for (_, name), why in ALLOWED.items() if why == PROBED and name not in text] == []


def test_a_def_never_called_is_found():
    source = ("import functools\n"
              "def f():\n    def inner():\n        pass\n    return 1\n"
              "class C:\n    @staticmethod\n    def s():\n        return 2\n"
              "    @functools.cache\n    def m(self):\n        pass\n"
              "def g():\n    return C.s() + f()\n")
    defs = definitions("synthetic", ast.parse(source))
    assert [(d.name, d.first, d.last) for d in defs] == [
        ("f", 2, 5), ("f.inner", 3, 4), ("C.s", 7, 9), ("C.m", 10, 12), ("g", 13, 14)]
    ns = {}
    exec(compile(source, str(SRC / "synthetic.py"), "exec"), ns)
    calls, value = called(ns["g"])
    assert value == 3
    assert [d.name for d in unreached(defs, calls)] == ["f.inner", "C.m"]


def main(argv):
    defs = package_definitions()
    with tempfile.TemporaryDirectory() as out:
        calls, codes = called(lambda: run_all(out))
    missed = unreached(defs, calls)
    if argv == ["--json"]:
        print(json.dumps({"exit_codes": codes, "unreached": [(d.module, d.name) for d in missed]}))
        return 0
    print(f"{'module':<16}{'name':<32}{'lines':<10}reason")
    for d in missed:
        print(f"{d.module:<16}{d.name:<32}{f'{d.first}-{d.last}':<10}"
              f"{reason(d.module, d.name) or '-'}")
    print(f"{len(missed)} of {len(defs)} definitions unreached, "
          f"{sum(d.last - d.first + 1 for d in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
