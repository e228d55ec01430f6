"""warplab's benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Each workload is a closed loop with one client: one warplab process at a
time, each started only after the previous one exited, for at least
--seconds seconds.  Every process gets fresh output and cache directories
inside the checkout, and an environment without WARPLAB_CACHE_DIR.  Every
process is checked: exit status, the checks in its report.json, the
flagged set the workload expects, and a sha256 digest of its CSV outputs
that must repeat within the run.

With --trace 0 the last line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1, processes alternate traced and untraced
and the last line holds the per-layer metrics (spans and counters placed
by spans.py), plus the tracing overhead.  Lines before it give a readable
summary with sample counts, the digest and the environment.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 3  # set-up-only processes per run, besides each measured one
SPIN_ITERATIONS = 4_000  # one speed sample: this many steps of a Python loop
SPIN_PERIOD_S = 0.04
REF_SPIN_S = 0.00024  # one sample's CPU time at the reference speed
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the seed chooses one index per stratum, so every seed pays for a short,
# a middle and a long grid-oracle path
ORACLE_INDEX_STRATA = ((3, 6), (7, 14), (15, 30))
ORACLE_RADII = 64
ORACLE_R_RANGE = (0.2, 1e6)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments; --seed, --outdir and --cache-dir are added
    flagged: frozenset  # names of the flagged checks a correct run reports
    checks: int  # checks per process of a correct run, charged for a crash
    warm: bool = False
    oracles: bool = False


OSC = ("full-suite", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
       "--radius-bound", "1e40")
PURE = ("full-suite", "--alpha", "0.5")

WORKLOADS = {w.name: w for w in (
    Workload("osc-suite-cold", OSC, frozenset({"ladder-truncated", "rescaling-ladder-refit"}), 22),
    Workload("pure-suite-warm", PURE, frozenset(), 16, warm=True),
    Workload("pure-oracles", (), frozenset(), 70, oracles=True),
)}


def oracle_inputs(seed):
    """(indices, radii) for pure-oracles: the same seed gives the same inputs."""
    rng = random.Random(seed)
    indices = [rng.randint(lo, hi) for lo, hi in ORACLE_INDEX_STRATA]
    lo, hi = (math.log(x) for x in ORACLE_R_RANGE)
    radii = [math.exp(rng.uniform(lo, hi)) for _ in range(ORACLE_RADII)]
    return indices, radii


def csv_digest(paths):
    """sha256 over the CSV files among paths, by file name then bytes."""
    h = hashlib.sha256()
    for path in sorted((p for p in paths if p.endswith(".csv")), key=os.path.basename):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def tree_digest(root):
    """sha256 over every file under root, by relative path then bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def nproc():
    return len(os.sched_getaffinity(0))


def thread_env():
    """BLAS/OpenMP thread counts handed to warplab, capped at nproc."""
    n = nproc()
    out = {}
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        out[var] = str(max(1, min(want, n)))
    return out


def child_env(tmp):
    env = {k: v for k, v in os.environ.items() if k != "WARPLAB_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["TMPDIR"] = tmp
    env.update(thread_env())
    return env


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Op:
    """One warplab process: its timings, outputs and trace."""
    traced: bool
    wall_s: float  # at the reference CPU speed (SpeedProbe)
    raw_wall_s: float
    rc: object  # exit status, None when killed at its deadline
    setup_s: object = None
    peak_rss_mb: object = None
    versions: object = None
    report: object = None  # report.json, None when the process crashed
    digest: object = None
    trace: object = None
    cache_dir: object = None
    cache_untouched: object = None  # warm runs: cache bytes equal the set-up copy

    @property
    def crashed(self):
        return self.report is None or self.setup_s is None


class SpeedProbe:
    """The speed of the CPU the warplab processes run on, sampled while they run.

    On the shared 2-vCPU virtual machine this benchmark was tuned on, a
    vCPU's speed drifts by up to a third over tens of seconds, and the two
    vCPUs drift apart; raw wall times of one workload spread by 20-35 %
    between runs.
    The benchmark therefore pins itself and its children to one CPU, and
    this thread times a fixed pure-Python loop by its own CPU time every
    SPIN_PERIOD_S (under 1 % of that CPU).  scale() turns a wall time into
    seconds at the reference speed, REF_SPIN_S per loop.  The loop shares
    no code with warplab, so a change to warplab cannot move it.
    """

    def __init__(self):
        self.samples = []  # (monotonic time, CPU seconds of one loop)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(SPIN_PERIOD_S):
            t = time.thread_time()
            acc = 0
            for i in range(SPIN_ITERATIONS):
                acc += i * i
            self.samples.append((time.monotonic(), time.thread_time() - t))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0, t1):
        """Mean speed relative to the reference over [t0, t1].

        Work done in an interval is its length times the speed then, so a
        process's wall time times the mean of REF_SPIN_S / (loop time) over
        evenly spaced samples is its length at the reference speed.  With
        no sample inside, the nearest one stands in."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if not inside and samples:
            inside = [min(samples, key=lambda s: abs(s[0] - t1))[1]]
        return statistics.mean(REF_SPIN_S / d for d in inside) if inside else 1.0


def run_process(op_dir, spec, timeout, speed=None):
    """Start child.py on spec, wait for it.

    Returns (rc, raw wall seconds, speed scale, result or None)."""
    spec_path = os.path.join(op_dir, "spec.json")
    spec["result"] = os.path.join(op_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(os.path.join(op_dir, "log.txt"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), spec_path], stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(op_dir), cwd=op_dir)
        # a blocking wait returns at the exit itself; Popen.wait(timeout)
        # polls and would round every wall time up to its 50 ms poll step
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        t1 = time.monotonic()
        if rc == -signal.SIGKILL:
            rc = None
    scale = speed.scale(t0, t1) if speed else 1.0
    result = None
    if os.path.exists(spec["result"]):
        with open(spec["result"]) as fh:
            result = json.load(fh)
        if result["setup_mark"] is not None:
            result["setup_s"] = (result["setup_mark"] - t0) * scale
    return rc, t1 - t0, scale, result


def run_op(w, seed, work, kind="run", traced=False, cache_from=None, timeout=RUN_BUDGET_S,
           speed=None):
    """One process of workload w in a fresh directory under work."""
    op_dir = tempfile.mkdtemp(dir=work)
    out_dir = os.path.join(op_dir, "out")
    cache_dir = os.path.join(op_dir, "cache")
    if cache_from is not None:
        shutil.copytree(cache_from, cache_dir)
    spec = {"kind": kind, "src": str(SRC), "trace": traced, "seed": seed,
            "run_id": f"{w.name}-{seed}-{os.path.basename(op_dir)}",
            "oracles": w.oracles, "outdir": out_dir}
    if w.oracles:
        spec["indices"], spec["radii"] = oracle_inputs(seed)
    else:
        spec["argv"] = [*w.argv, "--seed", str(seed), "--outdir", out_dir,
                        "--cache-dir", cache_dir]
    rc, raw_wall, scale, result = run_process(op_dir, spec, timeout, speed)
    op = Op(traced=traced, wall_s=raw_wall * scale, raw_wall_s=raw_wall, rc=rc,
            cache_dir=cache_dir)
    if result is not None:
        op.setup_s = result.get("setup_s")
        op.peak_rss_mb = result["peak_rss_mb"]
        op.versions = result["versions"]
        op.trace = result["trace"]
    report_path = os.path.join(out_dir, "report.json")
    if kind == "run" and os.path.exists(report_path):
        with open(report_path) as fh:
            op.report = json.load(fh)
        op.digest = csv_digest(op.report["artifacts"])
    if cache_from is not None:
        op.cache_untouched = tree_digest(cache_dir) == tree_digest(cache_from)
    return op


def op_checks(w, op, first_digest, cold_digest=None):
    """(name, ok) per check of one process; None when it crashed."""
    if op.crashed:
        return None
    checks = [("exit-status", op.rc == 0)]
    flagged = set()
    for c in op.report["checks"]:
        if c["status"] == "flagged":
            flagged.add(c["name"])
        else:
            checks.append((c["name"], c["status"] == "pass"))
    checks.append(("flagged-set", flagged == w.flagged))
    checks.append(("outputs-stable", op.digest == first_digest))
    if op.cache_untouched is not None:  # it ran on a copy of the set-up cache
        appended = op.trace["counts"].get("cache.append.calls", 0) if op.trace else 0
        checks.append(("warm-cache-untouched", bool(op.cache_untouched) and appended == 0))
        checks.append(("warm-matches-cold", op.digest == cold_digest))
    return checks


def tally(w, per_op):
    """(attempted, failed) checks; a crashed process fails all its checks."""
    n = max((len(c) for c in per_op if c is not None), default=w.checks)
    attempted = failed = 0
    for checks in per_op:
        if checks is None:
            attempted += n
            failed += n
        else:
            attempted += len(checks)
            failed += sum(not ok for _, ok in checks)
    return attempted, failed


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _measure(w, seed, work, seconds, trace, deadline, speed, cache_from):
    """The closed loop: one process after another for `seconds`; with
    trace, traced and untraced processes alternate, at least one of each
    unless the next one would overrun the run's deadline."""
    ops = []
    t0 = time.monotonic()
    need = {False, True} if trace else {False}
    while True:
        now = time.monotonic()
        if ops and now + max(op.raw_wall_s for op in ops) > deadline:
            return ops
        if need <= {op.traced for op in ops} and now - t0 >= seconds:
            return ops
        traced = trace and len(ops) % 2 == 0
        timeout = max(5.0, deadline - time.monotonic())
        ops.append(run_op(w, seed, work, traced=traced, cache_from=cache_from,
                          timeout=timeout, speed=speed))


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (summary dict, end-to-end, per-layer)."""
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        cold = None
        if w.warm:  # untimed set-up: one cold process fills the cache
            cold = run_op(w, seed, work)
        with SpeedProbe() as speed:
            # setup_s is an end-to-end metric, not reported by a traced run
            probes = [run_op(w, seed, work, kind="setup", speed=speed)
                      for _ in range(0 if trace else SETUP_PROBES)]
            ops = _measure(w, seed, work, seconds, trace, deadline, speed,
                           cold.cache_dir if cold else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    first_digest = next((op.digest for op in ops if op.digest), None)
    per_op = [op_checks(w, op, first_digest, cold and cold.digest) for op in ops]
    if cold is not None:  # the set-up run is verified like a measured one
        per_op.append(op_checks(w, cold, cold.digest))
    attempted, failed = tally(w, per_op)
    stable = sum(op.digest == first_digest for op in ops) / len(ops)

    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    setups = [op.setup_s for op in probes + untraced]
    e2e = {
        "wall_s": _median(op.wall_s for op in untraced),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(op.peak_rss_mb for op in untraced),
    }
    layers = {}
    if traced:
        from spans import layer_metrics

        per_trace = [layer_metrics(op.trace) for op in traced if op.trace]
        for key in (per_trace[0] if per_trace else ()):
            layers[key] = _median(m[key] for m in per_trace)
        for step in ("build_example", "ricci_check", "orbit_growth", "capacity", "grushin"):
            layers[f"harness.step.{step}_s"] = _median(
                (op.report or {}).get("timings", {}).get(f"_run_{step}") for op in untraced)
        if untraced:
            layers["trace.overhead_s"] = (_median(op.wall_s for op in traced)
                                          - _median(op.wall_s for op in untraced))

    summary = {
        "workload": name, "seed": seed, "processes": len(ops),
        "untraced": len(untraced), "traced": len(traced), "setup_samples": len(setups),
        "raw_walls": [round(op.raw_wall_s, 3) for op in untraced],
        "check_fail_rate": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed,
        "outputs_stable": stable, "digest": first_digest,
        "correct": failed == 0,
        "env": {"git_sha": git_sha(), "nproc": os.cpu_count(),
                "cpus_used": sorted(os.sched_getaffinity(0)), "threads": thread_env(),
                **next((op.versions for op in ops if op.versions), {})},
    }
    return summary, e2e, layers


def print_summary(s, e2e):
    n, u = s["untraced"], s["setup_samples"]
    print(f"== {s['workload']} seed={s['seed']} processes={s['processes']} "
          f"(untraced {n}, traced {s['traced']})")
    print(f"  wall_s            {e2e['wall_s']:.4f} s     median of {n}, at reference speed;"
          f" raw {s['raw_walls']}")
    print(f"  setup_s           {e2e['setup_s']:.4f} s     median of {u}")
    print(f"  peak_rss_mb       {e2e['peak_rss_mb']:.1f} MB     median of {n}")
    print(f"  check_fail_rate   {s['check_fail_rate']:.4g} fraction  "
          f"{s['failed']} of {s['attempted']} checks")
    print(f"  outputs_stable    {s['outputs_stable']:.4g} fraction  over {s['processes']} runs")
    print(f"  digest            {s['digest']}")
    print(f"  env               {json.dumps(s['env'], sort_keys=True)}")


def result_line(s, values, specs):
    # a per-layer metric is missing only when every traced process crashed
    # (the run is then incorrect), or, for trace.overhead_s, when no untraced
    # process fitted before the deadline; it reads 0
    return {
        "correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in specs},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "warplab" / "__init__.py").is_file():
        print(f"error: no warplab sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    # warplab runs single-threaded; one CPU for it and the speed probe
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        summary, e2e, layers = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(summary, e2e)
        lines[name] = result_line(summary, layers if args.trace else e2e, specs)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
