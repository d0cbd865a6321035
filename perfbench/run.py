"""primeavg benchmark: cold-process workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload {verify,spectral,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each iteration runs the workload's primeavg commands as fresh
processes, for about S seconds.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics; the last line is the JSON
result.  README.md says how each metric is measured and what it should move;
workloads.py says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 150  # no new iteration starts after this; the contract is 180


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None
    artifact_bytes: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def child_env(workdir: str) -> dict[str, str]:
    """The caller's environment, pinned: program from src/, fresh HOME and
    TMPDIR, one BLAS thread, and bytecode caching on as in an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        HOME=os.path.join(workdir, "home"),
        TMPDIR=os.path.join(workdir, "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    for key in ("home", "tmp"):
        os.makedirs(os.path.join(workdir, key), exist_ok=True)
    return env


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK_ROOT)


def run_process(cmd: list[str], workdir: str, deadline: float):
    """Run cmd in its own session; return (exit code, wall s, rusage).

    The session is killed at the deadline, and the call returns only once
    every process in it has ended.
    """
    with open(os.path.join(workdir, "stdout"), "wb") as out, \
            open(os.path.join(workdir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=workdir, env=child_env(workdir), stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    _kill_group(proc.pid)
    return proc.returncode, wall, usage


def _kill_group(pgid: int) -> None:
    """SIGKILL the session's process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_iteration(steps: list[workloads.Step], traced: bool, deadline: float) -> Iteration:
    it = Iteration(traced)
    spans, procs = [], {}
    for step in steps:
        workdir = make_workdir()
        try:
            out_dir = os.path.join(workdir, "out")
            if traced:
                trace_dir = os.path.join(workdir, "trace")
                os.makedirs(trace_dir)
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), trace_dir]
            else:
                cmd = [sys.executable, "-m", "primeavg.cli"]
            rc, wall, usage = run_process(cmd + step.argv + ["--out-dir", out_dir], workdir, deadline)
            it.wall_s += wall
            it.cpu_s += usage.ru_utime + usage.ru_stime
            # ru_maxrss of a reaped child covers it and the workers it reaped (KiB on Linux).
            it.peak_rss_mb = max(it.peak_rss_mb, usage.ru_maxrss / 1024.0)
            if os.path.isdir(out_dir):
                it.artifact_bytes += sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
            command = step.argv[0]
            it.checks.update({f"{command}.{k}": v for k, v in step.oracle(rc, out_dir).items()})
            if traced:
                step_spans, step_procs = tracer.load(trace_dir)
                spans += step_spans
                procs.update(step_procs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        it.layers = tracer.layer_metrics(spans, procs)
        it.layers["cli.artifact_bytes"] = float(it.artifact_bytes)
    return it


def time_import(deadline: float) -> float:
    """Wall time of a fresh interpreter importing every primeavg module."""
    code = "import importlib\nfor m in %r: importlib.import_module('primeavg.' + m)" % (tracer.LAYERS,)
    workdir = make_workdir()
    try:
        rc, wall, _ = run_process([sys.executable, "-c", code], workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0:
        raise RuntimeError("importing primeavg failed")
    return wall


def measure(steps: list[workloads.Step], seconds: float, trace: bool, deadline: float) -> list[Iteration]:
    """Iterations for about `seconds` (traced ones alternate when tracing).

    Untraced iterations start with one set-up sample, so set-up time is
    sampled across the whole run rather than in one burst.
    """
    start = time.monotonic()
    iterations: list[Iteration] = []
    while True:
        elapsed = time.monotonic() - start
        last = iterations[-1].wall_s if iterations else 0.0
        if len(iterations) >= (2 if trace else 1) and (
            elapsed + last / 2 >= seconds or elapsed + last > TIME_LIMIT_S
        ):
            break
        traced = trace and len(iterations) % 2 == 0
        setup_s = None if trace else time_import(deadline)
        iterations.append(run_iteration(steps, traced, deadline))
        iterations[-1].setup_s = setup_s
    return iterations


def end_to_end(iterations: list[Iteration], deadline: float) -> dict[str, float]:
    setup = [i.setup_s for i in iterations]
    setup += [time_import(deadline) for _ in range(SETUP_SAMPLES - len(setup))]
    return {
        "wall_s": statistics.median(i.wall_s for i in iterations),
        "cpu_s": statistics.median(i.cpu_s for i in iterations),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in iterations),
        "setup_s": statistics.median(setup),
    }


def per_layer(iterations: list[Iteration]) -> dict[str, float]:
    traced = [i for i in iterations if i.traced]
    untraced = [i for i in iterations if not i.traced]
    names = set().union(*(i.layers for i in traced))
    out = {name: statistics.median(i.layers.get(name, 0.0) for i in traced) for name in names}
    out["trace.overhead_s"] = statistics.median(i.wall_s for i in traced) - statistics.median(
        i.wall_s for i in untraced
    )
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def declared_metrics(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "primeavg", "cli.py")):
        print(f"no primeavg sources under {ROOT}/src", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    fixtures, fixture_hash = workloads.load_fixtures(ROOT)
    steps = workloads.WORKLOADS[args.workload](args.seed, fixtures, fixture_hash)

    deadline = time.monotonic() + TIME_LIMIT_S + 25
    iterations = measure(steps, args.seconds, bool(args.trace), deadline)
    values = per_layer(iterations) if args.trace else end_to_end(iterations, deadline)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [s.argv for s in steps],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "fixture_hash": fixture_hash,
    }
    emit(iterations, values, declared, record)
    return 0


def emit(iterations: list[Iteration], values: dict[str, float], declared: list[dict], record: dict) -> None:
    """Print the run record, one line per metric, and the result as the last line."""
    attempted = sum(len(i.checks) for i in iterations)
    failed = sum(not ok for i in iterations for ok in i.checks.values())
    traced = sum(i.traced for i in iterations)
    record = {
        **record,
        "iterations": len(iterations),
        "traced_iterations": traced,
        "wall_s_samples": [round(i.wall_s, 4) for i in iterations],
        "failed_checks": sorted({k for i in iterations for k, ok in i.checks.items() if not ok}),
    }
    print("record " + json.dumps(record))
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g} (checks)")
    if traced:
        print(f"per-layer values: medians over {traced} traced iterations")
    else:
        print(f"end-to-end values: medians over {len(iterations)} iterations; "
              f"setup_s over {max(SETUP_SAMPLES, len(iterations))} imports")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"{name} = {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
