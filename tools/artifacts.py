"""Write the artifacts of a primeavg source tree, and compare two such runs file by file.

    python3 tools/artifacts.py run --out DIR [--root TREE]
    python3 tools/artifacts.py compare DIR_A DIR_B

`run` runs the primeavg of TREE (default: the tree holding this script) from
TREE/src, each command in a fresh process and into its own directory under DIR:

- readme/:   the nine command lines of README's "Command line" block;
- bench/:    the benchmark's commands at seeds 1, 2 and 3, as perfbench/workloads.py builds
             them, under bench/seed<n>/;
- fixtures/: measure_fixture.json, the repr of every fixtures.RECIPES value, measured
             in one process with one BLAS/OpenMP thread and warnings off (their
             text holds the tree's path).

Each command directory holds the command's CSV and JSON artifacts and its
stdout.txt and stderr.txt.  DIR/manifest.json records a sha256 per file, each
command's argv and exit code, and the thread variables of the runs.

`compare` reads two manifests and reports each file as identical or moved: a
moved CSV by the rows moved per column with the largest absolute and
relative change, a moved JSON by each differing key with both values.  It
exits 0 when every file and exit code is the same, else 1.  To compare two
commits, run each from its own `git archive` copy with --root.

Standard library and numpy only (numpy through primeavg itself).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_SEEDS = (1, 2, 3)
MEASURE = (
    "import json, sys\n"
    "from primeavg.fixtures import RECIPES, measure_fixture\n"
    "json.dump({name: repr(measure_fixture(name)) for name in sorted(RECIPES)}, sys.stdout, indent=1)\n"
)


# ---------------------------------------------------------------------------
# run


def readme_commands(root: pathlib.Path) -> list[list[str]]:
    """The argv after `primeavg` of each line of the sh block under README's "Command line"."""
    text = (root / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("primeavg ")]


def bench_commands(root: pathlib.Path, seed: int) -> list[tuple[str, list[str]]]:
    """(workload, argv) of every step of the benchmark's workloads at seed, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    fixtures, digest = workloads.load_fixtures(str(root))
    return [
        (name, step.argv)
        for name, build in workloads.WORKLOADS.items()
        for step in build(seed, fixtures, digest)
    ]


def _env(root: pathlib.Path, threads: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(threads or {})
    return env


def _run(args: list[str], out: pathlib.Path, env: dict) -> int:
    """Run args with its cwd at out, stdout and stderr into out; the exit code."""
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        return subprocess.run(args, cwd=out, env=env, stdout=stdout, stderr=stderr).returncode


def command_lines(root: pathlib.Path) -> dict[str, list[str]]:
    """The argv after `primeavg` of every command `run` writes, by its directory under the run's DIR."""
    found = {f"readme/{i:02d}-{argv[0]}": argv for i, argv in enumerate(readme_commands(root), 1)}
    for seed in BENCH_SEEDS:
        steps = enumerate(bench_commands(root, seed), 1)
        found.update({f"bench/seed{seed}/{i:02d}-{name}-{argv[0]}": argv for i, (name, argv) in steps})
    return found


def run(root: pathlib.Path, out: pathlib.Path) -> dict:
    """Write every artifact of root under out, and out/manifest.json; the manifest."""
    out.mkdir(parents=True, exist_ok=False)
    cli = [sys.executable, "-m", "primeavg.cli"]
    commands = command_lines(root)
    codes = {}
    for name, argv in commands.items():
        codes[name] = _run([*cli, *argv, "--out-dir", "."], out / name, _env(root))
        print(f"exit {codes[name]}  {name}", file=sys.stderr)
    pinned = dict.fromkeys(THREAD_VARS, "1")
    codes["fixtures"] = _run([sys.executable, "-W", "ignore", "-c", MEASURE], out / "fixtures", _env(root, pinned))
    os.replace(out / "fixtures" / "stdout.txt", out / "fixtures" / "measure_fixture.json")
    print(f"exit {codes['fixtures']}  fixtures", file=sys.stderr)
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    manifest = {
        "commands": {name: ["primeavg", *argv] for name, argv in commands.items()},
        "exit_codes": codes,
        "threads": {
            "commands": {var: os.environ.get(var) for var in THREAD_VARS},
            "fixtures": pinned,
        },
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# compare


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_moves(a: str, b: str) -> list[str]:
    """Per column: the rows moved, and for numbers the largest absolute and relative change."""
    rows_a, rows_b = list(csv.DictReader(a.splitlines())), list(csv.DictReader(b.splitlines()))
    lines = [] if len(rows_a) == len(rows_b) else [f"rows {len(rows_a)} -> {len(rows_b)}"]
    columns = list(dict.fromkeys([*(rows_a[0] if rows_a else {}), *(rows_b[0] if rows_b else {})]))
    for column in columns:
        moved, changes = 0, []
        for ra, rb in zip(rows_a, rows_b):
            va, vb = ra.get(column), rb.get(column)
            if va == vb:
                continue
            moved += 1
            x, y = _number(va or ""), _number(vb or "")
            if x is not None and y is not None:
                changes.append((abs(y - x), abs(y - x) / abs(x) if x else math.inf))
        if changes:
            largest_abs, largest_rel = max(c[0] for c in changes), max(c[1] for c in changes)
            lines.append(f"{column}: {moved} rows moved, max abs {largest_abs:.3g}, max rel {largest_rel:.3g}")
        elif moved:
            lines.append(f"{column}: {moved} rows moved")
    return lines


def _flatten(value, prefix: str = "") -> dict:
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in _flatten(item, f"{prefix}{key}.").items()}
    return {prefix.rstrip("."): value}


def json_moves(a: str, b: str) -> list[str]:
    """Each key, nested keys dotted, whose value differs: both values."""
    fa, fb = _flatten(json.loads(a)), _flatten(json.loads(b))
    show = lambda flat, key: repr(flat[key]) if key in flat else "(absent)"
    return [
        f"{key}: {show(fa, key)} -> {show(fb, key)}"
        for key in sorted(set(fa) | set(fb))
        if show(fa, key) != show(fb, key)
    ]


def text_moves(a: str, b: str) -> list[str]:
    la, lb = a.splitlines(), b.splitlines()
    diff = [i for i, (x, y) in enumerate(zip(la, lb), 1) if x != y]
    head = [] if len(la) == len(lb) else [f"lines {len(la)} -> {len(lb)}"]
    return head + ([f"{len(diff)} lines differ, first at line {diff[0]}"] if diff else [])


def compare(dir_a: pathlib.Path, dir_b: pathlib.Path) -> tuple[list[str], bool]:
    """The report lines of two runs, and whether every file and exit code is the same."""
    ma, mb = (json.loads((d / "manifest.json").read_text()) for d in (dir_a, dir_b))
    report = [
        f"exit code moved  {name}: {ma['exit_codes'].get(name)} -> {mb['exit_codes'].get(name)}"
        for name in sorted(set(ma["exit_codes"]) | set(mb["exit_codes"]))
        if ma["exit_codes"].get(name) != mb["exit_codes"].get(name)
    ]
    codes_same = not report
    counts = {"identical": 0, "moved": 0, "missing": 0}
    for path in sorted(set(ma["files"]) | set(mb["files"])):
        ha, hb = ma["files"].get(path), mb["files"].get(path)
        if ha == hb:
            counts["identical"] += 1
            report.append(f"identical  {path}")
            continue
        if ha is None or hb is None:
            counts["missing"] += 1
            report.append(f"missing    {path}: only in {'B' if ha is None else 'A'}")
            continue
        counts["moved"] += 1
        a, b = ((d / path).read_text() for d in (dir_a, dir_b))
        moves = csv_moves if path.endswith(".csv") else json_moves if path.endswith(".json") else text_moves
        try:
            details = moves(a, b)
        except ValueError:  # not the JSON its name says
            details = text_moves(a, b)
        report.append(f"moved      {path}")
        report += [f"    {line}" for line in details]
    if ma.get("threads") != mb.get("threads"):
        report.append(f"threads differ: {ma.get('threads')} -> {mb.get('threads')}")
    report.append(", ".join(f"{n} {k}" for k, n in counts.items()) + f"; exit codes {'same' if codes_same else 'moved'}")
    return report, codes_same and not counts["moved"] and not counts["missing"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)
    p = subs.add_parser("run", help="write the artifacts of a source tree")
    p.add_argument("--out", required=True, type=pathlib.Path, help="new directory for the artifacts")
    p.add_argument("--root", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1],
                   help="source tree whose src/, README.md and perfbench/ are read")
    p = subs.add_parser("compare", help="compare two runs file by file")
    p.add_argument("a", type=pathlib.Path)
    p.add_argument("b", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.out.exists():
            parser.error(f"--out {args.out} exists; give a new directory")
        manifest = run(args.root.resolve(), args.out.resolve())
        return 0 if all(code in (0, 1) for code in manifest["exit_codes"].values()) else 1
    report, same = compare(args.a, args.b)
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
