"""tools/artifacts.py: the commands `run` writes, and `compare` reporting each file identical or moved."""

import hashlib
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _artifacts():
    spec = importlib.util.spec_from_file_location("artifacts_tool", ROOT / "tools" / "artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(path: pathlib.Path, files: dict[str, str], codes: dict[str, int]) -> pathlib.Path:
    """A run directory as `run` leaves it: the files and a manifest of their sha256."""
    for name, text in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}
    manifest = {"commands": {}, "exit_codes": codes, "threads": {}, "files": digests}
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def test_compare_reports_identical_and_moved_files(tmp_path):
    tool = _artifacts()
    same = {"readme/09-sw/stdout.txt": "ok\n"}
    a = _write_run(tmp_path / "a", {
        **same,
        "readme/09-sw/sw.csv": "x,psi,tag\n10,1.0,p\n20,2.0,q\n30,4.0,r\n",
        "readme/09-sw/sw.json": json.dumps({"y": 3, "summary": {"stable": True, "ratio": 0.5}}),
    }, {"readme/09-sw": 0})
    b = _write_run(tmp_path / "b", {
        **same,
        "readme/09-sw/sw.csv": "x,psi,tag\n10,1.0,p\n20,2.5,q\n30,3.0,s\n",
        "readme/09-sw/sw.json": json.dumps({"y": 3, "summary": {"stable": False, "ratio": 0.5}, "extra": 1}),
    }, {"readme/09-sw": 1})
    report, identical = tool.compare(a, b)
    assert not identical
    assert report == [
        "exit code moved  readme/09-sw: 0 -> 1",
        "identical  readme/09-sw/stdout.txt",
        "moved      readme/09-sw/sw.csv",
        "    psi: 2 rows moved, max abs 1, max rel 0.25",
        "    tag: 1 rows moved",
        "moved      readme/09-sw/sw.json",
        "    extra: (absent) -> 1",
        "    summary.stable: True -> False",
        "1 identical, 2 moved, 0 missing; exit codes moved",
    ]
    report, identical = tool.compare(a, a)
    assert identical and report[-1] == "3 identical, 0 moved, 0 missing; exit codes same"


def test_run_writes_the_benchmark_commands_at_seeds_1_2_and_3():
    # each seed's steps get a directory of their own, and each argv carries its seed
    tool = _artifacts()
    lines = tool.command_lines(ROOT)
    for seed in (1, 2, 3):
        at_seed = {name: argv for name, argv in lines.items() if name.startswith(f"bench/seed{seed}/")}
        assert [argv for _, argv in tool.bench_commands(ROOT, seed)] == list(at_seed.values())
        assert {name.rsplit("-", 2)[1] for name in at_seed} == {"verify", "spectral", "scan"}
        assert all(argv[argv.index("--seed") + 1] == str(seed) for argv in at_seed.values())
    assert len(lines) == len(tool.readme_commands(ROOT)) + 3 * len(tool.bench_commands(ROOT, 1))
