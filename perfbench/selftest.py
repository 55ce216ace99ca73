"""Self-test of the benchmark at a tiny input size.

Runs every workload untraced and traced, and checks that each metric
named in ``BENCHMARK.json`` is printed with its unit and that no check
failed.  Then it plants failures, a truncated and a rewritten cache
artifact, and checks that the correctness gate counts each of them.
Last, it checks that the benchmark refuses to run, with a non-zero exit
and no result, where the program's sources are missing.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metrics(spec) -> None:
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = _run("--workload", workload["name"], "--seed", "3",
                        "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: value["unit"]
                       for name, value in result["metrics"].items()}
            assert printed == expected, (workload["name"], trace, printed)
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), name
            print(f"selftest: {workload['name']} trace {trace}: "
                  f"{len(printed)} metrics, error_rate 0")


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:100])


def _rewrite(path: Path) -> None:
    """A well-formed artifact whose program differs from the compile's."""
    payload = json.loads(gzip.decompress(path.read_bytes()))
    payload["metrics"]["total_comm"] += 1
    path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8"),
                                   mtime=0))


def check_planted_failures() -> None:
    sys.path.insert(0, str(HERE))
    import run
    run._load_program()
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS["qft-dense"]
    prepared = prepare(workload, 3, "tiny")
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        honest = run.run_pass(prepared, workload, 5, workdir, None, 0)
        assert honest.failed == 0 and honest.complete, honest
        for tamper in (_truncate, _rewrite):
            planted = run.run_pass(prepared, workload, 5, workdir, None, 0,
                                   tamper=tamper)
            assert planted.failed == 1 and not planted.complete, \
                (tamper.__name__, planted.failed)
            failures = planted.programs[0].failures
            assert failures[0].startswith("cache:"), failures
            print(f"selftest: planted {tamper.__name__[1:]} artifact "
                  f"counted as {planted.failed} failed check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_program() -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(bare / HERE.name / RUN.name),
             "--workload", "qft-dense", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, done.returncode
        assert '"correct"' not in done.stdout, done.stdout
        print(f"selftest: without src/ the benchmark exits "
              f"{done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_planted_failures()
    check_refuses_without_program()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
