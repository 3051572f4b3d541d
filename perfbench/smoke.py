"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload, in both tracing modes, it asserts that the run exits 0,
that every check passes, and that the last stdout line names exactly the
metrics BENCHMARK.json lists for that mode, each with its unit.  A traced
run must also have written its span file.  The transcript hash for seed 0
must equal the recorded one.  Last, a copy of the benchmark without the
semfed sources must exit non-zero and print no result.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke failed: {message}")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    recorded = json.loads((HERE / "expected_hashes.json").read_text(encoding="utf-8"))["tiny"]
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            where = f"{workload} --trace {trace}"
            _expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-1])
            _expect(set(report) == {"correct", "attempted", "failed", "metrics"}, where)
            _expect(report["correct"] and report["failed"] == 0 and report["attempted"] >= 1, where)
            printed = {name: m["unit"] for name, m in report["metrics"].items()}
            _expect(printed == wanted[trace], f"{where}: metrics {printed} != {wanted[trace]}")
            _expect(all(isinstance(m["value"], (int, float)) for m in report["metrics"].values()), where)
            hash_line = next(line for line in lines if line.startswith("transcript_sha256 "))
            _expect(hash_line.split()[-1] == recorded[workload]["0"], f"{where}: {hash_line}")
            if trace:
                span_file = Path(next(line for line in lines if line.startswith("spans ")).split(" ", 1)[1])
                _expect(span_file.is_file() and span_file.stat().st_size > 0, where)
            print(f"ok {where}: {len(printed)} metrics, {report['attempted']} operations")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("consensus-wide", 0, cwd=bare)
    _expect(proc.returncode != 0 and proc.stdout == "", "a copy without src/semfed must fail silently")
    shutil.rmtree(bare)
    print("ok without src/semfed: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
