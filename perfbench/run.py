"""semfed benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload markov-federation --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; semfed is imported from ``src/`` of that
checkout.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer split.  See README.md here for
the workloads, the metrics and which layer should move which metric.

Workers run one after another (``worker.py``), so the load is one process
with no threads:

* ``--trace 0``: two measuring workers of ``--seconds``/2 each, under
  PYTHONHASHSEED 0 and 1, then three set-up-only workers.  Every
  worker's set-up is timed, and ``setup_s`` is the median of the five.
* ``--trace 1``: one untraced measuring worker (PYTHONHASHSEED 0) and one
  traced worker (PYTHONHASHSEED 1), ``--seconds``/2 each.

Every operation's transcript hash must equal the first one seen for the
same key, whichever worker, hash seed or tracing mode produced it; for
seeds listed in ``expected_hashes.json`` the run's hash must also equal the
recorded one.  Any failed check, exception or worker crash counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("markov-federation", "scripted-replay", "consensus-wide")
HASH_SEEDS = ("0", "1")
SETUP_ONLY_WORKERS = 3
# Every run, workers included, ends within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "responses_per_s": "1/s",
    "prompt_latency_ms.p50": "ms",
    "prompt_latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "clients.generate_s": "s",
    "clients.generate_calls": "count",
    "clients.tokens_out": "count",
    "clients.train_s": "s",
    "clients.train_examples": "count",
    "encoder.encode_s": "s",
    "encoder.texts": "count",
    "encoder.ngrams": "count",
    "encoder.distinct_text_share": "ratio",
    "encoder.zero_vectors": "count",
    "consensus.dbscan_s": "s",
    "consensus.select_s": "s",
    "consensus.representative_s": "s",
    "consensus.self_s": "s",
    "consensus.pairs": "count",
    "consensus.clusters": "count",
    "consensus.fallback_prompts": "count",
    "protocol.meter_s": "s",
    "protocol.self_s": "s",
    "protocol.uploaded_bytes": "bytes",
    "protocol.downloaded_bytes": "bytes",
    "protocol.prompt_errors": "count",
    "cli.load_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Run:
    """Starts workers for one benchmark run and gathers their results."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.work = HERE / ".work" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def worker(self, mode: str, hash_seed: str, seconds: float = 0.0) -> dict | None:
        """Run one worker to completion; None, counted as a failed op, if it crashed."""
        self.count += 1
        name = f"{self.count}-{mode}"
        result_path = self.work / f"{name}.json"
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--mode", mode,
            "--seconds", str(seconds),
            "--work", str(self.work / name),
            "--result", str(result_path),
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"{name}: worker timed out")
        if proc.returncode != 0 or not result_path.is_file():
            return self.fail(f"{name}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.attempted += 1
        self.failed += 1
        return None

    def check_ops(self, results: list[dict]) -> list[dict]:
        """Count ops and failures; return the ops that passed every check.

        An op whose hash differs from the first one seen for its key is
        marked failed in place.
        """
        reference: dict[str, str] = {}
        good = []
        for result in results:
            for op in result["ops"]:
                self.attempted += 1
                if op["ok"]:
                    expected = reference.setdefault(op["key"], op["hash"])
                    if op["hash"] != expected:
                        op["ok"] = False
                        op["error"] = f"{op['key']}: transcript hash {op['hash']} differs from {expected}"
                if op["ok"]:
                    good.append(op)
                else:
                    self.failed += 1
                    self.failures.append(op["error"])
        self.reference = reference
        return good

    def check_recorded_hash(self, keys: list[str]) -> str | None:
        """Hash over all keys; compared with the recorded one when there is one."""
        if not keys or any(k not in self.reference for k in keys):
            return None
        run_hash = hashlib.sha256("".join(self.reference[k] for k in keys).encode()).hexdigest()
        recorded = json.loads((HERE / "expected_hashes.json").read_text(encoding="utf-8"))
        expected = recorded.get(self.args.size, {}).get(self.args.workload, {}).get(str(self.args.seed))
        if expected is not None:
            self.attempted += 1
            if run_hash != expected:
                self.failed += 1
                self.failures.append(f"transcript hash {run_hash} differs from the recorded {expected}")
        return run_hash


def _per_key(samples, reduce) -> dict:
    """``reduce`` over the values of each key in (key, value) samples."""
    grouped: dict = {}
    for key, value in samples:
        grouped.setdefault(key, []).append(value)
    return {key: reduce(values) for key, values in grouped.items()}


def _rate(ops: list[dict]) -> float:
    """Median over keys of responses per second.

    A key's time is the sum of its parts (each round, and the rest of the
    session) at their median over repeats, in free-core seconds.
    """
    parts = _per_key(
        (((op["key"], i), seconds) for op in ops for i, seconds in enumerate(op["parts_s"])), statistics.median
    )
    times: dict = {}
    for (key, _), seconds in parts.items():
        times[key] = times.get(key, 0.0) + seconds
    return statistics.median(ops[0]["responses"] / seconds for seconds in times.values())


def end_to_end(measured: list[dict], setups: list[float], ops: list[dict]) -> dict:
    latencies = sorted(
        _per_key(
            (((op["key"], i), ms) for op in ops for i, ms in enumerate(op["latencies_ms"])), statistics.median
        ).values()
    )
    return {
        "responses_per_s": _rate(ops),
        "prompt_latency_ms.p50": statistics.median(latencies),
        "prompt_latency_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["maxrss_kb"] for r in measured) / 1024.0,
    }


def per_layer(untraced_ops: list[dict], traced: dict, traced_ops: list[dict]) -> dict:
    import spans

    n = len(traced["ops"])
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer_total = 0.0
    for span_name, seconds in traced["self_s"].items():
        metrics[spans.SELF_TIME_METRIC[span_name]] += seconds
        layer_total += seconds
    for name, value in traced["counts"].items():
        metrics[name] = value
    for name in metrics:
        metrics[name] /= n
    metrics["encoder.distinct_text_share"] = traced["properties"]["distinct_text_share"]
    traced_wall = sum(op["wall"] for op in traced["ops"])
    metrics["trace.coverage"] = layer_total / traced_wall
    untraced_best = _per_key(((op["key"], op["net_s"]) for op in untraced_ops), min)
    traced_best = _per_key(((op["key"], op["net_s"]) for op in traced_ops), min)
    metrics["trace.overhead"] = statistics.median(
        traced_best[key] / untraced_best[key] for key in traced_best if key in untraced_best
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke run")
    args = parser.parse_args()
    if not (ROOT / "src" / "semfed" / "__init__.py").is_file():
        sys.stderr.write(f"error: {ROOT} has no src/semfed; run from a semfed checkout\n")
        return 2

    run = Run(args)
    half = args.seconds / 2
    traced = None
    if args.trace == 0:
        results = [run.worker("measure", seed, half) for seed in HASH_SEEDS]
        setups = [run.worker("setup", HASH_SEEDS[0]) for _ in range(SETUP_ONLY_WORKERS)]
    else:
        untraced = run.worker("measure", HASH_SEEDS[0], half)
        traced = run.worker("trace", HASH_SEEDS[1], half)
        results = [untraced, traced]
    results = [r for r in results if r is not None]
    passed = run.check_ops(results)
    keys = sorted({op["key"] for r in results for op in r["ops"]})
    run_hash = run.check_recorded_hash(keys)

    metrics = {}
    if args.trace == 0 and passed:
        setup_times = [r["setup_s"] for r in results + setups if r is not None]
        metrics = end_to_end(results, setup_times, passed)
    elif args.trace == 1 and untraced is not None and traced is not None:
        untraced_ops = [op for op in untraced["ops"] if op["ok"]]
        traced_ops = [op for op in traced["ops"] if op["ok"]]
        if untraced_ops and traced_ops:
            metrics = per_layer(untraced_ops, traced, traced_ops)
    if not metrics:
        run.fail("no operation passed its checks, so nothing could be measured")

    for message in run.failures[:3]:
        sys.stderr.write(f"check failed: {message[-1500:]}\n")
    if results:
        print("inputs " + json.dumps(results[0]["properties"], sort_keys=True))
    print(f"transcript_sha256 {args.workload} seed={args.seed} size={args.size} {run_hash}")
    if traced is not None:
        print(f"spans {traced['spans_file']}")
    print(f"failed_share {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    report = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(report))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
