"""One benchmark process: set up a workload, run it, check its outputs.

Started by ``run.py``, one worker at a time, so the load is one process
with no threads.  Modes:

* ``setup``: imports and input generation only; reports their time.
* ``measure``: runs operations untraced until ``--seconds`` have passed.
* ``trace``: the same under ``spans.instrument``; writes the spans file.

An operation is one ``semfed simulate`` session, called in process
through ``semfed.cli.main``, or for consensus-wide one
``consensus_for_prompt`` call.  Every operation's outputs are checked and
hashed; the result goes to ``--result`` as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Seconds that Probe() takes on a free core of the 2-core box the benchmark
# was tuned on.  A timing t measured next to a probe that took p seconds is
# reported as t * REFERENCE_PROBE_S / p: the time it would have taken on
# that free core.  README.md explains why.
REFERENCE_PROBE_S = 4.5e-4
# How often the probe samples the core while an untraced run measures.
PROBE_PERIOD_S = 0.1


def _import_semfed():
    """Import semfed from this checkout's source tree, never from elsewhere."""
    if not (SRC / "semfed" / "__init__.py").is_file():
        raise SystemExit(f"error: no semfed source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import semfed
    import semfed.cli

    if Path(semfed.__file__).resolve().parent != SRC / "semfed":
        raise SystemExit(f"error: imported semfed from {semfed.__file__}, not {SRC}")
    return semfed


class CheckFailed(Exception):
    """An output check failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _distinct_share(groups) -> float:
    """Mean over groups of distinct texts / texts."""
    return statistics.fmean(len(set(texts)) / len(texts) for texts in groups)


class SessionWorkload:
    """A ``semfed simulate`` session on generated files."""

    def __init__(self, name: str, seed: int, sizes: dict, work: Path) -> None:
        import inputs

        self.sizes = sizes
        self.work = work
        self.out_dir = work / "out"
        if name == "markov-federation":
            self.config = inputs.markov_federation(seed, work, sizes)
            self.script = None
        else:
            self.config = inputs.scripted_replay(seed, work, sizes)
            self.script = {}
            with open(work / "scripts.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    self.script[(row["client"], row["round"], row["prompt_id"])] = row["response"]
        self.rounds = sizes["rounds"]
        self.responses = sizes["clients"] * sizes["prompts"] * self.rounds
        self.keys = ["session"]
        self.properties: dict = {}

    def run(self, key: str, semfed) -> None:
        argv = ["simulate", "--config", str(self.config), "--output", str(self.out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = semfed.cli.main(argv)
        _require(code == 0, f"simulate exited {code}: {stderr.getvalue().strip()}")

    def check(self, key: str) -> str:
        """Check the round transcripts; return their sha256."""
        digest = hashlib.sha256()
        k, m = self.sizes["clients"], self.sizes["prompts"]
        groups, sizes = [], []
        for r in range(1, self.rounds + 1):
            path = self.out_dir / f"round_{r:04d}.json"
            raw = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + raw)
            t = json.loads(raw)
            responses = t["responses"]
            _require(len(responses) == k * m, f"round {r}: {len(responses)} responses, expected {k * m}")
            by_prompt: dict[str, list[str]] = {}
            for row in responses:
                _require(
                    row["byte_len"] == len(row["text"].encode("utf-8")),
                    f"round {r}: byte_len of client {row['client']} on {row['prompt_id']} is wrong",
                )
                if self.script is not None:
                    _require(
                        row["text"] == self.script[(row["client"], r, row["prompt_id"])],
                        f"round {r}: client {row['client']} did not replay its script",
                    )
                by_prompt.setdefault(row["prompt_id"], []).append(row["text"])
                sizes.append(row["byte_len"])
            groups.extend(by_prompt.values())
            _require(
                t["uploaded_bytes"] == sum(row["byte_len"] for row in responses),
                f"round {r}: uploaded_bytes is not the sum of response byte_len",
            )
            _require(
                t["downloaded_bytes"] == k * sum(len(b["pseudo_label"].encode("utf-8")) for b in t["broadcast"]),
                f"round {r}: downloaded_bytes is not K times the broadcast label bytes",
            )
            texts = {(row["client"], row["prompt_id"]): row["text"] for row in responses}
            for c in t["consensus"]:
                _require(
                    c["pseudo_label"] == texts[(c["representative"], c["prompt_id"])],
                    f"round {r}: pseudo-label of {c['prompt_id']} is not its representative's text",
                )
                _require(c["representative"] in c["members"], f"round {r}: representative outside members")
        if not self.properties:
            self.properties = {
                "K": k,
                "M": m,
                "rounds": self.rounds,
                "mean_response_bytes": statistics.fmean(sizes),
                "distinct_text_share": _distinct_share(groups),
            }
        return digest.hexdigest()


class ConsensusWorkload:
    """``consensus_for_prompt`` on planted families with embeddings built in setup."""

    def __init__(self, seed: int, sizes: dict, semfed) -> None:
        import numpy as np

        import inputs
        from semfed.encoder import EncoderConfig, encode, normalize
        from semfed.protocol import make_response

        self.prompts = inputs.consensus_wide(seed, sizes)
        self.n_families = len(inputs.FAMILY_SHARES)
        config = EncoderConfig()
        embedded: dict[str, object] = {}
        for p in self.prompts:
            p["records"] = [make_response(i, p["prompt_id"], t) for i, t in enumerate(p["texts"])]
            for t in p["texts"]:
                if t not in embedded:
                    embedded[t] = normalize(encode(t, config))
            p["points"] = np.array([embedded[t] for t in p["texts"]])
        self.by_key = {p["prompt_id"]: p for p in self.prompts}
        self.keys = [p["prompt_id"] for p in self.prompts]
        self.responses = sizes["k"]
        self.params = semfed.ClusterParams()
        self.result = None
        self.properties = {
            "K": sizes["k"],
            "M": len(self.prompts),
            "rounds": 1,
            "mean_response_bytes": statistics.fmean(len(t.encode()) for p in self.prompts for t in p["texts"]),
            "distinct_text_share": _distinct_share(p["texts"] for p in self.prompts),
            "family_sizes": [
                [p["families"].count(f) for f in range(self.n_families)] for p in self.prompts
            ],
            "outliers": [p["families"].count(-1) for p in self.prompts],
        }

    def run(self, key: str, semfed) -> None:
        p = self.by_key[key]
        self.result = semfed.consensus.consensus_for_prompt(p["records"], p["points"], self.params)

    def check(self, key: str) -> str:
        """Check against the planted families; return the result's sha256."""
        p, r = self.by_key[key], self.result
        largest = [i for i, f in enumerate(p["families"]) if f == 0]
        _require(not r.fallback_all_outliers, f"{key}: fell back to all outliers")
        _require(
            r.clustering.num_clusters == self.n_families,
            f"{key}: {r.clustering.num_clusters} clusters, planted {self.n_families}",
        )
        _require(list(r.consensus_members) == largest, f"{key}: consensus set is not the largest family")
        _require(
            r.clustering.labels.count(-1) == p["families"].count(-1),
            f"{key}: outlier count differs from the planted outliers",
        )
        _require(r.pseudo_label == p["texts"][r.representative], f"{key}: pseudo-label is not verbatim")
        canonical = {
            "prompt_id": key,
            "labels": list(r.clustering.labels),
            "members": list(r.consensus_members),
            "representative": r.representative,
            "pseudo_label": r.pseudo_label,
            "fallback_all_outliers": r.fallback_all_outliers,
        }
        return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def _setup(args):
    semfed = _import_semfed()
    import inputs

    sizes = inputs.SIZES[args.size][args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "consensus-wide":
        workload = ConsensusWorkload(args.seed, sizes, semfed)
    else:
        workload = SessionWorkload(args.workload, args.seed, sizes, work)
    return semfed, workload, time.perf_counter() - T0


class Probe:
    """A fixed kernel of hashing, dict updates and 384-d dot products.

    It shares no code with semfed, so its time moves only with the speed of
    the core it runs on.  ``start`` runs it from SIGALRM every ``period``
    seconds, in the main thread between bytecodes, so it samples the core
    all through an operation.  Each probe's start and seconds are kept.
    """

    NEAREST = 5

    def __init__(self) -> None:
        import numpy as np

        self.keys = [f"k{i}" for i in range(512)]
        self.vectors = np.random.default_rng(0).standard_normal((128, 384))
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def __call__(self) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        table: dict[str, int] = {}
        for key in self.keys:
            digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
            table[key] = table.get(key, 0) + digest[0]
        total = 0.0
        for i in range(len(self.vectors)):
            total += float(self.vectors[i] @ self.vectors[-1 - i])
        self.at.append(start)
        self.seconds.append(time.perf_counter() - start)
        self._busy = False

    def start(self, period: float) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self())
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def net(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] without the probes that ran inside it."""
        return b - a - sum(self.seconds[bisect.bisect_left(self.at, a) : bisect.bisect_right(self.at, b)])

    def scale(self, a: float, b: float) -> float:
        """REFERENCE_PROBE_S over the median probe inside [a, b].

        Fewer than NEAREST probes inside: the NEAREST last ones before b.
        """
        lo, hi = bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)
        window = self.seconds[lo:hi] if hi - lo >= self.NEAREST else self.seconds[max(0, hi - self.NEAREST) : hi]
        return REFERENCE_PROBE_S / statistics.median(window)


def _stopwatch(semfed) -> dict[str, list[tuple[float, float]]]:
    """Record the (start, end) of each consensus_for_prompt call and round.

    Bare timers, nothing else wrapped: the untraced run's only
    instrumentation.  Returns the interval lists.
    """
    intervals: dict[str, list[tuple[float, float]]] = {"calls": [], "rounds": []}

    def timed(fn, bucket):
        def call(*a, **k):
            t = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                bucket.append((t, time.perf_counter()))

        return call

    consensus = timed(semfed.consensus.consensus_for_prompt, intervals["calls"])
    semfed.consensus.consensus_for_prompt = consensus
    semfed.protocol.consensus_for_prompt = consensus
    semfed.protocol.run_round = timed(semfed.protocol.run_round, intervals["rounds"])
    return intervals


def _run_ops(args, semfed, workload, tracer=None, probe=None):
    """Run operations, cycling over the workload's keys, for --seconds.

    ``wall`` is an op's raw wall time and ``net_s`` the same without the
    probes.  With a probe (untraced runs), each op also gets ``parts_s``,
    its rounds and the rest of it, and ``latencies_ms``, its consensus
    calls, all in free-core time.
    """
    intervals = _stopwatch(semfed) if probe is not None else {}
    ops = []
    start = time.perf_counter()
    n = 0
    while n < len(workload.keys) or time.perf_counter() - start < args.seconds:
        key = workload.keys[n % len(workload.keys)]
        if tracer is not None:
            tracer.op = n
        for bucket in intervals.values():
            bucket.clear()
        op = {"key": key, "responses": workload.responses, "ok": False, "error": None, "hash": None}
        a = time.perf_counter()
        try:
            workload.run(key, semfed)
            b = time.perf_counter()
            op["hash"] = workload.check(key)
            op["ok"] = True
        except CheckFailed as exc:
            op["error"] = str(exc)
        except Exception:
            b = time.perf_counter()
            op["error"] = traceback.format_exc(limit=3)
        op["wall"] = op["net_s"] = b - a
        if probe is not None:
            op["net_s"] = probe.net(a, b)
            rounds = intervals["rounds"]
            rest = op["net_s"] - sum(probe.net(*r) for r in rounds)
            op["parts_s"] = [probe.net(*r) * probe.scale(*r) for r in rounds] + [rest * probe.scale(a, b)]
            op["latencies_ms"] = [probe.net(*c) * probe.scale(*c) * 1e3 for c in intervals["calls"]]
        ops.append(op)
        n += 1
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    semfed, workload, setup_s = _setup(args)
    probe = Probe()
    for _ in range(9):
        probe()
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * probe.scale(0.0, time.perf_counter()), "ops": []}
    if args.mode == "measure":
        probe.start(PROBE_PERIOD_S)
        try:
            result["ops"] = _run_ops(args, semfed, workload, probe=probe)
        finally:
            probe.stop()
    elif args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        with spans.instrument(tracer):
            result["ops"] = _run_ops(args, semfed, workload, tracer)
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        spans_file = Path(args.work) / "spans.jsonl"
        tracer.write_jsonl(spans_file)
        result["spans_file"] = str(spans_file)
    result["properties"] = workload.properties
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
