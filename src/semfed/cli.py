"""Command-line front end.

Subcommands cover the five workflows: ``simulate`` runs a full
multi-round session from a JSON config, ``consensus`` runs the
per-prompt pipeline on a JSONL response dump, ``cost`` evaluates the
communication calculators, ``bound`` evaluates the convergence bound,
and ``privacy`` composes per-round budgets from a CSV.

Reports go to stdout as canonically serialized JSON (sorted keys);
diagnostics go to stderr.  Every report echoes the command, its
effective inputs, the seed in play, and the package version, so a
report is reproducible from its own header.  Exit status is 0 when the
requested computation completed (per-prompt consensus errors inside a
run do not fail the process) and 2 for unusable inputs or config.
Commands signal bad input by raising ValueError, OSError or
OverflowError; ``main`` alone turns those into an ``error:`` line and
exit 2, and lets any other exception through as the bug it is.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .clients import (
    Client,
    MarkovToyClient,
    PrivateDataset,
    TrainingWeights,
    load_private_datasets,
    load_scripted_clients,
)
from .consensus import ClusterParams, SelectionRule, SelectionStrategy
from .costmodel import (
    PRESETS,
    TextRoundCostSpec,
    SubsampleCostSpec,
    comparison_report,
    text_round_bytes,
    subsample_bytes,
    _check_positive,
)
from .encoder import EncoderConfig, load_embeddings_jsonl
from .jsonl import check_value, read_rows
from .privacy import load_ledgers_csv, total_budget
from .protocol import (
    ConfigError,
    PublicPromptSet,
    SessionParams,
    consensus_phase,
    encode_responses,
    make_response,
    report_to_dict,
    run_session,
    transcript_json,
    # Not called here; it stays importable from this module for tools that
    # wrap the transcript writer by that name.
    transcript_to_dict,
)
from .theory import (
    GapParams,
    StationarityParams,
    delta_T,
    stationarity_rhs,
)

__all__ = ["main"]

_STRATEGY_NAMES = {rule.value: rule for rule in SelectionRule}


def _dumps(obj: dict) -> str:
    """Canonical JSON text of ``obj``; a non-finite number raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(report: dict) -> int:
    """Print ``report`` as canonical JSON; a non-finite number raises ValueError."""
    try:
        text = _dumps(report)
    except ValueError as exc:
        raise ValueError(f"report is not valid JSON: {exc}") from exc
    sys.stdout.write(text)
    return 0


def _flags(args: argparse.Namespace, *omit: str) -> dict:
    """The parsed flags of a subcommand, keyed by destination, for its inputs echo."""
    return {k: v for k, v in vars(args).items() if k not in {"command", "func", *omit}}


def _report(command: str, inputs: dict, outputs: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
    }


# ---------------------------------------------------------------- simulate


# Each optional config key: its JSON type and default, or a nested table
# for an object key.  Resolved, this is both the session's settings and
# the report's inputs echo; defaults come from the dataclasses that own them.
_SETTINGS: dict = {
    "rounds": (int, 1),
    "prompt_budget": (int, 500),
    "eps": (float, ClusterParams().eps),
    "min_pts": (int, ClusterParams().min_pts),
    "strategy": (str, SelectionStrategy().rule.value),
    "encoder": {
        "dimension": (int, EncoderConfig().dimension),
        "ngram": (int, EncoderConfig().ngram_size),
        "seed": (int, EncoderConfig().seed),
        "lowercase": (bool, EncoderConfig().lowercase),
    },
    "weights": {"alpha": (float, TrainingWeights().alpha), "beta": (float, TrainingWeights().beta)},
    "max_tokens": (int, SessionParams().max_tokens),
    "retrain_private_every_round": (bool, SessionParams().retrain_private_every_round),
}
_CONFIG_KEYS = {*_SETTINGS, "clients", "prompt_file", "seed", "strategy_seed", "dp"}


def _get(raw: dict, key: str, kind: type, default=None):
    """``raw[key]``, or ``default`` when absent, checked by ``jsonl.check_value``."""
    return check_value(raw.get(key, default), kind, key)


def _object(value, what: str, allowed: set[str]) -> dict:
    """``value`` when it is a JSON object with no key outside ``allowed``."""
    check_value(value, dict, what)
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def _resolve(raw: dict, table: dict) -> dict:
    """Every key of ``table`` read from ``raw`` or defaulted, and type-checked."""
    resolved = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            resolved[key] = _resolve(_object(raw.get(key, {}), key, set(spec)), spec)
        else:
            resolved[key] = _get(raw, key, *spec)
    return resolved


def _build_clients(
    config: dict, base_dir: Path, seed: int
) -> tuple[list[Client], list[PrivateDataset] | None, dict]:
    """Construct clients (and any private data) from the config."""
    raw = config.get("clients")
    if raw is None:
        raise ConfigError("config must declare clients")
    if type(raw) is int:
        raw = {"type": "markov", "count": raw}
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigError("clients must be an int or an object with a type field")
    kind = raw["type"]
    if kind == "scripted":
        _object(raw, "scripted-client", {"type", "path"})
        if "path" not in raw:
            raise ConfigError("scripted clients need a path")
        path = _get(raw, "path", str)
        clients = list(load_scripted_clients(base_dir / path))
        echo = {"type": "scripted", "path": path, "count": len(clients)}
        return clients, None, echo
    if kind == "markov":
        _object(raw, "markov-client", {"type", "count", "order", "private_file"})
        count = _get(raw, "count", int, 0)
        if count < 1:
            raise ConfigError(f"markov clients need count >= 1, got {count}")
        order = _get(raw, "order", int, 1)
        clients = [MarkovToyClient(order=order, seed=seed + i) for i in range(count)]
        private = None
        echo = {"type": "markov", "count": count, "order": order}
        if "private_file" in raw:
            echo["private_file"] = _get(raw, "private_file", str)
            private = load_private_datasets(base_dir / echo["private_file"], count)
        return list(clients), private, echo
    raise ConfigError(f"unknown client type {kind!r}; expected scripted or markov")


def _load_config(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _object(config, "config", _CONFIG_KEYS)


def cmd_simulate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = _load_config(config_path)
    base_dir = config_path.parent
    settings = _resolve(config, _SETTINGS)
    seed = _get(config, "seed", int, 0)
    if args.seed is not None:
        seed = args.seed
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if "prompt_file" not in config:
        raise ConfigError("config must declare prompt_file")
    prompt_file = _get(config, "prompt_file", str)
    budget = settings["prompt_budget"]
    if budget < 1:
        raise ConfigError(f"prompt_budget must be >= 1, got {budget}")
    prompts = PublicPromptSet.from_jsonl(base_dir / prompt_file, limit=budget)
    if len(prompts) == 0:
        raise ConfigError("prompt file contains no prompts")
    clients, private, clients_echo = _build_clients(config, base_dir, seed)
    dp = None
    if "dp" in config:
        raw_dp = config["dp"]
        if not isinstance(raw_dp, dict) or set(raw_dp) != {"epsilon", "delta"}:
            raise ConfigError("dp must be an object with exactly epsilon and delta")
        dp = {key: _get(raw_dp, key, float) for key in ("epsilon", "delta")}
    strategy = settings["strategy"]
    if strategy not in _STRATEGY_NAMES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; expected one of {sorted(_STRATEGY_NAMES)}"
        )
    strategy_seed = _get(config, "strategy_seed", int, seed)
    encoder = settings["encoder"]
    params = SessionParams(
        encoder=EncoderConfig(
            dimension=encoder["dimension"],
            ngram_size=encoder["ngram"],
            seed=encoder["seed"],
            lowercase=encoder["lowercase"],
        ),
        cluster=ClusterParams(eps=settings["eps"], min_pts=settings["min_pts"]),
        strategy=SelectionStrategy(_STRATEGY_NAMES[strategy], strategy_seed),
        weights=TrainingWeights(**settings["weights"]),
        max_tokens=settings["max_tokens"],
        retrain_private_every_round=settings["retrain_private_every_round"],
        dp_round_budget=None if dp is None else (dp["epsilon"], dp["delta"]),
    )
    report = run_session(clients, prompts, settings["rounds"], params, private)

    inputs_echo = {
        **settings,
        "config_file": str(config_path),
        "clients": clients_echo,
        "prompt_file": prompt_file,
        "prompts_used": len(prompts),
        "strategy_seed": strategy_seed,
        "dp": dp,
    }
    session = _report("simulate", inputs_echo, report_to_dict(report), seed)

    # Write every file before printing, so a failed run leaves stdout empty.
    try:
        text = _dumps(session)
        if args.output is not None:
            out_dir = Path(args.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            for transcript in report.transcripts:
                path = out_dir / f"round_{transcript.round_index:04d}.json"
                path.write_text(transcript_json(transcript), encoding="utf-8")
            (out_dir / "session.json").write_text(text, encoding="utf-8")
    except (ValueError, OSError) as exc:
        raise ValueError(f"cannot write the report: {exc}") from exc
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- consensus


def _read_response_rows(path: Path) -> dict[str, dict[int, str]]:
    """Group {prompt_id, client_id, response} JSONL rows by prompt, then client."""
    grouped: dict[str, dict[int, str]] = {}
    for lineno, (prompt_id, client_id, response) in read_rows(
        path, prompt_id=str, client_id=int, response=str
    ):
        bucket = grouped.setdefault(prompt_id, {})
        if client_id in bucket:
            raise ValueError(
                f"{path}:{lineno}: duplicate client {client_id} for prompt {prompt_id!r}"
            )
        bucket[client_id] = response
    if not grouped:
        raise ValueError(f"{path}: no response rows found")
    return grouped


def cmd_consensus(args: argparse.Namespace) -> int:
    grouped = _read_response_rows(Path(args.input))
    encoder_config = EncoderConfig(
        dimension=args.dimension,
        ngram_size=args.ngram,
        seed=args.encoder_seed,
        lowercase=args.lowercase,
    )
    params = ClusterParams(eps=args.eps, min_pts=args.min_pts)
    strategy = SelectionStrategy(
        rule=_STRATEGY_NAMES[args.strategy],
        seed=SelectionStrategy().seed if args.seed is None else args.seed,
    )
    external = None
    if args.embeddings is not None:
        external = load_embeddings_jsonl(args.embeddings)

    results = []
    for prompt_id in sorted(grouped):
        answers = sorted(grouped[prompt_id].items())
        records = [make_response(client, prompt_id, text) for client, text in answers]
        if external is not None:
            ids = [f"{prompt_id}/{r.client}" for r in records]
            missing = [rid for rid in ids if rid not in external]
            if missing:
                raise ValueError(f"missing external embedding for {missing[0]!r}")
        try:
            if external is None:
                raw_vectors, rows = encode_responses(records, encoder_config)
            else:
                raw_vectors, rows = [external[rid] for rid in ids], range(len(records))
            outcome, result, errors = consensus_phase(
                prompt_id, records, raw_vectors, rows, params, strategy
            )
        except ValueError as exc:
            raise ValueError(f"prompt {prompt_id!r}: {exc}") from exc
        skipped = [e.client for e in errors if e.reason == "zero_embedding"]
        if outcome is None:
            entry = {"prompt_id": prompt_id, "error": errors[0].reason}
        else:
            entry = dict(vars(outcome), centroid=[float(x) for x in result.centroid])
        if skipped:
            entry["skipped_clients"] = skipped
        results.append(entry)

    inputs_echo = {
        "input": str(args.input),
        "embeddings": None if args.embeddings is None else str(args.embeddings),
        "eps": args.eps,
        "min_pts": args.min_pts,
        "strategy": args.strategy,
        "encoder": {
            "dimension": args.dimension,
            "ngram": args.ngram,
            "seed": args.encoder_seed,
            "lowercase": args.lowercase,
        },
    }
    return _emit(_report("consensus", inputs_echo, {"prompts": results}, args.seed))


# ---------------------------------------------------------------- cost


def _check_echoed_cost_flags(args: argparse.Namespace) -> None:
    """Check the flags only some outputs use; the report echoes them all."""
    if args.rank < 1:
        raise ValueError(f"rank must be >= 1, got {args.rank}")
    _check_positive("bytes_per_param", args.bytes_per_param)
    fraction = args.subsample_fraction
    if fraction is not None and not 0.0 < fraction <= 1.0:
        raise ValueError(f"subsample_fraction must be in (0, 1], got {fraction}")
    if args.total_params is not None and args.total_params < 1:
        raise ValueError(f"total_params must be >= 1, got {args.total_params}")


def cmd_cost(args: argparse.Namespace) -> int:
    text_spec = TextRoundCostSpec(
        num_clients=args.clients,
        num_prompts=args.prompts,
        avg_tokens=args.tokens,
        bytes_per_token=args.bytes_per_token,
        include_download=not args.upload_only,
    )
    _check_echoed_cost_flags(args)
    outputs: dict = {
        "text_round": {
            "total_bytes": text_round_bytes(text_spec),
            "include_download": text_spec.include_download,
        }
    }
    if args.preset is not None:
        comparison = comparison_report(
            PRESETS[args.preset], text_spec, rank=args.rank, bytes_per_param=args.bytes_per_param
        )
        outputs["comparison"] = asdict(comparison)
    if args.subsample_fraction is not None:
        if args.total_params is None:
            raise ValueError("--subsample-fraction requires --total-params")
        sub_spec = SubsampleCostSpec(
            num_clients=args.clients,
            fraction=args.subsample_fraction,
            total_params=args.total_params,
            bytes_per_param=args.bytes_per_param,
        )
        outputs["subsample"] = {"total_bytes": subsample_bytes(sub_spec)}

    if args.format == "csv":
        _emit_cost_csv(outputs)
        return 0
    return _emit(_report("cost", _flags(args, "format"), outputs, None))


def _emit_cost_csv(outputs: dict) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(["kind", "targets", "bytes"])
    writer.writerow(["text_round", "", outputs["text_round"]["total_bytes"]])
    if "comparison" in outputs:
        for entry in outputs["comparison"]["adapters"]:
            writer.writerow(["lora_upload", entry["targets"], entry["upload_bytes"]])
            writer.writerow(["lora_total", entry["targets"], entry["total_bytes"]])
    if "subsample" in outputs:
        writer.writerow(["subsample", "", outputs["subsample"]["total_bytes"]])


# ---------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> int:
    gap = GapParams(
        grad_bound=args.grad_bound,
        kl_shift=args.kl_shift,
        label_noise=args.label_noise,
        public_batch=args.public_batch,
        param_dim=args.param_dim,
        total_steps=args.steps,
        confidence=args.confidence,
    )
    outputs: dict = {"gap": delta_T(gap)}
    stationarity_given = [
        args.smoothness,
        args.step_size,
        args.noise_var,
        args.heterogeneity,
        args.init_gap,
    ]
    if any(v is not None for v in stationarity_given):
        if any(v is None for v in stationarity_given):
            raise ValueError(
                "stationarity bound needs all of --smoothness, --step-size, "
                "--noise-var, --heterogeneity, --init-gap"
            )
        bound = stationarity_rhs(
            StationarityParams(
                gap=gap,
                smoothness=args.smoothness,
                step_size=args.step_size,
                noise_var=args.noise_var,
                heterogeneity=args.heterogeneity,
                init_gap=args.init_gap,
            )
        )
        outputs["stationarity"] = {
            "descent_term": bound.descent_term,
            "noise_term": bound.noise_term,
            "bias_term": bound.bias_term,
            "total": bound.total,
        }

    return _emit(_report("bound", _flags(args), outputs, None))


# ---------------------------------------------------------------- privacy


def cmd_privacy(args: argparse.Namespace) -> int:
    ledgers = load_ledgers_csv(Path(args.csv))
    rows = []
    combined_eps = 0.0
    combined_delta = 0.0
    for ledger in ledgers:
        eps, delta = total_budget(ledger)
        combined_eps += eps
        combined_delta += delta
        rows.append(
            {
                "client": ledger.client,
                "rounds": len(ledger.rounds),
                "epsilon_total": eps,
                "delta_total": delta,
                "delta_vacuous": delta >= 1.0,
            }
        )
    outputs = {
        "clients": rows,
        "combined": {"epsilon_total": combined_eps, "delta_total": combined_delta},
        "semantics": args.semantics,
    }
    return _emit(_report("privacy", _flags(args), outputs, None))


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semfed",
        description="Federated text-exchange simulator with embedding-consensus "
        "pseudo-labels, plus cost, bound, and privacy calculators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a multi-round session from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON session config")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--output", default=None, help="directory for per-round transcripts")
    p_sim.set_defaults(func=cmd_simulate)

    p_con = sub.add_parser("consensus", help="run per-prompt consensus on a JSONL dump")
    p_con.add_argument("--input", required=True, help="JSONL rows with prompt_id, client_id, response")
    p_con.add_argument("--eps", type=float, default=ClusterParams().eps)
    p_con.add_argument("--min-pts", type=int, default=ClusterParams().min_pts)
    p_con.add_argument(
        "--strategy", choices=sorted(_STRATEGY_NAMES), default=SelectionStrategy().rule.value
    )
    p_con.add_argument("--seed", type=int, default=None, help="seed for the randomized strategy")
    p_con.add_argument("--dimension", type=int, default=EncoderConfig().dimension)
    p_con.add_argument("--ngram", type=int, default=EncoderConfig().ngram_size)
    p_con.add_argument("--encoder-seed", type=int, default=EncoderConfig().seed)
    p_con.add_argument(
        "--lowercase",
        action=argparse.BooleanOptionalAction,
        default=EncoderConfig().lowercase,
        help="lowercase responses before encoding, as the encoder's 'lowercase' config key",
    )
    p_con.add_argument(
        "--embeddings",
        default=None,
        help="external embeddings JSONL keyed by response_id = '<prompt_id>/<client_id>'",
    )
    p_con.set_defaults(func=cmd_consensus)

    p_cost = sub.add_parser("cost", help="communication cost calculators")
    p_cost.add_argument("--clients", type=int, default=10)
    p_cost.add_argument("--prompts", type=int, default=1024)
    p_cost.add_argument("--tokens", type=float, default=128.0)
    p_cost.add_argument("--bytes-per-token", type=float, default=2.0)
    p_cost.add_argument("--upload-only", action="store_true")
    p_cost.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_cost.add_argument("--rank", type=int, default=32)
    p_cost.add_argument("--bytes-per-param", type=float, default=2.0)
    p_cost.add_argument("--subsample-fraction", type=float, default=None)
    p_cost.add_argument("--total-params", type=int, default=None)
    p_cost.add_argument("--format", choices=("json", "csv"), default="json")
    p_cost.set_defaults(func=cmd_cost)

    p_bound = sub.add_parser("bound", help="convergence bound calculators")
    p_bound.add_argument("--grad-bound", type=float, required=True)
    p_bound.add_argument("--kl-shift", type=float, default=0.0)
    p_bound.add_argument("--label-noise", type=float, default=0.0)
    p_bound.add_argument("--public-batch", type=int, default=1)
    p_bound.add_argument("--param-dim", type=int, default=1)
    p_bound.add_argument("--steps", type=int, default=1)
    p_bound.add_argument("--confidence", type=float, default=0.05)
    p_bound.add_argument("--smoothness", type=float, default=None)
    p_bound.add_argument("--step-size", type=float, default=None)
    p_bound.add_argument("--noise-var", type=float, default=None)
    p_bound.add_argument("--heterogeneity", type=float, default=None)
    p_bound.add_argument("--init-gap", type=float, default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_priv = sub.add_parser("privacy", help="compose per-round budgets from CSV")
    p_priv.add_argument("--csv", required=True, help="CSV with client, round, epsilon, delta")
    p_priv.add_argument(
        "--semantics",
        default=None,
        help="free-text note on the neighboring-dataset semantics of the inputs",
    )
    p_priv.set_defaults(func=cmd_privacy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
    except OverflowError as exc:
        message = f"{args.command} does not fit a float: {exc}"
    sys.stderr.write(f"error: {message}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
