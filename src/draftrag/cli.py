"""Command-line interface.

Subcommands: ``run`` (one mode over a dataset), ``ablate`` (the named config
variant grid), ``sweep`` (draft-count / subset-size grids), ``mock-serve``
(the deterministic mock LM server), and ``report`` (latency tables from
results files).

Exit codes: 0 success, 2 config or input error (a bad flag value, config,
dataset, mock script or results line), 3 pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .backend import TransportError
from .core import (
    ConfigError,
    DataError,
    PipelineConfig,
    PipelineError,
    StageTimings,
    validate_config,
)
from .harness import (
    DatasetError,
    ablation_grid,
    load_dataset,
    report_latency,
    run_ablations,
    run_experiment,
    run_sweep,
)
from .mock_server import MockLMServer, MockScript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        cfg = PipelineConfig.from_dict(raw)
    else:
        cfg = PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("invalid config:\n  " + "\n  ".join(violations))
    return cfg


def _make_out_dir(out: str | None) -> None:
    """Create the ``--out`` directory up front, so a path that cannot be one
    fails before any request rather than after every record has run."""
    if out:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out {out}: {exc}")


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    records = load_dataset(args.dataset)
    _make_out_dir(args.out)
    summary = run_experiment(
        records, cfg, mode=args.mode, name=args.mode, out_dir=args.out
    )
    print(
        f"{summary.name}: accuracy {summary.accuracy:.4f} "
        f"({summary.correct}/{summary.evaluated}, {summary.failures} failed)"
    )
    print(f"total latency mean: {summary.latency['total_ms']['mean']:.2f} ms")
    if args.out:
        print(f"results written to {args.out}")
    if records and summary.evaluated == 0:
        print("pipeline error: every record failed", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    records = load_dataset(args.dataset)
    variants = None
    if args.grid and args.grid != "all":
        variants = [v.strip() for v in args.grid.split(",") if v.strip()]
    ablation_grid(cfg, variants)  # an unknown name fails before --out is made
    _make_out_dir(args.out)
    summaries = run_ablations(records, cfg, variants=variants, out_dir=args.out)
    for summary in summaries:
        print(
            f"{summary.name}: accuracy {summary.accuracy:.4f} "
            f"({summary.correct}/{summary.evaluated})"
        )
    return EXIT_OK


def _parse_counts(raw: str | None, flag: str) -> list[int]:
    """A comma-separated list of integers, each at least 1."""
    if not raw:
        return []
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated integer list, got {raw!r}")
    if any(v < 1 for v in values):
        raise ConfigError(f"{flag}: every value must be at least 1, got {raw!r}")
    return values


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    records = load_dataset(args.dataset)
    m_values = _parse_counts(args.m_values, "--m-values")
    subset_sizes = _parse_counts(args.subset_sizes, "--subset-sizes")
    if not m_values and not subset_sizes:
        raise ConfigError("sweep requires --m-values and/or --subset-sizes")
    _make_out_dir(args.out)
    summaries = run_sweep(
        records,
        cfg,
        m_values=m_values,
        subset_sizes=subset_sizes,
        out_dir=args.out,
    )
    for summary in summaries:
        print(
            f"{summary.name}: accuracy {summary.accuracy:.4f} "
            f"({summary.correct}/{summary.evaluated})"
        )
    return EXIT_OK


def _cmd_mock_serve(args) -> int:
    script = MockScript()
    if args.script:
        try:
            script = MockScript.from_json_file(args.script)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not a script
            raise ConfigError(f"cannot load mock script {args.script}: {exc}")
    if args.delay_ms is not None:
        script.delay_ms = args.delay_ms
    try:
        server = MockLMServer(script=script, port=args.port)
    except (OverflowError, OSError) as exc:  # a port out of range, or taken
        raise ConfigError(f"cannot serve on port {args.port}: {exc}")
    print(f"mock LM server on {server.url}")
    print(f"  generation/echo: POST {server.generate_url}")
    print(f"  embeddings:      POST {server.embed_url}")
    print(f"  request log:     GET  {server.url}/requests")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


_STAGES = {f.name for f in fields(StageTimings)}


def _results_timings(path: str, lineno: int, line: str) -> tuple[str, StageTimings] | None:
    """The mode and stage timings of one results line, or None for a line
    without timings. Anything else raises ConfigError naming the line."""
    where = f"{path}:{lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: not JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: not a results object")
    mode, timings = obj.get("mode", "unknown"), obj.get("timings")
    if timings is None:
        return None
    if not (
        isinstance(mode, str)
        and isinstance(timings, dict)
        and timings.keys() <= _STAGES
        and all(
            type(v) in (int, float) and 0 <= v <= sys.float_info.max
            for v in timings.values()
        )
    ):
        raise ConfigError(
            f'{where}: "mode" must be a string and "timings" must map stage '
            f"names ({', '.join(sorted(_STAGES))}) to non-negative numbers"
        )
    return mode, StageTimings(**{k: float(v) for k, v in timings.items()})


def _cmd_report(args) -> int:
    by_mode: dict[str, list[StageTimings]] = {}
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read results file {path}: {exc}")
        for lineno, line in enumerate(lines, 1):
            row = _results_timings(path, lineno, line) if line.strip() else None
            if row is not None:
                mode, timings = row
                by_mode.setdefault(mode, []).append(timings)
    if not by_mode:
        raise ConfigError("no timings found in the given results files")
    print(report_latency(by_mode))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draftrag",
        description="Draft-then-verify RAG pipeline with a deterministic mock backend",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one mode over a dataset")
    run.add_argument("--dataset", required=True)
    run.add_argument("--config", help="JSON config file mirroring PipelineConfig")
    run.add_argument("--mode", choices=["speculative", "standard"], default="speculative")
    run.add_argument("--seed", type=int, help="override the config rng seed")
    run.add_argument("--out", help="directory for results/summary/config files")
    run.set_defaults(func=_cmd_run)

    ablate = sub.add_parser("ablate", help="run the ablation variant grid")
    ablate.add_argument("--dataset", required=True)
    ablate.add_argument("--config")
    ablate.add_argument(
        "--grid",
        default="all",
        help='comma-separated variant names, or "all" (default)',
    )
    ablate.add_argument("--seed", type=int)
    ablate.add_argument("--out")
    ablate.set_defaults(func=_cmd_ablate)

    sweep = sub.add_parser("sweep", help="sweep draft counts and subset sizes")
    sweep.add_argument("--dataset", required=True)
    sweep.add_argument("--config")
    sweep.add_argument("--m-values", dest="m_values", help="e.g. 5,10,15,20")
    sweep.add_argument("--subset-sizes", dest="subset_sizes", help="e.g. 1,2,4,6")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser("mock-serve", help="serve the deterministic mock LM")
    serve.add_argument("--script", help="JSON mock script file")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--delay-ms", dest="delay_ms", type=int)
    serve.set_defaults(func=_cmd_mock_serve)

    report = sub.add_parser("report", help="latency table from results files")
    report.add_argument(
        "--in", dest="inputs", nargs="+", required=True, help="results .jsonl files"
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, TransportError, DataError, ValueError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
