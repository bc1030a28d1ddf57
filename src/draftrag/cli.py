"""Command-line interface.

Subcommands: ``run`` (one mode over a dataset), ``ablate`` (the named config
variant grid), ``sweep`` (draft-count / subset-size grids), ``mock-serve``
(the deterministic mock LM server; its per-request delay is the script
file's ``delay_ms``), and ``report`` (latency tables from results files).

``run``, ``ablate`` and ``sweep`` share one path: each picks a list of named
configs and runs ``run_experiment`` once per entry.

Exit codes: 0 success, 2 config or input error (a bad flag value, an empty
selection, config, dataset, mock script or results line, or results that
cannot be written), 3 pipeline error (including a run in which every
record failed), 130 interrupted (Ctrl-C; the run under way writes the
summary of its finished records, and no later named config runs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .backend import TransportError
from .core import (
    MAX_NUM_DRAFTS,
    STAGES,
    ConfigError,
    DataError,
    PipelineConfig,
    PipelineError,
    StageTimings,
    read_json_object,
    validate_config,
)
from .harness import (
    DatasetError,
    ablation_grid,
    load_dataset,
    report_latency,
    run_experiment,
    sweep_grid,
)
from .mock_server import MockLMServer, MockScript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


def _load_config(args) -> PipelineConfig:
    if args.config:
        try:
            raw = read_json_object(Path(args.config).read_bytes())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        cfg = PipelineConfig.from_dict(raw)
    else:
        cfg = PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    return cfg


def _ablate_configs(args, cfg: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    names = [v.strip() for v in args.grid.split(",") if v.strip()]
    return ablation_grid(cfg, None if args.grid == "all" else names)


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


def _sweep_configs(args, cfg: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    m_values = _parse_counts(args.m_values, "--m-values")
    if any(m > MAX_NUM_DRAFTS for m in m_values):
        raise ConfigError(
            f"--m-values: every value must be at most {MAX_NUM_DRAFTS}, "
            f"got {args.m_values!r}"
        )
    subset_sizes = _parse_counts(args.subset_sizes, "--subset-sizes")
    if not m_values and not subset_sizes:
        raise ConfigError("sweep requires --m-values and/or --subset-sizes")
    return sweep_grid(cfg, m_values, subset_sizes)


def _cmd_experiments(args) -> int:
    """``run``, ``ablate`` and ``sweep``: run each named config the command
    selects over the dataset. Every input error, such as a named config
    ``validate_config`` refuses, exits 2 before ``--out`` is made or any
    request is sent; a run whose records all fail exits 3 once every run
    has ended."""
    cfg = _load_config(args)
    records = load_dataset(args.dataset)
    configs = args.configs(args, cfg)
    if not configs:
        raise ConfigError(f"{args.command}: the selection is empty, nothing to run")
    for name, run_cfg in configs:
        if violations := validate_config(run_cfg):
            raise ConfigError(f"invalid config {name}:\n  " + "\n  ".join(violations))
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out {args.out}: {exc}")
    all_failed = []
    for name, run_cfg in configs:
        summary = run_experiment(
            records, run_cfg, mode=args.mode, name=name, out_dir=args.out
        )
        print(
            f"{summary.name}: accuracy {summary.accuracy:.4f} "
            f"({summary.correct}/{summary.evaluated}, {summary.failures} failed)"
        )
        print(f"total latency mean: {summary.latency['total_ms']['mean']:.2f} ms")
        if records and summary.evaluated == 0:
            all_failed.append(name)
    if args.out:
        print(f"results written to {args.out}")
    if all_failed:
        print(
            f"pipeline error: every record failed in {', '.join(all_failed)}",
            file=sys.stderr,
        )
        return EXIT_PIPELINE
    return EXIT_OK


def _cmd_mock_serve(args) -> int:
    script = MockScript()
    if args.script:
        try:
            script = MockScript.from_json_file(args.script)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not a script
            raise ConfigError(f"cannot load mock script {args.script}: {exc}")
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


def _results_timings(path: str, lineno: int, line: bytes) -> tuple[str, StageTimings] | None:
    """The mode and stage timings of one results line, or None for a blank
    line or one without timings. Anything else raises ConfigError naming
    the line."""
    if not line.decode("utf-8", "replace").strip():
        return None  # blank, as ``str.strip`` sees it
    where = f"{path}:{lineno}"
    try:
        obj = read_json_object(line)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")
    mode, timings = obj.get("mode", "unknown"), obj.get("timings")
    if timings is None:
        return None
    if not (
        isinstance(mode, str)
        and isinstance(timings, dict)
        and all(stage in STAGES for stage in timings)
        and all(
            type(v) in (int, float) and 0 <= v <= sys.float_info.max
            for v in timings.values()
        )
    ):
        raise ConfigError(
            f'{where}: "mode" must be a string and "timings" must map stage '
            f"names ({', '.join(sorted(STAGES))}) to non-negative numbers"
        )
    return mode, StageTimings(**{k: float(v) for k, v in timings.items()})


def _cmd_report(args) -> int:
    by_mode: dict[str, list[StageTimings]] = {}
    for path in args.inputs:
        # Split at \n, \r\n or \r, as a file read as text is.
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            if row := _results_timings(path, lineno, line):
                by_mode.setdefault(row[0], []).append(row[1])
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

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--dataset", required=True)
    experiment.add_argument("--config", help="JSON config file mirroring PipelineConfig")
    experiment.add_argument("--seed", type=int, help="override the config rng seed")
    experiment.add_argument("--out", help="directory for results/summary/config files")
    experiment.set_defaults(func=_cmd_experiments, mode="speculative")

    run = sub.add_parser("run", parents=[experiment], help="run one mode over a dataset")
    run.add_argument("--mode", choices=["speculative", "standard"], default="speculative")
    run.set_defaults(configs=lambda args, cfg: [(args.mode, cfg)])

    ablate = sub.add_parser(
        "ablate", parents=[experiment], help="run the ablation variant grid"
    )
    ablate.add_argument(
        "--grid",
        default="all",
        help='comma-separated variant names, or "all" (default)',
    )
    ablate.set_defaults(configs=_ablate_configs)

    sweep = sub.add_parser(
        "sweep", parents=[experiment], help="sweep draft counts and subset sizes"
    )
    sweep.add_argument("--m-values", dest="m_values", help="e.g. 5,10,15,20")
    sweep.add_argument("--subset-sizes", dest="subset_sizes", help="e.g. 1,2,4,6")
    sweep.set_defaults(configs=_sweep_configs)

    serve = sub.add_parser("mock-serve", help="serve the deterministic mock LM")
    serve.add_argument("--script", help="JSON mock script file")
    serve.add_argument("--port", type=int, default=8080)
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
    except (ConfigError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, TransportError, DataError, ValueError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
