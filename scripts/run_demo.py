#!/usr/bin/env python3
"""End-to-end demo on in-process mock servers.

Runs the draft-then-verify pipeline and the single-call baseline over a
rigged synthetic dataset, one ``run_experiment`` per mode, and prints
accuracy for both modes and the per-stage latency table. Every request
waits a configurable artificial delay, so the parallel-drafting effect
is visible: all the servers share one mock script, so the verifier and
the embedder on the first server wait as long as each drafter.
"""

import argparse
from dataclasses import replace

from draftrag.core import PipelineConfig, validate_config
from draftrag.harness import report_latency, run_experiment
from draftrag.mock_server import MockLMServer
from draftrag.synthetic import make_rigged_fixture


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--delay-ms", type=int, default=50)
    parser.add_argument("--drafter-endpoints", type=int, default=5)
    args = parser.parse_args()
    if args.records < 1 or args.drafter_endpoints < 1:
        parser.error("--records and --drafter-endpoints must each be at least 1")
    if args.delay_ms < 0:
        parser.error("--delay-ms must be at least 0")

    base = PipelineConfig(top_n=4, rng_seed=args.seed)
    if violations := validate_config(base):
        parser.error("invalid config: " + "; ".join(violations))
    fixture = make_rigged_fixture(base, num_records=args.records)
    fixture.script.delay_ms = args.delay_ms

    servers = [
        MockLMServer(script=fixture.script).start()
        for _ in range(args.drafter_endpoints)
    ]
    try:
        cfg = replace(
            base,
            drafter_endpoints=tuple(s.generate_url for s in servers),
            verifier_endpoint=servers[0].generate_url,
            embedding_endpoint=servers[0].embed_url,
        )
        summaries = {
            mode: run_experiment(fixture.records, cfg, mode=mode)
            for mode in ("speculative", "standard")
        }
        print(f"records: {len(fixture.records)}, drafter endpoints: "
              f"{args.drafter_endpoints}, mock delay: {args.delay_ms} ms")
        for mode, summary in summaries.items():
            print(f"{mode}: accuracy {summary.accuracy:.2f}")
        print()
        print(report_latency({mode: s.latency for mode, s in summaries.items()}))
    finally:
        for server in servers:
            server.stop()


if __name__ == "__main__":
    main()
