#!/usr/bin/env python3
"""End-to-end demo on in-process mock servers.

Runs the draft-then-verify pipeline and the single-call baseline over a
rigged synthetic dataset, then prints accuracy for both modes and the
per-stage latency table. Every request waits a configurable artificial
delay, so the parallel-drafting effect is visible in the numbers: all the
servers share one mock script, so the verifier and the embedder on the
first server wait as long as each drafter.
"""

import argparse
from dataclasses import replace

from draftrag.core import PipelineConfig, validate_config
from draftrag.harness import (
    make_backends,
    report_latency,
    run_speculative,
    run_standard_baseline,
    evaluate_answer,
)
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
        backends = make_backends(cfg)

        timings = {"speculative": [], "standard": []}
        correct = {"speculative": 0, "standard": 0}
        for record in fixture.records:
            spec = run_speculative(record, cfg, backends)
            std = run_standard_baseline(record, cfg, backends)
            timings["speculative"].append(spec.timings)
            timings["standard"].append(std.timings)
            correct["speculative"] += evaluate_answer(spec.final_answer, record.query)
            correct["standard"] += evaluate_answer(std.final_answer, record.query)

        n = len(fixture.records)
        print(f"records: {n}, drafter endpoints: {args.drafter_endpoints}, "
              f"mock delay: {args.delay_ms} ms")
        for mode in ("speculative", "standard"):
            print(f"{mode}: accuracy {correct[mode] / n:.2f}")
        print()
        print(report_latency(timings))
    finally:
        for server in servers:
            server.stop()


if __name__ == "__main__":
    main()
