#!/usr/bin/env python3
"""Generate a rigged synthetic dataset plus the matching mock-server script.

The mock script gives gold-supporting drafts strictly higher logprobs on all
three score terms, so an argmax run recovers the gold answer on every record.
Writes dataset.jsonl, mock_script.json, and config.json into --out.

Typical use:

    python3 scripts/make_rigged_dataset.py --out fixtures/
    draftrag mock-serve --script fixtures/mock_script.json --port 8080 &
    draftrag run --dataset fixtures/dataset.jsonl --config fixtures/config.json
"""

import argparse
import json
from pathlib import Path

from draftrag.core import PipelineConfig, validate_config
from draftrag.harness import write_dataset
from draftrag.synthetic import make_rigged_fixture


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--records", type=int, default=20)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--docs-per-record", type=int, default=4)
    parser.add_argument("--port", type=int, default=8080, help="mock server port baked into config.json")
    args = parser.parse_args()
    if args.records < 1 or args.docs_per_record < 1:
        parser.error("--records and --docs-per-record must each be at least 1")

    cfg = PipelineConfig(
        top_n=args.docs_per_record,
        rng_seed=args.seed,
        drafter_endpoints=(f"http://127.0.0.1:{args.port}/generate",),
        verifier_endpoint=f"http://127.0.0.1:{args.port}/generate",
        embedding_endpoint=f"http://127.0.0.1:{args.port}/embed",
    )
    if violations := validate_config(cfg):
        parser.error("invalid config: " + "; ".join(violations))
    fixture = make_rigged_fixture(
        cfg, num_records=args.records, distractors=args.docs_per_record - 1
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(fixture.records, out / "dataset.jsonl")
    (out / "mock_script.json").write_text(
        json.dumps(fixture.script.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    (out / "config.json").write_text(
        json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.records} records, mock script, and config to {out}/")


if __name__ == "__main__":
    main()
