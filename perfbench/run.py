#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload zero_delay --seed 1 --seconds 20 --trace 0

For the chosen workload and seed it builds a rigged fixture, writes the
dataset and mock script to a temporary directory inside the checkout,
starts every mock port in one child process (``perfbench/mock_proc.py``),
loads the dataset through ``load_dataset``, warms up, and then drives the
pipeline's public functions from one closed-loop client for ``--seconds``.
Set-up is repeated five times and its median reported. While it runs,
``perfbench/keep_awake.py`` keeps every processor out of its idle state.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` the first half of the window runs untraced and the second
half traced (``perfbench/tracing.py``), the spans are written to
``.bench_tmp/<workload>-seed<seed>.spans.jsonl``, and the last line carries
the per-layer metrics. A run whose outputs fail the correctness gate prints
``"correct": false`` with no metrics and exits 1. Workloads, the cost
model and the metric definitions are recorded in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

if not (ROOT / "src" / "draftrag" / "__init__.py").is_file():
    sys.exit(f"perfbench: no draftrag sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from draftrag import harness, synthetic  # noqa: E402
from draftrag.backend import TransportError  # noqa: E402
from draftrag.core import DataError, PipelineConfig, PipelineError  # noqa: E402
from draftrag.mock_server import uniform_tokens  # noqa: E402
from tracing import Tracer  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
WARM_UP_RECORDS = 2
MAX_KEEP_AWAKE = 4  # spinners started at most, however many processors the machine has
PIPELINE_ERRORS = (PipelineError, TransportError, DataError)


@dataclass(frozen=True)
class Workload:
    """One entry of ``design.json``'s workloads."""

    name: str
    cfg: PipelineConfig
    records: int
    documents_per_record: int
    ports: list[str]
    cost_model: str

    @classmethod
    def from_design(cls, name: str, raw: dict) -> "Workload":
        return cls(
            name=name,
            cfg=PipelineConfig(**raw["profile"]),
            records=raw["records"],
            documents_per_record=raw["documents_per_record"],
            ports=raw["ports"],
            cost_model=raw["cost_model"],
        )


WORKLOADS = {name: Workload.from_design(name, raw) for name, raw in DESIGN["workloads"].items()}


class MockProcess:
    """The child process serving every mock port; see ``mock_proc.py``."""

    def __init__(self, script_path: Path, roles: list[str], cost_model: str):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "mock_proc.py"),
                "--script", str(script_path),
                "--roles", ",".join(roles),
                "--cost-model", cost_model,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("mock process exited before reporting its ports")
        self.ports = json.loads(line)["ports"]

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


class KeepAwake:
    """One ``keep_awake.py`` process per processor this process may use."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))[:MAX_KEEP_AWAKE]
        self.procs = [
            subprocess.Popen([sys.executable, str(HERE / "keep_awake.py"), str(cpu), str(os.getpid())])
            for cpu in cpus
        ]

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


@dataclass
class Bench:
    """One set-up: fixture files, a running mock process, loaded records."""

    records: list
    cfg: PipelineConfig
    backends: harness.PipelineBackends
    mock: MockProcess
    fixture_s: float = 0.0
    load_s: float = 0.0
    setup_s: float = 0.0


def gold_shaped_completion(record) -> str:
    """A completion of the same shape and length as the fixture's gold draft."""
    gold = record.query.gold_answers[0]
    return (
        f"## Rationale: The register states that the charted location is {gold}.\n"
        f"## Response: The charted location is {gold}."
    )


def set_up(wl: Workload, seed: int, work_dir: Path) -> Bench:
    started = time.perf_counter()
    cfg = replace(wl.cfg, rng_seed=seed)
    distractors = wl.documents_per_record - 1
    t = time.perf_counter()
    fixture = synthetic.make_rigged_fixture(cfg, num_records=wl.records, distractors=distractors)
    fixture_s = time.perf_counter() - t
    # Without this the standard baseline gets the few-token fallback reply,
    # and its modelled output cost would be unrealistically small.
    for record in fixture.records:
        prompt = harness.build_standard_prompt(record.query.scrubbed(), record.documents[: cfg.top_n])
        completion = gold_shaped_completion(record)
        fixture.script.script_completion(
            prompt, completion, uniform_tokens(completion, synthetic.GOLD_TOKEN_LOGPROB)
        )
    work_dir.mkdir(parents=True)
    dataset_path = work_dir / "dataset.jsonl"
    script_path = work_dir / "script.json"
    harness.write_dataset(fixture.records, dataset_path)
    script_path.write_text(json.dumps(fixture.script.to_dict()), encoding="utf-8")

    roles = wl.ports
    mock = MockProcess(script_path, roles, wl.cost_model)
    urls = [f"http://127.0.0.1:{port}" for port in mock.ports]
    verifier = urls[roles.index("verifier")]
    drafters = [u for u, role in zip(urls, roles) if role == "drafter"] or [verifier]
    cfg = replace(
        cfg,
        drafter_endpoints=tuple(f"{u}/generate" for u in drafters),
        verifier_endpoint=f"{verifier}/generate",
        embedding_endpoint=f"{verifier}/embed",
    )
    try:
        t = time.perf_counter()
        records = harness.load_dataset(dataset_path)
        load_s = time.perf_counter() - t
        bench = Bench(records, cfg, harness.make_backends(cfg), mock, fixture_s, load_s)
        for record in records[:WARM_UP_RECORDS]:
            harness.run_speculative(record, cfg, bench.backends)
            harness.run_standard_baseline(record, cfg, bench.backends)
    except BaseException:
        mock.close()
        raise
    bench.setup_s = time.perf_counter() - started
    return bench


@dataclass
class Window:
    """What one measured window saw."""

    seconds: float = 0.0
    spec_ms: list[float] = field(default_factory=list)
    std_ms: list[float] = field(default_factory=list)
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    spec_correct: int = 0
    std_correct: int = 0
    answers: dict[tuple, tuple] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    repeats: int = 0
    client_cpu_s: float = 0.0
    mock_start: dict = field(default_factory=dict)
    mock_end: dict = field(default_factory=dict)

    def answer(self, key: tuple, value: tuple) -> None:
        """Record an output; a key seen before must give the same output."""
        if key in self.answers:
            self.repeats += 1
            if self.answers[key] != value:
                self.mismatches.append(f"{key}: {self.answers[key]} then {value}")
        else:
            self.answers[key] = value


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _standard(bench: Bench, record, win: Window) -> None:
    win.attempted += 1
    t = time.perf_counter()
    try:
        result = harness.run_standard_baseline(record, bench.cfg, bench.backends)
    except PIPELINE_ERRORS:
        win.failed += 1
        return
    win.std_ms.append((time.perf_counter() - t) * 1000.0)
    win.std_correct += harness.evaluate_answer(result.final_answer, record.query)


def _speculative(bench: Bench, record, win: Window) -> None:
    win.attempted += 1
    t = time.perf_counter()
    try:
        result = harness.run_speculative(record, bench.cfg, bench.backends)
    except PIPELINE_ERRORS:
        win.failed += 1
        return
    win.spec_ms.append((time.perf_counter() - t) * 1000.0)
    win.queries += 1
    win.spec_correct += harness.evaluate_answer(result.final_answer, record.query)
    win.answer(("speculative", result.query_id), (result.final_answer, result.winning_subset_index))


def measure(wl: Workload, bench: Bench, seconds: float) -> Window:
    """Closed loop over the records until ``seconds`` have passed."""
    win = Window()
    bench.mock.command("reset")
    win.mock_start = bench.mock.command("stats")
    cpu = _cpu_s()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for record in bench.records:
            if time.perf_counter() >= deadline:
                break
            _speculative(bench, record, win)
            _standard(bench, record, win)
    win.seconds = time.perf_counter() - started
    win.client_cpu_s += _cpu_s() - cpu
    win.mock_end = bench.mock.command("stats")
    if win.repeats == 0:
        # The window was too short to repeat anything: repeat the first record
        # outside it so the determinism check still has a pair to compare.
        check = Window(answers=dict(win.answers))
        _speculative(bench, bench.records[0], check)
        win.attempted += check.attempted
        win.failed += check.failed
        win.repeats += check.repeats
        win.mismatches += check.mismatches
    return win


def gate(win: Window) -> list[str]:
    """Every reason the run's outputs are wrong; empty when they are right."""
    problems = []
    if win.failed:
        problems.append(f"{win.failed} of {win.attempted} pipeline calls failed")
    if win.mismatches:
        problems.append("outputs differ between passes: " + "; ".join(win.mismatches[:3]))
    if win.queries == 0:
        problems.append("no query completed")
    if win.std_correct != len(win.std_ms):
        problems.append(f"standard accuracy {win.std_correct}/{len(win.std_ms)}, expected all")
    if win.spec_correct != win.queries:
        problems.append(f"speculative accuracy {win.spec_correct}/{win.queries}, expected all")
    return problems


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(win: Window, setups: list[Bench]) -> dict:
    mock_cpu_s = win.mock_end["cpu_s"] - win.mock_start["cpu_s"]
    return {
        "query_p50_ms": (_pct(win.spec_ms, 50), "ms"),
        "query_p90_ms": (_pct(win.spec_ms, 90), "ms"),
        "standard_p50_ms": (_pct(win.std_ms, 50), "ms"),
        "queries_per_s": (win.queries / win.seconds, "1/s"),
        "client_cpu_ms_per_query": (win.client_cpu_s * 1000.0 / win.queries, "ms"),
        "mock_cpu_ms_per_query": (mock_cpu_s * 1000.0 / win.queries, "ms"),
        "accuracy": (win.spec_correct / win.queries, "ratio"),
        "completed_share": ((win.attempted - win.failed) / win.attempted, "ratio"),
        "setup_s": (float(np.median([b.setup_s for b in setups])), "s"),
        "client_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mock_peak_rss_mb": (win.mock_end["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, untraced: Window, traced: Window, setups: list[Bench]) -> dict:
    metrics = tracer.layer_metrics()
    stats = traced.mock_end
    n = max(1, traced.queries)
    for kind in ("generate", "echo", "embed"):
        metrics[f"mock_server.requests_per_query.{kind}"] = (stats["counts"][kind] / n, "count")
    metrics["mock_server.content_us"] = (stats["content_s"] * 1e6 / n, "us")
    floors = stats["floors_ms"]
    metrics["mock_server.modelled_floor_ms"] = (_pct(floors, 50) if floors else 0.0, "ms")
    metrics["synthetic.make_rigged_fixture.s"] = (float(np.median([b.fixture_s for b in setups])), "s")
    metrics["harness.load_dataset.ms"] = (float(np.median([b.load_s for b in setups])) * 1000.0, "ms")
    overhead = (_pct(traced.spec_ms, 50) / _pct(untraced.spec_ms, 50) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    os.environ["no_proxy"] = "127.0.0.1,localhost"

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    setups: list[Bench] = []
    keep_awake = KeepAwake()
    try:
        for i in range(SETUP_REPEATS):
            if setups:
                setups[-1].mock.close()
            setups.append(set_up(wl, args.seed, work / f"setup{i}"))
        bench = setups[-1]
        if args.trace:
            untraced = measure(wl, bench, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, bench, args.seconds / 2)
            finally:
                tracer.uninstall()
            spans_path = scratch / f"{wl.name}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            wins = [untraced, traced]
        else:
            wins = [measure(wl, bench, args.seconds)]
        bench.mock.close()
        problems = [p for w in wins for p in gate(w)]
        if args.trace:
            metrics = per_layer(tracer, untraced, traced, setups)
        else:
            metrics = end_to_end(wins[0], setups)
    finally:
        keep_awake.close()
        for b in setups:
            if b.mock.proc.poll() is None:
                b.mock.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(w.attempted for w in wins)
    failed = sum(w.failed for w in wins)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.4f} {unit}")
    print(f"speculative queries timed: {sum(len(w.spec_ms) for w in wins)}, "
          f"standard calls timed: {sum(len(w.std_ms) for w in wins)}")
    if args.trace:
        print(f"spans written to {spans_path}")
    for problem in problems:
        print(f"correctness gate: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if problems else {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
