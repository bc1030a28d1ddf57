"""Mock endpoint process for the benchmark: every port in one child process.

Usage (started by ``perfbench/run.py``, not by hand):

    python3 perfbench/mock_proc.py --script S.json --roles drafter,verifier --cost-model zero

Each role in ``--roles`` gets its own port, served by a ``MockLMServer``
whose script is a ``CostModelScript`` sharing one scripted table. The
process prints ``{"ports": [...]}`` as one line on stdout, then answers
commands read one per line from stdin:

- ``stats``: one JSON line with request counts by kind, time spent inside
  the script methods net of the modelled sleep, the per-query modelled
  floors, and this process's CPU time and peak RSS;
- ``reset``: zero the counters;
- end of input: stop every server and exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from draftrag.mock_server import MockLMServer, MockScript  # noqa: E402

DESIGN_PATH = Path(__file__).resolve().with_name("design.json")


@dataclass(frozen=True)
class Cost:
    """Modelled latency of one request: base + a*prompt_tokens + b*output_tokens."""

    base_ms: float = 0.0
    prompt_ms_per_token: float = 0.0
    output_ms_per_token: float = 0.0

    def ms(self, prompt_tokens: int, output_tokens: int) -> float:
        return (
            self.base_ms
            + self.prompt_ms_per_token * prompt_tokens
            + self.output_ms_per_token * output_tokens
        )


@dataclass(frozen=True)
class CostModel:
    """Per-role costs plus the hash-chosen share of slow generations."""

    roles: dict[str, Cost] = field(default_factory=dict)
    embed: Cost = Cost()
    straggler_share: float = 0.0
    straggler_factor: float = 1.0

    @classmethod
    def named(cls, name: str) -> "CostModel":
        raw = json.loads(DESIGN_PATH.read_text(encoding="utf-8"))["cost_models"][name]

        def cost(entry: dict) -> Cost:
            return Cost(
                entry["base_ms"]["value"],
                entry["prompt_ms_per_token"]["value"],
                entry["output_ms_per_token"]["value"],
            )

        return cls(
            roles={role: cost(raw[role]) for role in ("drafter", "verifier")},
            embed=cost(raw["embedder"]),
            straggler_share=raw["straggler_share"]["value"],
            straggler_factor=raw["straggler_factor"]["value"],
        )

    def is_straggler(self, prompt: str) -> bool:
        digest = hashlib.sha256(b"straggler\x1f" + prompt.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.straggler_share


class Meter:
    """Counters shared by every port of the process.

    The benchmark has one client that runs queries in sequence and each
    speculative query starts with its single embed request, so the requests
    between two embeds belong to one query. That lets the meter build each
    query's modelled critical path from the time each request slept: embed
    + slowest draft + slowest echo.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.counts = {"generate": 0, "echo": 0, "embed": 0}
            self.content_s = 0.0
            self.floors_ms: list[float] = []
            self._query: dict[str, float] | None = None

    def record(self, kind: str, role: str, content_s: float, slept_ms: float) -> None:
        with self._lock:
            self.counts[kind] += 1
            self.content_s += content_s
            if kind == "embed":
                self._close_query()
                self._query = {"embed": slept_ms, "draft": 0.0, "echo": 0.0}
            elif self._query is not None:
                if kind == "echo":
                    self._query["echo"] = max(self._query["echo"], slept_ms)
                elif role == "drafter":
                    self._query["draft"] = max(self._query["draft"], slept_ms)

    def _close_query(self) -> None:
        if self._query is not None:
            self.floors_ms.append(sum(self._query.values()))
            self._query = None

    def snapshot(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self._lock:
            self._close_query()
            return {
                "counts": dict(self.counts),
                "content_s": self.content_s,
                "floors_ms": list(self.floors_ms),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_kb": _peak_rss_kb(),
            }


def _peak_rss_kb() -> int:
    """VmHWM of this process.

    ru_maxrss is not used: it carries over the parent's peak across the
    fork and exec that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


@dataclass
class CostModelScript(MockScript):
    """MockScript whose replies take the modelled time of the port's role.

    The reply content is the parent's; only the sleep is added, after the
    content is computed, so ``delay_ms`` stays 0. The meter gets the time
    spent computing the reply and the time actually slept.
    """

    role: str = "verifier"
    model: CostModel = field(default_factory=CostModel)
    meter: Meter = field(default_factory=Meter)

    def _finish(self, kind: str, started: float, delay_ms: float) -> None:
        computed = time.perf_counter()
        slept_ms = 0.0
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
            slept_ms = (time.perf_counter() - computed) * 1000.0
        self.meter.record(kind, self.role, computed - started, slept_ms)

    def generate(self, prompt: str) -> dict:
        started = time.perf_counter()
        out = super().generate(prompt)
        cost = self.model.roles.get(self.role, Cost())
        delay = cost.ms(len(prompt.split()), len(out["tokens"]))
        if self.model.is_straggler(prompt):
            delay *= self.model.straggler_factor
        self._finish("generate", started, delay)
        return out

    def echo(self, prompt: str) -> dict:
        started = time.perf_counter()
        out = super().echo(prompt)
        cost = self.model.roles.get(self.role, Cost())
        self._finish("echo", started, cost.ms(len(out["tokens"]), 0))
        return out

    def embed(self, instruction: str, inputs: list[str]) -> dict:
        started = time.perf_counter()
        out = super().embed(instruction, inputs)
        tokens = len(instruction.split()) + sum(len(text.split()) for text in inputs)
        self._finish("embed", started, self.model.embed.ms(tokens, 0))
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--roles", required=True, help="comma-separated, one per port")
    parser.add_argument("--cost-model", required=True)
    args = parser.parse_args()

    scripted = MockScript.from_json_file(args.script)
    model = CostModel.named(args.cost_model)
    meter = Meter()
    servers = [
        MockLMServer(
            CostModelScript(
                completions=scripted.completions,
                echoes=scripted.echoes,
                embed_dims=scripted.embed_dims,
                role=role,
                model=model,
                meter=meter,
            )
        ).start()
        for role in args.roles.split(",")
    ]
    try:
        print(json.dumps({"ports": [s.port for s in servers]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(meter.snapshot()), flush=True)
            elif command == "reset":
                meter.reset()
                print(json.dumps({"ok": True}), flush=True)
            else:
                print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    finally:
        for server in servers:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
