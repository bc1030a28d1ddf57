"""Each script under ``scripts/`` runs as a user would run it, in its own
process."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from draftrag.cli import main
from draftrag.mock_server import MockScript

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_rigged_dataset_script_files_serve_a_perfect_run(
    tmp_path, server_factory, capsys
):
    out = tmp_path / "fixture"
    done = run_script("make_rigged_dataset.py", "--out", str(out), "--records", "3")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json",
        "dataset.jsonl",
        "mock_script.json",
    ]
    server = server_factory(script=MockScript.from_json_file(out / "mock_script.json"))
    cfg = json.loads((out / "config.json").read_text(encoding="utf-8"))
    cfg["drafter_endpoints"] = [server.generate_url]
    cfg["verifier_endpoint"] = server.generate_url
    cfg["embedding_endpoint"] = server.embed_url
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["run", "--dataset", str(out / "dataset.jsonl"), "--config", str(config)])
    assert code == 0
    assert "accuracy 1.0000 (3/3, 0 failed)" in capsys.readouterr().out


def test_demo_script_runs_both_modes():
    done = run_script(
        "run_demo.py", "--records", "2", "--delay-ms", "0", "--drafter-endpoints", "2"
    )
    assert done.returncode == 0, done.stderr
    assert "speculative: accuracy 1.00" in done.stdout
    assert "standard: accuracy 1.00" in done.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_demo.py", ["--records", "0"]),
        ("run_demo.py", ["--drafter-endpoints", "0"]),
        ("run_demo.py", ["--seed", "-1"]),
        ("run_demo.py", ["--delay-ms", "-5"]),
        ("make_rigged_dataset.py", ["--records", "-3"]),
        ("make_rigged_dataset.py", ["--docs-per-record", "0"]),
        # Two clusters need at least two documents.
        ("make_rigged_dataset.py", ["--docs-per-record", "1"]),
        ("make_rigged_dataset.py", ["--seed", "-1"]),
    ],
)
def test_out_of_range_flag_exits_2_without_a_traceback(tmp_path, script, args):
    out = tmp_path / "fixture"
    if script == "make_rigged_dataset.py":
        args = ["--out", str(out), *args]
    done = run_script(script, *args)
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


# A stand-in for perfbench/run.py: it records its flags and prints a table
# line, then the JSON line of result.json, and exits 1 if that result failed
# its gate, as run.py does.
CANNED_RUN = """\
import json, sys
from pathlib import Path

here = Path(__file__).parent
(here / "argv.json").write_text(json.dumps(sys.argv[1:]))
result = (here / "result.json").read_text()
print("query_p50_ms  1.0000 ms")
print(result)
sys.exit(0 if json.loads(result)["correct"] else 1)
"""


def canned_result(correct=True, **values) -> dict:
    metrics = {name: {"value": v, "unit": "ms"} for name, v in values.items()}
    return {"correct": correct, "attempted": 4, "failed": 0, "metrics": metrics}


@pytest.fixture
def bench_checkout(tmp_path):
    """A git checkout holding ``bench_point.py`` and a canned ``run.py``;
    ``commit(result)`` commits the result the canned run prints."""
    root = tmp_path / "checkout"
    (root / "scripts").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "scripts" / "bench_point.py").write_bytes(
        (ROOT / "scripts" / "bench_point.py").read_bytes()
    )
    (root / "perfbench" / "run.py").write_text(CANNED_RUN, encoding="utf-8")
    (root / ".gitignore").write_text("perfbench/argv.json\n", encoding="utf-8")

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args],
            cwd=root, check=True, capture_output=True,
        )

    def commit(result: dict) -> str:
        (root / "perfbench" / "result.json").write_text(json.dumps(result))
        git("add", "-A")
        git("commit", "-q", "-m", "canned result")
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()

    git("init", "-q")
    return root, commit


def bench_point(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "bench_point.py"), *args],
        capture_output=True, text=True, timeout=60,
    )


def test_bench_point_appends_a_point_and_refuses_a_repeated_seed(bench_checkout):
    root, commit = bench_checkout
    result = canned_result(query_p50_ms=1.0, setup_s=0.5)
    revision = commit(result)
    bench = root / "BENCH_zero_delay.json"
    flags = ["--workload", "zero_delay", "--seconds", "2"]

    done = bench_point(root, *flags, "--seed", "5")
    assert done.returncode == 0, done.stderr
    assert json.loads((root / "perfbench" / "argv.json").read_text()) == [
        "--workload", "zero_delay", "--seed", "5", "--seconds", "2.0", "--trace", "0"
    ]
    [point] = json.loads(bench.read_text())
    assert point == {
        "revision": revision,
        "dirty": False,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": 5,
        "seconds": 2.0,
        "trace": 0,
        "attempted": 4,
        "failed": 0,
        "metrics": result["metrics"],
    }

    first = bench.read_bytes()
    (root / "perfbench" / "argv.json").unlink()
    done = bench_point(root, *flags, "--seed", "5")
    assert done.returncode == 2
    assert "already has a point" in done.stderr
    assert bench.read_bytes() == first
    assert not (root / "perfbench" / "argv.json").exists()  # nothing ran

    (root / "notes.txt").write_text("an edit not yet committed")
    done = bench_point(root, *flags, "--seed", "6")
    assert done.returncode == 0, done.stderr
    points = json.loads(bench.read_text())
    assert points[0] == point
    assert [(p["seed"], p["dirty"]) for p in points] == [(5, False), (6, True)]


def test_bench_point_marks_the_unwired_metrics_under_trace(bench_checkout):
    root, commit = bench_checkout
    commit(
        canned_result(
            **{
                "drafting.generate_drafts.p50_ms": 0.0,
                "verification.dropped_share": 0.0,
                "verification.barrier_wait_ms": 1.5,  # wired again: a measurement
                "backend.dispatch.failed": 0.0,  # a wired metric that reads 0
            }
        )
    )
    args = ["--workload", "multihop_cost", "--seed", "1", "--seconds", "2", "--trace", "1"]
    done = bench_point(root, *args)
    assert done.returncode == 0, done.stderr
    [point] = json.loads((root / "BENCH_multihop_cost.json").read_text())
    assert {name: m["value"] for name, m in point["metrics"].items()} == {
        "drafting.generate_drafts.p50_ms": "unwired",
        "verification.dropped_share": "unwired",
        "verification.barrier_wait_ms": 1.5,
        "backend.dispatch.failed": 0.0,
    }


def test_bench_point_appends_nothing_for_a_run_that_fails_its_gate(bench_checkout):
    root, commit = bench_checkout
    commit(canned_result(correct=False))
    done = bench_point(root, "--workload", "zero_delay", "--seed", "1", "--seconds", "2")
    assert done.returncode == 1
    assert not (root / "BENCH_zero_delay.json").exists()
