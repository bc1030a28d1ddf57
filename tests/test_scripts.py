"""Each script under ``scripts/`` runs as a user would run it, in its own
process."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
