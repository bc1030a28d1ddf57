import json
import os
import select
import signal
import socket
import subprocess
import sys
from dataclasses import replace
from http.client import HTTPConnection
from pathlib import Path

import pytest

from draftrag import harness
from draftrag.cli import main
from draftrag.core import MAX_NUM_DRAFTS, PipelineConfig
from draftrag.harness import write_dataset
from draftrag.synthetic import make_rigged_fixture
from json_strategies import DEEPEST, nested_arrays


@pytest.fixture(scope="module")
def rigged():
    return make_rigged_fixture(PipelineConfig(top_n=4, rng_seed=7), num_records=3)


@pytest.fixture
def cli_server(rigged, server_factory):
    return server_factory(script=rigged.script)


@pytest.fixture
def cli_env(rigged, cli_server, tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(rigged.records, dataset)
    cfg = replace(
        rigged.config,
        drafter_endpoints=(cli_server.generate_url,),
        verifier_endpoint=cli_server.generate_url,
        embedding_endpoint=cli_server.embed_url,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return dataset, config_path, tmp_path


def test_run_speculative_exit_zero_and_outputs(cli_env, capsys):
    dataset, config, tmp = cli_env
    out = tmp / "out"
    code = main(
        [
            "run",
            "--dataset",
            str(dataset),
            "--config",
            str(config),
            "--mode",
            "speculative",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "accuracy 1.0000" in captured
    assert (out / "speculative.results.jsonl").exists()
    summary = json.loads((out / "speculative.summary.json").read_text(encoding="utf-8"))
    assert summary["interrupted"] is False
    assert (out / "speculative.config.json").exists()


def test_run_standard_mode(cli_env, capsys):
    dataset, config, _ = cli_env
    code = main(
        ["run", "--dataset", str(dataset), "--config", str(config), "--mode", "standard"]
    )
    assert code == 0
    assert "standard: accuracy" in capsys.readouterr().out


def test_invalid_config_exits_two(cli_env, capsys):
    dataset, config, tmp = cli_env
    bad = json.loads(config.read_text())
    bad["num_clusters"] = 99
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["run", "--dataset", str(dataset), "--config", str(bad_path)])
    assert code == 2
    assert "k ≤ n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "endpoint", ["{mock}/a b", "{mock}/g\u00e9", "http://h\u00e9st:80/g"]
)
def test_endpoint_no_request_can_go_to_exits_two_before_any_request(
    cli_env, cli_server, capsys, endpoint
):
    dataset, config, tmp = cli_env
    bad = json.loads(config.read_text())
    bad["verifier_endpoint"] = endpoint.format(mock=cli_server.url)
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["run", "--dataset", str(dataset), "--config", str(bad_path)])
    assert code == 2
    assert "has a space or non-ASCII character" in capsys.readouterr().err
    assert cli_server.request_counts() == {}


def test_scheme_less_endpoint_exits_two(cli_env, capsys):
    dataset, config, tmp = cli_env
    bad = json.loads(config.read_text())
    bad["drafter_endpoints"] = ["127.0.0.1:8080/generate"]
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["run", "--dataset", str(dataset), "--config", str(bad_path)])
    assert code == 2
    assert "http(s) URL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,named",
    [
        ({"num_drafts": "5"}, "num_drafts"),
        ({"request_timeout_ms": None}, "request_timeout_ms"),
        ({"sampling_mode": "bogus"}, "sampling_mode"),
        ({"score_terms": "draft"}, "score_terms"),
        ({"rng_seed": 1.5}, "rng_seed"),
        # A removed field: config files from before its removal are refused.
        (
            {"length_normalize_logprobs": False},
            "unknown config keys: length_normalize_logprobs",
        ),
        ({"drafter_endpoints": "http://127.0.0.1:8080/generate"}, "drafter_endpoints"),
        (None, "JSON object"),  # the whole config wrapped in an array
    ],
)
def test_config_value_of_the_wrong_type_exits_two(cli_env, capsys, override, named):
    dataset, config, tmp = cli_env
    raw = json.loads(config.read_text())
    bad = [raw] if override is None else {**raw, **override}
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["run", "--dataset", str(dataset), "--config", str(bad_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err


def test_missing_dataset_exits_two(cli_env):
    _, config, tmp = cli_env
    code = main(["run", "--dataset", str(tmp / "nope.jsonl"), "--config", str(config)])
    assert code == 2


def test_dataset_that_is_a_directory_exits_two(cli_env, capsys):
    _, config, tmp = cli_env
    code = main(["run", "--dataset", str(tmp), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"cannot read dataset {tmp}" in err


def test_dataset_that_is_not_utf8_exits_two_naming_the_line(cli_env, capsys):
    dataset, config, _ = cli_env
    lines = dataset.read_bytes().splitlines(keepends=True)
    dataset.write_bytes(lines[0] + b'{"id": "caf\xe9"}\n' + b"".join(lines[1:]))
    code = main(["run", "--dataset", str(dataset), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}: line 2: not UTF-8")


def test_dataset_line_nested_too_deeply_exits_two_naming_the_line(
    cli_env, cli_server, capsys
):
    dataset, config, _ = cli_env
    lines = dataset.read_bytes().splitlines(keepends=True)
    dataset.write_bytes(lines[0] + nested_arrays(DEEPEST) + b"\n" + b"".join(lines[1:]))
    code = main(["run", "--dataset", str(dataset), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}: line 2: JSON nested deeper")
    assert cli_server.request_counts() == {}


@pytest.mark.parametrize(
    "content",
    [
        b'{"num_drafts": "caf\xe9"}',
        nested_arrays(DEEPEST),
        b'{"drafter_endpoints": %s}' % nested_arrays(DEEPEST),
    ],
    ids=["not-utf8", "nested", "nested-field"],
)
def test_config_that_cannot_be_read_exits_two(cli_env, cli_server, capsys, content):
    dataset, _, tmp = cli_env
    config = tmp / "unreadable.json"
    config.write_bytes(content)
    code = main(["run", "--dataset", str(dataset), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")
    assert cli_server.request_counts() == {}


def test_results_that_cannot_be_written_exit_two_naming_the_path(
    cli_env, cli_server, capsys
):
    dataset, config, tmp = cli_env
    out = tmp / "out"
    # --out itself is a directory, but its results file cannot be made: that
    # is found when the file is opened, before the first record runs.
    taken = out / "speculative.results.jsonl"
    taken.mkdir(parents=True)
    code = main(
        ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(taken) in err
    assert cli_server.request_counts() == {}


@pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
def test_out_naming_a_file_exits_two_before_any_request(
    cli_env, cli_server, capsys, command
):
    dataset, config, tmp = cli_env
    taken = tmp / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    args = [command, "--dataset", str(dataset), "--config", str(config)]
    extra = ["--m-values", "2"] if command == "sweep" else []
    code = main(args + ["--out", str(taken)] + extra)
    assert code == 2
    assert f"cannot use --out {taken}" in capsys.readouterr().err
    assert cli_server.request_counts() == {}
    assert taken.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize(
    "command",
    [["run"], ["ablate", "--grid", "baseline"], ["sweep", "--m-values", "2"]],
    ids=["run", "ablate", "sweep"],
)
def test_unreachable_backend_exits_three(cli_env, capsys, command):
    dataset, config, tmp = cli_env
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{s.getsockname()[1]}"
    cfg = json.loads(config.read_text())
    cfg["drafter_endpoints"] = [f"{dead}/generate"]
    cfg["verifier_endpoint"] = f"{dead}/generate"
    cfg["embedding_endpoint"] = f"{dead}/embed"
    cfg["request_timeout_ms"] = 200
    dead_path = tmp / "dead.json"
    dead_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(command + ["--dataset", str(dataset), "--config", str(dead_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "accuracy 0.0000 (0/0, 3 failed)" in captured.out
    assert "every record failed" in captured.err


@pytest.mark.parametrize(
    "command, first",
    [
        (["run"], "speculative"),
        (["ablate", "--grid", "baseline,selection_random"], "baseline"),
        (["sweep", "--m-values", "2,3"], "m_2"),
    ],
    ids=["run", "ablate", "sweep"],
)
def test_interrupt_exits_130_with_the_summary_of_finished_records(
    cli_env, capsys, monkeypatch, command, first
):
    dataset, config, tmp = cli_env
    run = harness._RUNNERS["speculative"]
    calls = []

    def interrupted_on_the_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run(*args)

    monkeypatch.setitem(harness._RUNNERS, "speculative", interrupted_on_the_third)
    out = tmp / "out"
    args = ["--dataset", str(dataset), "--config", str(config), "--out", str(out)]
    code = main(command + args)
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    summary = json.loads((out / f"{first}.summary.json").read_text(encoding="utf-8"))
    assert summary["interrupted"] is True
    assert (summary["evaluated"], summary["failures"]) == (2, 0)
    assert sorted(p.name for p in out.iterdir()) == [
        f"{first}.config.json",
        f"{first}.results.jsonl",
        f"{first}.summary.json",
    ]
    assert len(calls) == 3


def test_seed_override_changes_config_snapshot(cli_env, tmp_path):
    dataset, config, _ = cli_env
    out = tmp_path / "seeded"
    code = main(
        [
            "run",
            "--dataset",
            str(dataset),
            "--config",
            str(config),
            "--seed",
            "123456",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    snapshot = json.loads((out / "speculative.config.json").read_text())
    assert snapshot["rng_seed"] == 123456


def test_ablate_selected_variants(cli_env, capsys):
    dataset, config, _ = cli_env
    code = main(
        [
            "ablate",
            "--dataset",
            str(dataset),
            "--config",
            str(config),
            "--grid",
            "baseline,selection_random",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline: accuracy" in out
    assert "selection_random: accuracy" in out


def test_sweep_requires_a_grid(cli_env, capsys):
    dataset, config, _ = cli_env
    code = main(["sweep", "--dataset", str(dataset), "--config", str(config)])
    assert code == 2


def test_sweep_m_values(cli_env, capsys):
    dataset, config, _ = cli_env
    code = main(
        [
            "sweep",
            "--dataset",
            str(dataset),
            "--config",
            str(config),
            "--m-values",
            "2,3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "m_2: accuracy" in out and "m_3: accuracy" in out


def test_sweep_repeated_m_value_runs_once(cli_env, tmp_path, capsys):
    dataset, config, _ = cli_env
    out = tmp_path / "sweep"
    argv = ["sweep", "--dataset", str(dataset), "--config", str(config)]
    code = main([*argv, "--m-values", "2,2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.count("m_2:") == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "m_2.config.json",
        "m_2.results.jsonl",
        "m_2.summary.json",
    ]


def test_report_prints_latency_table(cli_env, tmp_path, capsys):
    dataset, config, _ = cli_env
    out = tmp_path / "for_report"
    main(
        ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
    )
    capsys.readouterr()
    code = main(["report", "--in", str(out / "speculative.results.jsonl")])
    assert code == 0
    table = capsys.readouterr().out
    assert "total_ms" in table and "draft_ms" in table


@pytest.mark.parametrize(
    "line",
    [
        '{"timings": {"bogus_ms": 1}}',
        '{"timings": [1, 2]}',
        "[1, 2]",
        "not json",
        '{"timings": {"total_ms": "x"}}',
        pytest.param(nested_arrays(DEEPEST).decode(), id="nested"),
        pytest.param('{"mode": "\\ud800", "timings": {"total_ms": 1}}', id="surrogate"),
    ],
)
def test_report_bad_results_line_exits_two(tmp_path, capsys, line):
    results = tmp_path / "results.jsonl"
    good = '{"mode": "speculative", "timings": {"total_ms": 3.0}}'
    results.write_text(f"{good}\n{line}\n", encoding="utf-8")
    code = main(["report", "--in", str(results)])
    assert code == 2
    assert f"{results}:2" in capsys.readouterr().err


def test_report_reads_a_cr_in_a_line_as_json_whitespace(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_bytes(
        b'{"mode": "speculative",\r"timings": {"total_ms": 3.0}}\n'
        b'{"mode": "standard", "timings": {"total_ms": 5.0}}\r\n'
    )
    assert main(["report", "--in", str(results)]) == 0
    table = capsys.readouterr().out
    assert "speculative" in table and "standard" in table


def test_report_refuses_lines_ended_by_a_lone_cr(tmp_path, capsys):
    # Only LF ends a line, as in a dataset: this file is one line of two objects.
    results = tmp_path / "results.jsonl"
    good = b'{"mode": "speculative", "timings": {"total_ms": 3.0}}'
    results.write_bytes(good + b"\r" + good + b"\r")
    assert main(["report", "--in", str(results)]) == 2
    assert f"{results}:1: invalid JSON (Extra data" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, values",
    [
        pytest.param("--m-values", "2,0", id="--m-values"),
        pytest.param("--subset-sizes", "2,0", id="--subset-sizes"),
        pytest.param("--m-values", f"2,{MAX_NUM_DRAFTS + 1}", id="--m-values-above-max"),
    ],
)
def test_sweep_value_out_of_range_exits_two_before_any_request(
    rigged, server_factory, tmp_path, capsys, flag, values
):
    server = server_factory(script=rigged.script)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(rigged.records, dataset)
    cfg = replace(
        rigged.config,
        drafter_endpoints=(server.generate_url,),
        verifier_endpoint=server.generate_url,
        embedding_endpoint=server.embed_url,
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    code = main(
        ["sweep", "--dataset", str(dataset), "--config", str(config), flag, values]
    )
    assert code == 2
    assert flag in capsys.readouterr().err
    assert server.request_counts() == {}


def test_sweep_point_that_is_not_a_valid_config_exits_two_before_any_request(
    cli_env, cli_server, capsys
):
    dataset, config, tmp = cli_env
    out = tmp / "sweep"
    args = ["sweep", "--dataset", str(dataset), "--config", str(config)]
    # The fixture's top_n is 4, so subset_9 asks for k > n clusters.
    code = main(args + ["--subset-sizes", "2,9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid config subset_9:" in err
    assert "k ≤ n" in err
    assert not out.exists()
    assert cli_server.request_counts() == {}


def test_ablate_unknown_variant_exits_two(cli_env, cli_server, capsys):
    dataset, config, tmp = cli_env
    out = tmp / "ablations"
    args = ["ablate", "--dataset", str(dataset), "--config", str(config)]
    code = main(args + ["--grid", "bogus", "--out", str(out)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()
    assert cli_server.request_counts() == {}


def test_ablate_empty_selection_exits_two(cli_env, cli_server, capsys):
    dataset, config, tmp = cli_env
    out = tmp / "ablations"
    args = ["ablate", "--dataset", str(dataset), "--config", str(config)]
    code = main(args + ["--grid", ",", "--out", str(out)])
    assert code == 2
    assert "nothing to run" in capsys.readouterr().err
    assert not out.exists()
    assert cli_server.request_counts() == {}


def test_timeout_beyond_what_a_socket_holds_exits_two_before_any_request(
    cli_env, cli_server, capsys
):
    dataset, config, tmp = cli_env
    cfg = json.loads(config.read_text())
    cfg["request_timeout_ms"] = 10**16
    huge = tmp / "huge_timeout.json"
    huge.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["run", "--dataset", str(dataset), "--config", str(huge)])
    assert code == 2
    assert "request_timeout_ms" in capsys.readouterr().err
    assert cli_server.request_counts() == {}


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1]",
        '{"delay_ms": "x"}',
        '{"echoes": [{"prompt_sha256": "a", "tokens": [{"logprob": -1}]}]}',
        pytest.param(nested_arrays(DEEPEST).decode(), id="nested"),
    ],
)
def test_mock_serve_bad_script_exits_two(tmp_path, content):
    # In a child process with a timeout: a script that loads when it should
    # not then fails the test instead of serving forever.
    script = tmp_path / "script.json"
    script.write_text(content, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "draftrag.cli", "mock-serve", "--script", str(script)]
        + ["--port", "0"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert "cannot load mock script" in proc.stderr


def test_mock_serve_port_out_of_range_exits_two(capsys):
    code = main(["mock-serve", "--port", "99999"])
    assert code == 2
    assert "cannot serve on port 99999: " in capsys.readouterr().err


def test_mock_serve_port_in_use_exits_two(capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["mock-serve", "--port", str(port)])
    assert code == 2
    assert f"cannot serve on port {port}: " in capsys.readouterr().err


def test_mock_serve_answers_then_exits_zero_on_sigint():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)  # the banner must be flushed by itself
    proc = subprocess.Popen(
        # faulthandler dumps every thread's traceback on SIGABRT, should the
        # server hang after SIGINT.
        [sys.executable, "-X", "faulthandler"]
        + ["-m", "draftrag.cli", "mock-serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no banner in 30 s"
        banner = proc.stdout.readline()
        assert banner.startswith("mock LM server on http://127.0.0.1:"), banner
        conn = HTTPConnection("127.0.0.1", int(banner.rsplit(":", 1)[1]), timeout=10)
        try:
            conn.request("POST", "/generate", b'{"prompt": "hi"}')
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["text"] == "## Rationale: hi. ## Response: hi."
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGABRT)
            _, err = proc.communicate(timeout=10)
            pytest.fail(f"mock-serve still running 30 s after SIGINT; SIGABRT:\n{err}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "Traceback" not in err
