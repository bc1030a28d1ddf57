import json
import threading
import time
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.core import (
    Document,
    PipelineConfig,
    PipelineError,
    Query,
    StageTimings,
    TaskKind,
)
from draftrag import harness
from draftrag.harness import (
    DatasetError,
    DatasetRecord,
    build_standard_prompt,
    evaluate_answer,
    load_dataset,
    make_backends,
    report_latency,
    run_ablations,
    run_experiment,
    run_speculative,
    run_standard_baseline,
    run_sweep,
    write_dataset,
)
from draftrag.mock_server import MockScript
from draftrag.synthetic import make_rigged_fixture
from reference_texts import WORKED_ANSWER_B


def record_line(qid="q1", n_docs=2, **overrides):
    obj = {
        "id": qid,
        "question": "where is it?",
        "task_kind": "free_form",
        "answers": ["somewhere"],
        "documents": [
            {"id": f"{qid}-d{i}", "title": f"T{i}", "text": f"text {i}"}
            for i in range(n_docs)
        ],
    }
    obj.update(overrides)
    return obj


class TestLoadDataset:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            "\n".join(json.dumps(record_line(f"q{i}")) for i in range(3)) + "\n",
            encoding="utf-8",
        )
        records = load_dataset(path)
        assert len(records) == 3
        assert records[0].query.id == "q0"
        assert [d.id for d in records[0].documents] == ["q0-d0", "q0-d1"]

    def test_missing_documents_names_line_two(self, tmp_path):
        lines = [json.dumps(record_line("q1"))]
        bad = record_line("q2")
        del bad["documents"]
        lines.append(json.dumps(bad))
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps(record_line("q1")) + "\n" + json.dumps(record_line("q1")) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="duplicate query id"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record_line()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        path = tmp_path / "data.jsonl"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_dataset(path) == []
        assert any("empty" in r.message for r in caplog.records)

    def test_choices_required_iff_choice_task(self, tmp_path):
        path = tmp_path / "data.jsonl"
        bad = record_line("q1", task_kind="closed_set_choice")
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="requires choices"):
            load_dataset(path)
        bad2 = record_line("q2", choices=[["A", "first"]])
        path.write_text(json.dumps(bad2) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="only allowed"):
            load_dataset(path)
        bad3 = record_line("q3", task_kind="closed_set_choice", choices=["AB", "CD"])
        path.write_text(json.dumps(bad3) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1: choices must be"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"answers": [None, {"a": 1}]}, "every answer must be a string"),
            ({"answers": ["ok", 7]}, "every answer must be a string"),
            (
                {"documents": [{"id": "d0", "title": 7, "text": "t"}]},
                'document "d0" has a title that is not a string',
            ),
            (
                {"task_kind": "closed_set_choice", "choices": [[1, None], ["B", "x"]]},
                "choice labels and texts must be strings",
            ),
        ],
    )
    def test_non_string_answer_or_title_names_the_line(
        self, tmp_path, overrides, message
    ):
        path = tmp_path / "data.jsonl"
        good, bad = record_line("q1"), record_line("q2", **overrides)
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"line 2: {message}"):
            load_dataset(path)

    def test_write_then_load_round_trip(self, tmp_path):
        cfg = PipelineConfig(top_n=4)
        fixture = make_rigged_fixture(cfg, num_records=2)
        path = tmp_path / "out.jsonl"
        write_dataset(fixture.records, path)
        assert load_dataset(path) == fixture.records


class TestEvaluateAnswer:
    def test_worked_free_form_containment(self):
        query = Query(id="q", text="who?", gold_answers=("Dolly Parton",))
        assert evaluate_answer(WORKED_ANSWER_B, query)

    def test_containment_normalizes_case_and_whitespace(self):
        query = Query(id="q", text="who?", gold_answers=("DOLLY   parton",))
        assert evaluate_answer("well, dolly parton did", query)

    def test_wrong_free_form_answer(self):
        query = Query(id="q", text="who?", gold_answers=("Dolly Parton",))
        assert not evaluate_answer("Diana DeGarmo", query)

    def test_choice_label_match(self):
        query = Query(
            id="q",
            text="pick",
            task_kind=TaskKind.CLOSED_SET_CHOICE,
            choices=(("A", "one"), ("B", "two")),
            gold_answers=("A",),
        )
        assert evaluate_answer("A", query)
        assert evaluate_answer("The answer is (A) one.", query)
        assert not evaluate_answer("B", query)

    def test_boolean_synonyms(self):
        query = Query(
            id="q",
            text="claim",
            task_kind=TaskKind.CLOSED_SET_BOOLEAN,
            gold_answers=("true",),
        )
        assert evaluate_answer("Yes, the claim holds.", query)
        assert evaluate_answer("True.", query)
        assert not evaluate_answer("No, this is false.", query)

    def test_no_gold_answers_is_false(self):
        assert not evaluate_answer("anything", Query(id="q", text="?"))

    @given(
        gold=st.text(
            alphabet="abcdefghij ", min_size=1, max_size=20
        ).filter(lambda s: s.strip()),
        suffix=st.text(alphabet="klmnopqrst ", max_size=20),
    )
    @settings(max_examples=60)
    def test_containment_reflexive_and_monotone_under_append(self, gold, suffix):
        query = Query(id="q", text="?", gold_answers=(gold,))
        assert evaluate_answer(gold, query)
        assert evaluate_answer(gold + " " + suffix, query)


class TestStandardPrompt:
    def test_ten_docs_in_rank_order(self):
        docs = [Document(f"d{i}", f"Title {i}", f"Text {i}.") for i in range(1, 11)]
        prompt = build_standard_prompt(Query(id="q", text="what?"), docs)
        positions = [prompt.index(f"[{i}] Title {i}") for i in range(1, 11)]
        assert positions == sorted(positions)
        assert prompt.startswith(
            "Below is an instruction that describes a task. Write a response "
            "that appropriately completes the request. \n"
        )
        assert "### Evidence:" in prompt
        assert "### Instruction: what?" in prompt
        assert prompt.endswith("### Response:")


@dataclass
class FirstDraftHeldBack(MockScript):
    """Holds back the reply to the first draft request for ``hold_s``, and
    notes when that reply leaves and when each echo request arrives."""

    hold_s: float = 0.3
    held_reply_at: float = float("inf")
    echo_arrivals: list[float] = field(default_factory=list)
    _held: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def generate(self, prompt):
        with self._lock:
            hold, self._held = not self._held, True
        if hold:
            time.sleep(self.hold_s)
            self.held_reply_at = time.perf_counter()
        return super().generate(prompt)

    def echo(self, prompt):
        with self._lock:
            self.echo_arrivals.append(time.perf_counter())
        return super().echo(prompt)


@pytest.fixture(scope="module")
def rigged():
    cfg = PipelineConfig(top_n=4, rng_seed=42)
    return make_rigged_fixture(cfg, num_records=3)


@pytest.fixture
def rigged_env(rigged, server_factory):
    server = server_factory(script=rigged.script)
    cfg = replace(
        rigged.config,
        drafter_endpoints=(server.generate_url,),
        verifier_endpoint=server.generate_url,
        embedding_endpoint=server.embed_url,
    )
    return rigged.records, cfg, server


class TestPipelines:
    def test_speculative_selects_rigged_gold(self, rigged_env):
        records, cfg, _ = rigged_env
        backends = make_backends(cfg)
        for record in records:
            result = run_speculative(record, cfg, backends)
            assert evaluate_answer(result.final_answer, record.query)
            winning = [
                c
                for c in result.candidates
                if c["subset_index"] == result.winning_subset_index
            ]
            assert winning[0]["answer"] == result.final_answer

    def test_single_draft_degenerates_to_that_draft(self, server_factory):
        base = PipelineConfig(top_n=4, num_drafts=1, rng_seed=5)
        fixture = make_rigged_fixture(base, num_records=1, require_contrast=False)
        server = server_factory(script=fixture.script)
        cfg = replace(
            base,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        result = run_speculative(fixture.records[0], cfg, make_backends(cfg))
        candidates = [c for c in result.candidates if not c["dropped"]]
        assert len(candidates) == 1
        assert result.winning_subset_index == candidates[0]["subset_index"]
        assert result.final_answer == candidates[0]["answer"]

    def test_standard_baseline_single_call_no_verification(self, rigged_env):
        records, cfg, server = rigged_env
        server.reset_log()
        result = run_standard_baseline(records[0], cfg, make_backends(cfg))
        assert result.mode == "standard"
        assert len(result.candidates) == 1
        assert result.timings.verify_ms == 0.0
        assert server.request_counts() == {"generate": 1}

    def test_request_accounting_m_generations_at_most_m_echoes(self, rigged_env):
        records, cfg, server = rigged_env
        server.reset_log()
        result = run_speculative(records[0], cfg, make_backends(cfg))
        counts = server.request_counts()
        n_candidates = len([c for c in result.candidates if not c["dropped"]])
        assert counts["generate"] == len(result.candidates)
        assert counts["echo"] <= len(result.candidates)
        assert counts["echo"] == n_candidates
        assert counts["embed"] == 1

    def test_latency_decomposition(self, rigged_env):
        records, cfg, _ = rigged_env
        result = run_speculative(records[0], cfg, make_backends(cfg))
        t = result.timings
        serial_sum = t.embed_ms + t.cluster_ms + t.sample_ms + t.draft_ms + t.verify_ms
        assert t.total_ms >= serial_sum - 20.0
        assert t.total_ms >= max(
            t.embed_ms, t.cluster_ms, t.sample_ms, t.draft_ms, t.verify_ms
        )
        # Drafting and verification overlap: draft_ms ends at the last
        # draft and verify_ms is the tail after it.
        assert t.draft_ms + t.verify_ms <= t.total_ms

    def test_no_thread_starts_per_query_after_warm_up(
        self, rigged, server_factory, monkeypatch
    ):
        # A delay makes every draft, and then every verification, overlap,
        # so the warm-up grows each pool to its peak.
        script = MockScript(
            completions=rigged.script.completions,
            echoes=rigged.script.echoes,
            delay_ms=20,
        )
        server = server_factory(script=script)
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        backends = make_backends(cfg)
        record = rigged.records[0]
        for _ in range(2):
            run_speculative(record, cfg, backends)
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        for _ in range(20):
            run_speculative(record, cfg, backends)
        assert started == []
        assert threading.active_count() == before

    def test_each_draft_is_verified_as_soon_as_it_arrives(
        self, rigged, server_factory
    ):
        script = FirstDraftHeldBack(
            completions=rigged.script.completions, echoes=rigged.script.echoes
        )
        server = server_factory(script=script)
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        result = run_speculative(rigged.records[0], cfg, make_backends(cfg))
        drafts = len(result.candidates)
        assert drafts >= 2
        assert not any(c["dropped"] for c in result.candidates)
        assert len(script.echo_arrivals) == drafts
        early = [t for t in script.echo_arrivals if t < script.held_reply_at]
        assert len(early) == drafts - 1

    def test_draft_stage_errors_come_before_verify_stage_errors(
        self, rigged_env, monkeypatch
    ):
        records, cfg, _ = rigged_env
        real_draft = harness.draft_subset

        def draft_fails_for_subset_1(query, subset, *rest):
            if subset.subset_index == 1:
                raise RuntimeError("draft boom")
            return real_draft(query, subset, *rest)

        def verify_fails(*args):
            raise RuntimeError("verify boom")

        monkeypatch.setattr(harness, "verify_candidate", verify_fails)
        monkeypatch.setattr(harness, "draft_subset", draft_fails_for_subset_1)
        with pytest.raises(PipelineError, match="^draft stage failed: draft boom$"):
            run_speculative(records[0], cfg, make_backends(cfg))
        monkeypatch.setattr(harness, "draft_subset", real_draft)
        with pytest.raises(PipelineError, match="^verify stage failed: verify boom$"):
            run_speculative(records[0], cfg, make_backends(cfg))

    def test_gold_answer_never_reaches_any_request(self, rigged_env, server_factory):
        # A sentinel gold answer that appears nowhere in the documents must
        # not appear in any outbound prompt.
        records, cfg, _ = rigged_env
        record = records[0]
        sentinel = "XYZZY-UNSPOKEN-77"
        spiked = DatasetRecord(
            query=replace(record.query, gold_answers=(sentinel,)),
            documents=record.documents,
        )
        server = server_factory(script=MockScript())
        cfg2 = replace(
            cfg,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        run_speculative(spiked, cfg2, make_backends(cfg2))
        run_standard_baseline(spiked, cfg2, make_backends(cfg2))
        for entry in server.request_log_snapshot():
            assert sentinel not in (entry["prompt"] or "")


class TestExperiments:
    def test_run_experiment_writes_results_and_summary(self, rigged_env, tmp_path):
        records, cfg, _ = rigged_env
        summary = run_experiment(records, cfg, out_dir=tmp_path, name="spec")
        assert summary.accuracy == 1.0
        assert summary.evaluated == len(records)
        results_path = tmp_path / "spec.results.jsonl"
        assert results_path.exists()
        lines = results_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        assert (tmp_path / "spec.summary.json").exists()
        assert (tmp_path / "spec.config.json").exists()

    def test_results_deterministic_modulo_timings(self, rigged_env, tmp_path):
        records, cfg, _ = rigged_env

        def run_once(name):
            run_experiment(records, cfg, out_dir=tmp_path, name=name)
            stripped = []
            for line in (tmp_path / f"{name}.results.jsonl").read_text().splitlines():
                obj = json.loads(line)
                obj.pop("timings")
                stripped.append(json.dumps(obj, sort_keys=True))
            return stripped

        assert run_once("a") == run_once("b")

    def test_failed_records_are_excluded_not_fatal(self, rigged_env):
        records, cfg, _ = rigged_env
        broken = DatasetRecord(
            query=Query(id="broken", text="?", gold_answers=("x",)),
            documents=(),
        )
        summary = run_experiment(list(records) + [broken], cfg)
        assert summary.failures == 1
        assert summary.evaluated == len(records)
        failed_row = [r for r in summary.per_record if r["query_id"] == "broken"]
        assert failed_row[0]["correct"] is None

    def test_interrupt_inside_a_stage_reaches_the_caller(self, rigged, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "embed_documents", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(rigged.records, rigged.config)

    def test_ablation_grid_runs_every_variant(self, rigged_env):
        records, cfg, _ = rigged_env
        summaries = run_ablations(records[:1], cfg)
        names = [s.name for s in summaries]
        assert names == [
            "baseline",
            "sampling_random_no_cluster",
            "sampling_same_cluster",
            "score_wo_draft",
            "score_wo_self_consistency",
            "score_wo_self_reflection",
            "selection_random",
            "context_documents_only",
            "context_rationale_and_documents",
        ]
        configs = {json.dumps(s.config, sort_keys=True) for s in summaries}
        assert len(configs) == len(summaries)

    def test_unknown_variant_rejected(self, rigged_env):
        records, cfg, _ = rigged_env
        with pytest.raises(ValueError, match="unknown ablation"):
            run_ablations(records[:1], cfg, variants=["nope"])

    def test_sweep_counts_match_grids(self, rigged_env):
        records, cfg, _ = rigged_env
        m_sweep = run_sweep(records[:1], cfg, m_values=[5, 10, 15, 20])
        assert [s.name for s in m_sweep] == ["m_5", "m_10", "m_15", "m_20"]
        size_sweep = run_sweep(
            records[:1], replace(cfg, num_drafts=10), subset_sizes=[1, 2, 4, 6]
        )
        assert [s.name for s in size_sweep] == [
            "subset_1",
            "subset_2",
            "subset_4",
            "subset_6",
        ]

    def test_sweep_past_num_drafts_still_drafts_concurrently(self, server_factory):
        # No pool sized from the config's num_drafts may serialise a sweep
        # point with more drafts than that.
        delay, m = 100, 8
        base = PipelineConfig(top_n=m, num_clusters=1, num_drafts=m, rng_seed=3)
        fixture = make_rigged_fixture(base, num_records=1, distractors=m - 1)
        server = server_factory(script=MockScript(delay_ms=delay))
        cfg = replace(
            base,
            num_drafts=2,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        [summary] = run_sweep(fixture.records, cfg, m_values=[m])
        assert summary.failures == 0
        assert server.request_counts()["generate"] == m
        assert summary.latency["draft_ms"]["p50"] < m * delay / 3


class TestReportLatency:
    def timing(self, total, draft=None):
        return StageTimings(
            embed_ms=1.0,
            cluster_ms=1.0,
            sample_ms=1.0,
            draft_ms=draft if draft is not None else total / 2,
            verify_ms=1.0,
            total_ms=total,
        )

    def test_two_modes_signed_percent_difference(self):
        table = report_latency(
            {
                "speculative": [self.timing(100.0)] * 4,
                "standard": [self.timing(500.0)] * 4,
            }
        )
        assert "-80.0%" in table

    def test_single_mode_has_no_difference_line(self):
        table = report_latency({"speculative": [self.timing(100.0)]})
        assert "%" not in table
        assert "total_ms" in table

    def test_zero_duration_stages_are_safe(self):
        table = report_latency({"standard": [StageTimings()]})
        assert "draft_ms" in table

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            report_latency({})
