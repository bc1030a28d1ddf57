import json
import re
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.backend import EndpointDescriptor, MalformedResponseError
from draftrag.core import (
    Document,
    PipelineConfig,
    PipelineError,
    Query,
    SamplingMode,
    ScoreTerm,
    SelectionMode,
    StageTimings,
    TaskKind,
)
from draftrag import backend, harness
from draftrag.clustering import (
    KMEANS_MAX_ITERS,
    embedding_input,
    kmeans_cluster,
    unit_rows,
)
from draftrag.drafting import build_draft_prompt
from draftrag.harness import (
    DatasetError,
    DatasetRecord,
    ablation_grid,
    build_standard_prompt,
    evaluate_answer,
    load_dataset,
    make_backends,
    report_latency,
    run_experiment,
    run_speculative,
    run_standard_baseline,
    sweep_grid,
    write_dataset,
)
from draftrag.mock_server import MockLMServer, MockScript, uniform_tokens
from draftrag.synthetic import make_rigged_fixture
from json_strategies import DEEPEST, nested_arrays
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

    def test_lines_that_str_strip_empties_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        blank = "\u00a0 \u2028\t\r\n"
        path.write_text(f"{blank}{json.dumps(record_line())}\n{blank}", encoding="utf-8")
        assert [r.query.id for r in load_dataset(path)] == ["q1"]

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
            ({"task_kind": "essay"}, 'unknown task_kind "essay"'),
            ({"task_kind": ["free_form"]}, 'unknown task_kind "\\[\'free_form\'\\]"'),
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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"question": "who \ud800 is"}, ".question"),
            ({"answers": ["ok", "x\udfff"]}, ".answers[1]"),
            (
                {"documents": [{"id": "d0", "title": "T", "text": "\ud83d"}]},
                ".documents[0].text",
            ),
            (
                {"documents": [{"id": "d0", "title": "\udc00", "text": "t"}]},
                ".documents[0].title",
            ),
            (
                {
                    "task_kind": "closed_set_choice",
                    "choices": [["A", "fine"], ["B", "no\ud800"]],
                },
                ".choices[1][1]",
            ),
            ({"extra": {"\ud800": 1}}, '.extra["\\ud800"]'),
        ],
    )
    def test_lone_surrogate_is_rejected_with_its_line(self, tmp_path, overrides, field):
        path = tmp_path / "data.jsonl"
        good, bad = record_line("q1"), record_line("q2", **overrides)
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", encoding="utf-8")
        message = f"line 2: {field} holds a lone surrogate, not encodable as UTF-8"
        with pytest.raises(DatasetError, match=re.escape(message)):
            load_dataset(path)

    def test_write_then_load_round_trip(self, tmp_path):
        cfg = PipelineConfig(top_n=4)
        fixture = make_rigged_fixture(cfg, num_records=2)
        path = tmp_path / "out.jsonl"
        write_dataset(fixture.records, path)
        assert load_dataset(path) == fixture.records


class TestPlanSubsets:
    @pytest.mark.parametrize(
        "texts, k, distinct",
        [(["a"] * 4 + ["b"] * 4, 3, 2), (["same"] * 7, 7, 1)],
    )
    def test_k_is_clamped_to_distinct_embeddings(self, monkeypatch, texts, k, distinct):
        docs = [Document(id=f"d{i}", title="", text=t) for i, t in enumerate(texts)]
        query = Query(id="q", text="which?")
        inputs = [embedding_input(d) for d in docs]
        vectors = np.array(MockScript().embed(query.text, inputs)["embeddings"])
        runs = []

        def recorded(*args):
            runs.append(kmeans_cluster(*args))
            return runs[-1]

        monkeypatch.setattr(harness, "kmeans_cluster", recorded)
        cfg = PipelineConfig(num_clusters=k, rng_seed=3)
        plan = harness.plan_subsets(query, docs, vectors, cfg, StageTimings())
        [clusters] = runs
        assert clusters.k == distinct
        assert len(clusters.sse_history) < KMEANS_MAX_ITERS
        assert f"num_clusters clamped from {k} to {distinct} distinct" in " ".join(
            plan.notices
        )
        assert plan.subsets


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


class NoMarkers(MockScript):
    """Answers every generation request with a completion lacking both
    markers, so every draft is dropped."""

    def generate(self, prompt):
        text = "no markers here"
        return {"text": text, "tokens": uniform_tokens(text, -1.0)}


class EchoRefusesAll(MockScript):
    """Answers every echo with a positive last logprob, which the verifier
    rejects, so every verification is dropped."""

    def echo(self, prompt):
        *tokens, last = super().echo(prompt)["tokens"]  # shared with the script
        return {"text": prompt, "tokens": [*tokens, {**last, "logprob": 0.5}]}


class TokenlessGeneration(MockScript):
    """Replies to every generation request without a token list."""

    def generate(self, prompt):
        return {"text": super().generate(prompt)["text"]}


@dataclass
class FirstDraftNotUtf8(MockScript):
    """Replies to the first generation request with a text that JSON can
    carry but UTF-8 cannot encode: a lone surrogate."""

    _sent: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def generate(self, prompt):
        with self._lock:
            first, self._sent = not self._sent, True
        reply = super().generate(prompt)
        return {**reply, "text": "\ud800"} if first else reply


class EchoRefusesUnsupported(MockScript):
    """Answers an echo of any prompt holding "unsupported" with a positive
    logprob, which the verifier rejects."""

    def echo(self, prompt):
        reply = super().echo(prompt)
        if "unsupported" in prompt:
            reply["tokens"][-1]["logprob"] = 0.5
        return reply


@pytest.fixture
def nested_reply_url():
    """A generation URL whose server answers every POST with a 200 whose
    body is ``DEEPEST`` nested arrays."""
    body = nested_arrays(DEEPEST)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/generate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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
                if c.subset_index == result.winning_subset_index
            ]
            assert winning[0].answer == result.final_answer

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
        candidates = [c for c in result.candidates if not c.dropped]
        assert len(candidates) == 1
        assert result.winning_subset_index == candidates[0].subset_index
        assert result.final_answer == candidates[0].answer

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
        n_candidates = len([c for c in result.candidates if not c.dropped])
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
        # The client starts no thread at all; the in-process mock starts one
        # per new connection. A delay makes every draft, and then every
        # verification, overlap, so the warm-up opens every connection the
        # later queries reuse.
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
        assert not any(c.dropped for c in result.candidates)
        assert len(script.echo_arrivals) == drafts
        early = [t for t in script.echo_arrivals if t < script.held_reply_at]
        assert len(early) == drafts - 1

    def test_each_half_reports_its_own_stage(self, rigged_env, monkeypatch):
        records, cfg, _ = rigged_env
        real_draft = harness.draft_subset

        def draft_fails_for_subset_0(query, subset, *rest):
            if subset.subset_index == 0:
                raise RuntimeError("draft boom")
            return real_draft(query, subset, *rest)

        def verify_fails(*args):
            raise RuntimeError("verify boom")

        monkeypatch.setattr(harness, "verify_candidate", verify_fails)
        monkeypatch.setattr(harness, "draft_subset", draft_fails_for_subset_0)
        with pytest.raises(PipelineError, match="^draft stage failed: draft boom$"):
            run_speculative(records[0], cfg, make_backends(cfg))
        monkeypatch.setattr(harness, "draft_subset", real_draft)
        with pytest.raises(PipelineError, match="^verify stage failed: verify boom$"):
            run_speculative(records[0], cfg, make_backends(cfg))

    def test_standard_reply_without_tokens_fails_the_record(
        self, rigged, server_factory
    ):
        server = server_factory(script=TokenlessGeneration())
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        with pytest.raises(PipelineError, match='lacks a "tokens" list') as info:
            run_standard_baseline(rigged.records[0], cfg, make_backends(cfg))
        assert isinstance(info.value.__cause__, MalformedResponseError)

    def test_reply_text_that_is_not_utf8_drops_one_draft(
        self, rigged, server_factory, monkeypatch
    ):
        server = server_factory(script=FirstDraftNotUtf8())
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        failed_at = []
        record_failure = EndpointDescriptor.record_failure

        def counted(endpoint, timeout_ms):
            failed_at.append(endpoint.url)
            record_failure(endpoint, timeout_ms)

        monkeypatch.setattr(EndpointDescriptor, "record_failure", counted)
        result = run_speculative(rigged.records[0], cfg, make_backends(cfg))
        dropped = [c for c in result.candidates if c.dropped]
        assert len(dropped) == 1
        assert ".text holds a lone surrogate, not encodable as UTF-8" in (
            dropped[0].drop_reason
        )
        assert failed_at == [server.generate_url]
        assert result.final_answer

    def test_reply_nested_too_deeply_drops_only_its_draft(
        self, rigged, server_factory, nested_reply_url
    ):
        server = server_factory(script=rigged.script)
        # Round robin sends subset 0 alone to the nested reply.
        cfg = replace(
            rigged.config,
            drafter_endpoints=(nested_reply_url,) + (server.generate_url,) * 4,
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        backends = make_backends(cfg)
        result = run_speculative(rigged.records[0], cfg, backends)
        dropped = [c for c in result.candidates if c.dropped]
        assert [c.subset_index for c in dropped] == [0]
        assert "response body: JSON nested deeper" in dropped[0].drop_reason
        assert len(result.candidates) > 1 and result.final_answer
        assert backends.drafters[0].consecutive_failures == 1

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
            assert sentinel not in entry["prompt"]


    def test_rows_and_notices_with_one_draft_and_one_verification_dropped(
        self, server_factory
    ):
        # Subset 1's verification and subset 2's draft fail, so the notice
        # order (draft drops first) differs from subset order.
        record = DatasetRecord(
            query=Query(id="q", text="where is it?", gold_answers=("x",)),
            documents=tuple(Document(f"d{i}", f"T{i}", f"text {i}") for i in range(4)),
        )
        base = PipelineConfig(top_n=4, num_drafts=3, num_clusters=2, rng_seed=0)
        script = EchoRefusesUnsupported()
        query, docs, _ = harness.prepare_record(record, base)
        rows = script.embed(query.text, [embedding_input(d) for d in docs])
        plan = harness.plan_subsets(
            query, docs, unit_rows(rows["embeddings"]), base, StageTimings()
        )
        prompts = [
            build_draft_prompt(query, s, {d.id: d for d in docs}) for s in plan.subsets
        ]
        assert len(set(prompts)) == 3
        script.script_completion(
            prompts[1], "## Rationale: unsupported ## Response: Elsewhere"
        )
        script.script_completion(prompts[2], "no markers here")
        server = server_factory(script=script)
        cfg = replace(
            base,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        result = run_speculative(record, cfg, make_backends(cfg))
        written = json.loads(
            json.dumps(asdict(result)).replace(server.generate_url, "<verifier>")
        )
        echo_error = (
            "token 22 has logprob 0.5, not a finite value <= 0 (endpoint <verifier>)"
        )
        assert written["candidates"] == [
            {
                "subset_index": 0,
                "member_doc_ids": ["d0", "d1"],
                "answer": "text 1.",
                "rationale": "text 1.",
                "rho_draft_log": -1.3068528194400546,
                "rho_sc_log": -0.8,
                "rho_sr_log": -0.5,
                "rho_final_log": -2.6068528194400544,
                "dropped": False,
                "drop_reason": None,
            },
            {
                "subset_index": 1,
                "member_doc_ids": ["d0", "d2"],
                "answer": "Elsewhere",
                "rationale": "unsupported",
                "rho_draft_log": -0.3068528194400547,
                "rho_sc_log": None,
                "rho_sr_log": None,
                "rho_final_log": None,
                "dropped": True,
                "drop_reason": echo_error,
            },
            {
                "subset_index": 2,
                "member_doc_ids": None,
                "answer": None,
                "rationale": None,
                "rho_draft_log": None,
                "rho_sc_log": None,
                "rho_sr_log": None,
                "rho_final_log": None,
                "dropped": True,
                "drop_reason": 'missing "## Rationale:" marker',
            },
        ]
        assert written["notices"] == [
            'draft 2 dropped: missing "## Rationale:" marker',
            f"verification 1 dropped: {echo_error}",
        ]
        assert (result.winning_subset_index, result.final_answer) == (0, "text 1.")

    @pytest.mark.parametrize(
        "script_type, error",
        [
            (
                NoMarkers,
                r'no valid drafts: (draft \d+ dropped: missing "## Rationale:" marker; )*'
                r'draft \d+ dropped: missing "## Rationale:" marker',
            ),
            (
                EchoRefusesAll,
                r"no surviving candidates to select from: "
                r"(verification \d+ dropped: token \d+ has logprob 0.5, [^;]*; )*"
                r"verification \d+ dropped: token \d+ has logprob 0.5, [^;]*",
            ),
        ],
        ids=["drafts", "verifications"],
    )
    def test_a_record_with_every_subset_dropped_says_why_in_the_summary(
        self, rigged, server_factory, tmp_path, script_type, error
    ):
        server = server_factory(
            script=script_type(
                completions=rigged.script.completions, echoes=rigged.script.echoes
            )
        )
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        record = rigged.records[0]
        run_experiment([record], cfg, name="spec", out_dir=tmp_path)
        summary = json.loads((tmp_path / "spec.summary.json").read_text())
        [row] = summary["per_record"]
        assert row["correct"] is None
        assert re.fullmatch(error, row["error"])
        # One reason per subset, in subset order.
        log = server.request_log_snapshot()
        subsets = sum(1 for entry in log if entry["kind"] == "generate")
        dropped = re.findall(r"(?:draft|verification) (\d+) dropped", row["error"])
        assert [int(i) for i in dropped] == list(range(subsets))


def run_grid(records, grid):
    return [run_experiment(records, cfg, name=name) for name, cfg in grid]


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

    def test_rows_of_finished_records_are_on_disk_when_a_run_is_interrupted(
        self, rigged_env, tmp_path, monkeypatch
    ):
        records, cfg, _ = rigged_env
        finished = 2
        run = harness._RUNNERS["speculative"]
        calls = []

        def interrupted_after_two(*args):
            calls.append(1)
            if len(calls) > finished:
                raise KeyboardInterrupt
            return run(*args)

        monkeypatch.setitem(harness._RUNNERS, "speculative", interrupted_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(records, cfg, name="spec", out_dir=tmp_path)
        rows = (tmp_path / "spec.results.jsonl").read_text(encoding="utf-8")
        assert [json.loads(row)["query_id"] for row in rows.splitlines()] == [
            r.query.id for r in records[:finished]
        ]
        assert (tmp_path / "spec.config.json").exists()
        summary = json.loads((tmp_path / "spec.summary.json").read_text(encoding="utf-8"))
        assert summary["interrupted"] is True
        assert [row["query_id"] for row in summary["per_record"]] == [
            r.query.id for r in records[:finished]
        ]

    def test_a_failed_endpoint_serves_a_later_record_after_the_cooldown(
        self, rigged, monkeypatch
    ):
        cooldown_s = 0.3
        timeouts = cooldown_s * 1000 / rigged.config.request_timeout_ms
        monkeypatch.setattr(backend, "UNHEALTHY_COOLDOWN_TIMEOUTS", timeouts)
        server = MockLMServer(script=rigged.script)
        cfg = replace(
            rigged.config,
            drafter_endpoints=(server.generate_url,),
            verifier_endpoint=server.generate_url,
            embedding_endpoint=server.embed_url,
        )
        port = server.port
        server.stop()  # nothing listens on the port until the fifth record
        run = harness._RUNNERS["speculative"]
        calls, restarted = [], []

        def restarted_before_the_fifth(*args):
            calls.append(1)
            if len(calls) == 5:
                restarted.append(MockLMServer(script=rigged.script, port=port).start())
                time.sleep(cooldown_s)
            return run(*args)

        monkeypatch.setitem(harness._RUNNERS, "speculative", restarted_before_the_fifth)
        records = [*rigged.records, *rigged.records[:2]]
        try:
            summary = run_experiment(records, cfg)
        finally:
            for restarted_server in restarted:
                restarted_server.stop()
        errors = [row.get("error", "") for row in summary.per_record]
        assert ["connection failed" in e for e in errors] == [True] * 3 + [False] * 2
        assert "endpoint marked unhealthy" in errors[3]
        assert (summary.evaluated, summary.correct) == (1, 1)
        assert restarted[0].request_counts()["embed"] == 1

    def test_interrupt_inside_a_stage_reaches_the_caller(self, rigged, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "embed_documents", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(rigged.records, rigged.config)

    def test_ablation_grid_runs_every_variant(self, rigged_env):
        records, cfg, _ = rigged_env
        summaries = run_grid(records[:1], ablation_grid(cfg, None))
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
            ablation_grid(cfg, ["nope"])

    @pytest.mark.parametrize(
        "cfg",
        [
            PipelineConfig(),
            PipelineConfig.musique_profile(),
            PipelineConfig(
                sampling_mode=SamplingMode.SAME_CLUSTER,
                score_terms=frozenset({ScoreTerm.DRAFT}),
                selection_mode=SelectionMode.RANDOM,
            ),
        ],
        ids=["default", "musique", "non-default"],
    )
    def test_ablation_grid_changes_one_field_per_variant(self, cfg):
        prefixes = {
            "sampling": "sampling_mode",
            "score_wo": "score_terms",
            "selection": "selection_mode",
            "context": "verification_context_mode",
        }
        grid = ablation_grid(cfg, None)
        assert grid[0] == ("baseline", cfg)
        names = [name for name, _ in grid]
        assert len(set(names)) == len(names)
        for name, variant in grid[1:]:
            [prefix] = [p for p in prefixes if name.startswith(f"{p}_")]
            changed = prefixes[prefix]
            value = name[len(prefix) + 1 :]
            for f in fields(PipelineConfig):
                if f.name != changed:
                    assert getattr(variant, f.name) == getattr(cfg, f.name), name
            if prefix == "score_wo":
                assert variant.score_terms == cfg.score_terms - {ScoreTerm(value)}
            else:
                assert getattr(variant, changed).value == value
        # A variant for each non-default member, and for no default one.
        default = PipelineConfig()
        expected = {"baseline"}
        for prefix, changed in prefixes.items():
            if prefix == "score_wo":
                members = list(ScoreTerm)
            else:
                members = [
                    m for m in type(getattr(default, changed))
                    if m is not getattr(default, changed)
                ]
            expected.update(f"{prefix}_{member.value}" for member in members)
        assert set(names) == expected

    def test_sweep_counts_match_grids(self, rigged_env):
        records, cfg, _ = rigged_env
        m_sweep = run_grid(records[:1], sweep_grid(cfg, [5, 10, 15, 20], []))
        assert [s.name for s in m_sweep] == ["m_5", "m_10", "m_15", "m_20"]
        size_sweep = run_grid(
            records[:1], sweep_grid(replace(cfg, num_drafts=10), [], [1, 2, 4, 6])
        )
        assert [s.name for s in size_sweep] == [
            "subset_1",
            "subset_2",
            "subset_4",
            "subset_6",
        ]
        both = sweep_grid(cfg, [5], [2])
        assert [name for name, _ in both] == ["m_5", "subset_2"]
        assert (both[0][1].num_drafts, both[1][1].num_clusters) == (5, 2)

    def test_sweep_grid_keeps_each_repeated_value_once_at_its_first_place(self):
        grid = sweep_grid(PipelineConfig(), [3, 2, 3, 2], [3, 3, 1])
        assert [name for name, _ in grid] == ["m_3", "m_2", "subset_3", "subset_1"]
        assert [c.num_drafts for _, c in grid[:2]] == [3, 2]
        assert [c.num_clusters for _, c in grid[2:]] == [3, 1]

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
        [summary] = run_grid(fixture.records, sweep_grid(cfg, [m], []))
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
