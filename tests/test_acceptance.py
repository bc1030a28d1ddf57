"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every check runs against the deterministic mock backend; no model
weights or network access are involved.
"""

import itertools
import json
import math
import time
from dataclasses import replace
from decimal import Decimal

import numpy as np

from draftrag.backend import EndpointDescriptor
from draftrag.clustering import (
    DocumentSubset,
    kmeans_cluster,
    sample_subsets,
)
from draftrag.core import (
    Document,
    PipelineConfig,
    Query,
    SamplingMode,
    ScoreTerm,
    SelectionMode,
    VerificationContextMode,
    derive_rng,
)
from draftrag.drafting import (
    Candidate,
    compute_rho_draft,
    generate_drafts,
    parse_draft,
    sequence_logprob,
)
from draftrag.harness import ablation_grid, run_experiment
from draftrag.mock_server import MockLMServer, MockScript, whitespace_token_spans
from draftrag.synthetic import make_rigged_fixture
from draftrag.verification import (
    build_verify_prompt,
    combine_scores,
    select_best,
)

ALL_TERMS = frozenset(
    {ScoreTerm.DRAFT, ScoreTerm.SELF_CONSISTENCY, ScoreTerm.SELF_REFLECTION}
)

RIGGED_SEEDS = (101, 102, 103)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _endpoints_for(server: MockLMServer, cfg: PipelineConfig) -> PipelineConfig:
    return replace(
        cfg,
        drafter_endpoints=(server.generate_url,),
        verifier_endpoint=server.generate_url,
        embedding_endpoint=server.embed_url,
    )


def test_criterion_1_worked_example_score_reproduction():
    started = time.perf_counter()
    triples = {
        "Diana DeGarmo": (Decimal("0.6594"), Decimal("0.3417"), Decimal("0.5238")),
        "Dolly Parton": (Decimal("0.71"), Decimal("0.4346"), Decimal("0.7449")),
    }
    scored = []
    ok = True
    for index, (answer, triple) in enumerate(triples.items()):
        logs = [math.log(float(v)) for v in triple]
        combined = combine_scores(*logs, ALL_TERMS)
        exact = triple[0] * triple[1] * triple[2]
        rel_err = abs(math.exp(combined) - float(exact)) / float(exact)
        ok = ok and rel_err <= 1e-9
        scored.append(Candidate(index, answer=answer, rho_final_log=combined))
    winner = select_best(scored, SelectionMode.ARGMAX, derive_rng(0)).answer
    ok = ok and winner == "Dolly Parton"
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _verdict(
        "criterion 1: worked-example scores and selection",
        ok,
        f"winner={winner}, {elapsed:.3f}s",
    )


def test_criterion_2_scoring_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    words = ["alpha", "beta", "gamma", "delta", "nu", "sigma", "tau", "omega"]
    worst = 0.0

    def brute_product(tokens, span):
        total = Decimal(1)
        for logprob, start, end in tokens:
            if start < span.end and end > span.start:
                total *= Decimal(math.exp(logprob))
        return float(total)

    for _ in range(200):
        rationale = " ".join(rng.choice(words, size=rng.integers(1, 12)))
        answer = " ".join(rng.choice(words, size=rng.integers(1, 12)))
        completion = f"## Rationale: {rationale}\n## Response: {answer}"
        parsed = parse_draft(completion)
        tokens = tuple(
            (float(-rng.random() * 3), start, end)
            for start, end in whitespace_token_spans(completion)
        )
        candidate = Candidate(
            subset_index=0,
            member_doc_ids=("d1",),
            rationale=parsed.rationale,
            answer=parsed.answer,
            rho_draft_log=0.0,
        )

        prod_rationale = brute_product(tokens, parsed.rationale_span)
        prod_answer = brute_product(tokens, parsed.answer_span)
        for span, brute in [
            (parsed.rationale_span, prod_rationale),
            (parsed.answer_span, prod_answer),
        ]:
            got = math.exp(sequence_logprob(tokens, span))
            worst = max(worst, abs(got - brute) / brute)

        rho = math.exp(compute_rho_draft(tokens, parsed))
        worst = max(
            worst, abs(rho - (prod_rationale + prod_answer)) / (prod_rationale + prod_answer)
        )

        # Echo side: verifier prompt with scripted random logprobs.
        vp = build_verify_prompt(
            Query(id="q", text="which?"),
            candidate,
            {"d1": Document("d1", "T", "body")},
            VerificationContextMode.RATIONALE_ONLY,
        )
        echo_tokens = tuple(
            (float(-rng.random() * 2), start, end)
            for start, end in whitespace_token_spans(vp.text)
        )
        for span in [*vp.consistency_spans, vp.affirmation_span]:
            brute = brute_product(echo_tokens, span)
            got = math.exp(sequence_logprob(echo_tokens, span))
            worst = max(worst, abs(got - brute) / brute)

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        "criterion 2: scoring oracle equivalence over 200 scripts",
        ok,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def _partition_sse(points, assignment):
    total = 0.0
    for label in set(assignment):
        members = points[[i for i, a in enumerate(assignment) if a == label]]
        centroid = members.mean(axis=0)
        total += float(((members - centroid) ** 2).sum())
    return total


def _best_sse(points, k):
    """Optimal SSE by exhaustive enumeration of partitions into ≤ k groups.

    k=1 has a single partition and k=n only the all-singleton one (SSE 0);
    in between, every labeled assignment is enumerated.
    """
    n = len(points)
    if k == 1:
        return _partition_sse(points, [0] * n)
    if k >= n:
        return 0.0
    best = float("inf")
    for assignment in itertools.product(range(k), repeat=n):
        best = min(best, _partition_sse(points, assignment))
    return best


def test_criterion_3_clustering_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    worst_ratio_k2 = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        points = rng.uniform(0, 1, size=(n, 2))
        ids = [f"d{i}" for i in range(n)]
        for k, factor in [(1, 1.0), (n, 1.0), (2, 1.2)]:
            cs = kmeans_cluster(ids, points, k, derive_rng(trial * 7 + k))
            best = _best_sse(points, k)
            limit = best * factor + 1e-9
            ok = ok and cs.sse <= limit
            if k == 2 and best > 0:
                worst_ratio_k2 = max(worst_ratio_k2, cs.sse / best)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(
        "criterion 3: clustering matches exhaustive-enumeration oracle",
        ok,
        f"worst k=2 ratio {worst_ratio_k2:.4f}, {elapsed:.2f}s",
    )


def test_criterion_4_sampling_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    strict_wins = 0
    ok = True
    trials = 100
    for trial in range(trials):
        points = np.concatenate(
            [
                rng.normal((0.0, 0.0), 0.5, size=(5, 2)),
                rng.normal((10.0, 0.0), 0.5, size=(5, 2)),
            ]
        )
        ids = [f"d{i}" for i in range(10)]
        clusters = kmeans_cluster(ids, points, 2, derive_rng(trial))
        multi = sample_subsets(
            clusters, 5, SamplingMode.MULTI_PERSPECTIVE, derive_rng(trial)
        )
        rand = sample_subsets(
            clusters, 5, SamplingMode.RANDOM_NO_CLUSTER, derive_rng(trial)
        )

        seen = set()
        for s in multi.subsets:
            ok = ok and s.as_set() not in seen
            seen.add(s.as_set())
            ok = ok and len(s.member_doc_ids) == clusters.nonempty_count
            ok = ok and sorted(set(s.source_clusters)) == list(s.source_clusters)

        index = {d: i for i, d in enumerate(ids)}

        def mean_dist(plan):
            dists = [
                float(np.linalg.norm(points[index[a]] - points[index[b]]))
                for s in plan.subsets
                for a, b in itertools.combinations(s.member_doc_ids, 2)
            ]
            return float(np.mean(dists)) if dists else 0.0

        strict_wins += mean_dist(multi) > mean_dist(rand)

    elapsed = time.perf_counter() - started
    ok = ok and strict_wins >= 95 and elapsed < 10.0
    _verdict(
        "criterion 4: subset sampling properties and diversity",
        ok,
        f"strict wins {strict_wins}/{trials}, {elapsed:.2f}s",
    )


def test_criterion_5_parallel_drafting_latency(server_factory):
    delay_ms = 100
    servers = [
        server_factory(script=MockScript(delay_ms=delay_ms)) for _ in range(5)
    ]
    endpoints = [EndpointDescriptor(s.generate_url) for s in servers]
    docs = {f"d{i}": Document(f"d{i}", f"T{i}", f"text {i}") for i in range(5)}
    subsets = [DocumentSubset(i, (f"d{i}",), (0,)) for i in range(5)]
    query = Query(id="q", text="which?")

    started = time.perf_counter()
    batch = generate_drafts(query, subsets, docs, endpoints, timeout_ms=5000)
    wall_ms = (time.perf_counter() - started) * 1000

    # Round-robin fairness rides along: request i went to endpoint i mod 5.
    per_server = [s.request_counts().get("generate", 0) for s in servers]
    ok = len(batch.candidates) == 5 and wall_ms < 200.0 and per_server == [1] * 5
    _verdict(
        "criterion 5: five 100 ms drafts complete in parallel",
        ok,
        f"wall {wall_ms:.0f} ms vs serial bound 500 ms, per-endpoint {per_server}",
    )


def _rigged_accuracy(seed: int, selection: SelectionMode) -> float:
    base = PipelineConfig(top_n=4, rng_seed=seed)
    fixture = make_rigged_fixture(base, num_records=20)
    with MockLMServer(script=fixture.script) as server:
        cfg = replace(_endpoints_for(server, base), selection_mode=selection)
        summary = run_experiment(fixture.records, cfg, mode="speculative")
    assert summary.failures == 0
    return summary.accuracy


def test_criterion_6_end_to_end_rigged_accuracy():
    started = time.perf_counter()
    argmax_accs = []
    random_accs = []
    for seed in RIGGED_SEEDS:
        argmax_accs.append(_rigged_accuracy(seed, SelectionMode.ARGMAX))
        random_accs.append(_rigged_accuracy(seed, SelectionMode.RANDOM))
    elapsed = time.perf_counter() - started
    ok = (
        all(acc == 1.0 for acc in argmax_accs)
        and all(acc < 1.0 for acc in random_accs)
        and elapsed < 30.0
    )
    _verdict(
        "criterion 6: rigged dataset, argmax 100% vs random selection drop",
        ok,
        f"argmax {argmax_accs}, random {[f'{a:.2f}' for a in random_accs]}, {elapsed:.1f}s",
    )


def test_criterion_7_ablation_machinery(server_factory):
    started = time.perf_counter()
    base = PipelineConfig(top_n=4, rng_seed=RIGGED_SEEDS[0])
    fixture = make_rigged_fixture(base, num_records=8)
    server = server_factory(script=fixture.script)
    cfg = _endpoints_for(server, base)

    def run_grid():
        summaries = [
            run_experiment(fixture.records, variant_cfg, name=name)
            for name, variant_cfg in ablation_grid(cfg, None)
        ]
        return [
            {
                "name": s.name,
                "accuracy": s.accuracy,
                "per_record": s.per_record,
                "config": s.config,
            }
            for s in summaries
        ]

    first = run_grid()
    second = run_grid()
    names = [s["name"] for s in first]
    expected_names = [
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
    distinct_configs = {json.dumps(s["config"], sort_keys=True) for s in first}
    elapsed = time.perf_counter() - started
    ok = (
        names == expected_names
        and len(distinct_configs) == len(expected_names)
        and first == second
        and elapsed < 60.0
    )
    _verdict(
        "criterion 7: ablation grid summaries, distinct configs, deterministic",
        ok,
        f"{len(names)} variants, {elapsed:.1f}s",
    )


def test_criterion_8_run_determinism(tmp_path):
    started = time.perf_counter()
    base = PipelineConfig(top_n=4, rng_seed=RIGGED_SEEDS[0])
    fixture = make_rigged_fixture(base, num_records=20)

    def one_run(name: str) -> list[str]:
        with MockLMServer(script=fixture.script) as server:
            cfg = _endpoints_for(server, base)
            run_experiment(fixture.records, cfg, out_dir=tmp_path, name=name)
        stripped = []
        for line in (tmp_path / f"{name}.results.jsonl").read_text().splitlines():
            obj = json.loads(line)
            obj.pop("timings")
            stripped.append(json.dumps(obj, sort_keys=True))
        return stripped

    first = one_run("run_a")
    second = one_run("run_b")
    elapsed = time.perf_counter() - started
    ok = first == second and len(first) == 20 and elapsed < 60.0
    _verdict(
        "criterion 8: byte-identical result files modulo timings",
        ok,
        f"{len(first)} records, {elapsed:.1f}s",
    )
