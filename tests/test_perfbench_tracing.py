"""The benchmark's tracer (``perfbench/tracing.py``) records spans by rebinding
pipeline functions by name, so a change to ``src/`` that renames one, or stops
importing it where the tracer looks for it, would break ``--trace 1``."""

import importlib.util
from pathlib import Path

import pytest

from draftrag import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracing):
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_install_then_uninstall_restores_every_original(tracing):
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in tracing.TARGETS]
    runners = dict(harness._RUNNERS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, attr) is not fn for m, attr, fn in originals)
        assert all(harness._RUNNERS[mode] is not fn for mode, fn in runners.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, attr) is fn for m, attr, fn in originals)
    assert harness._RUNNERS == runners


def _drafts_and_verifications(server):
    """Three subsets drafted and verified through the mock: subset 1's draft
    has no markers and subset 2's echo has a positive logprob, so each
    stage drops one."""
    from draftrag.backend import EndpointDescriptor
    from draftrag.clustering import DocumentSubset
    from draftrag.core import (
        ALL_SCORE_TERMS,
        Document,
        Query,
        VerificationContextMode,
    )
    from draftrag.drafting import build_draft_prompt, generate_drafts
    from draftrag.mock_server import tokens_from_rule
    from draftrag.verification import build_verify_prompt, verify_candidates

    query = Query(id="q", text="where is it?")
    docs = {f"d{i}": Document(f"d{i}", f"T{i}", f"text {i}") for i in range(3)}
    subsets = [DocumentSubset(i, (f"d{i}",), (i,)) for i in range(3)]
    server.script.script_completion(
        build_draft_prompt(query, subsets[1], docs), "no markers here"
    )
    endpoint = EndpointDescriptor(server.generate_url)
    draft_args = (query, subsets, docs, [endpoint], 5000)
    batch = generate_drafts(*draft_args)
    mode = VerificationContextMode.RATIONALE_ONLY
    echo = build_verify_prompt(query, batch.candidates[1], docs, mode).text
    tokens = tokens_from_rule(echo)
    tokens[-1]["logprob"] = 0.5
    server.script.script_echo(echo, tokens)
    verify_args = (query, batch.candidates, docs, mode, endpoint, 5000, ALL_SCORE_TERMS)
    return draft_args, batch, verify_args, verify_candidates(*verify_args)


def test_count_keepers_read_real_draft_and_verify_returns(tracing, mock_server):
    draft_args, batch, verify_args, verified = _drafts_and_verifications(mock_server)
    assert tracing._keep_draft_counts(draft_args, batch) == (3, 2)
    assert tracing._keep_verify_counts(verify_args, verified) == (2, 1)


def test_count_keepers_when_the_call_raised(tracing, mock_server):
    draft_args, _, verify_args, _ = _drafts_and_verifications(mock_server)
    assert tracing._keep_draft_counts(draft_args, None) == (3, 0)
    assert tracing._keep_verify_counts(verify_args, None) == (2, 2)
