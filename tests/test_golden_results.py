"""Pinned bytes of results files and mock scripts for fixed fixtures and seeds.

Each case builds a rigged fixture, serves its mock script, runs the listed
modes and ablation variants through ``run_experiment``, and compares the
sha256 of every results file (timings removed, since they are the only
nondeterministic output) and of the mock script against ``GOLDEN``. A
refactor must leave every digest unchanged.

When a change to the results is intended, run
``pytest tests/test_golden_results.py``; the failing assertion shows the
digests the new code produces. Check that the difference is the intended
one, paste the new values into ``GOLDEN`` and say why in the commit message.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from draftrag import synthetic
from draftrag.core import PipelineConfig
from draftrag.harness import ablation_grid, run_experiment
from draftrag.mock_server import MockScript, uniform_tokens
from draftrag.synthetic import make_rigged_fixture

# (fixture config, make_rigged_fixture keywords, ablation variants run)
CASES = {
    "default": (
        PipelineConfig(top_n=4, rng_seed=42),
        dict(num_records=3),
        (
            "baseline",
            "sampling_random_no_cluster",
            "sampling_same_cluster",
            "score_wo_draft",
            "score_wo_self_consistency",
            "score_wo_self_reflection",
            "selection_random",
            "context_documents_only",
            "context_rationale_and_documents",
        ),
    ),
    "musique": (
        PipelineConfig.musique_profile(rng_seed=7),
        dict(num_records=2, distractors=14),
        ("baseline", "sampling_random_no_cluster", "sampling_same_cluster"),
    ),
    # 4 documents against top_n 6 and k 5: the short-retrieval, k-clamp and
    # sampling-truncation notices all fire.
    "short_retrieval": (
        PipelineConfig(top_n=6, num_clusters=5, rng_seed=3),
        dict(num_records=2, distractors=3, require_contrast=False),
        ("baseline", "sampling_random_no_cluster", "sampling_same_cluster"),
    ),
}

GOLDEN = {
    "default/baseline": "3407dce4d1f1989d6ca98e5bbf569feb744a2bf4e0c77cad7209e301f4edc241",
    "default/context_documents_only": "3052de61c85e811868c0b603636d0dc46c066df2f820caa3335ce4cc9def9bcc",
    "default/context_rationale_and_documents": "74a7926439ef0e3d045a2cb9da535cfa3045d46e3ccaa174f41ed98eb7f0b25c",
    "default/sampling_random_no_cluster": "23cbce0432f4273b2c019128a9d73cbd91bc3999835f28fa23bd7c56150fd2f5",
    "default/sampling_same_cluster": "714605198a5062c27853ce0335b122c2c1c8706be6e88d3ecfa67db36c3a7f42",
    "default/score_wo_draft": "d3228c05261ae446dbe02d5a417534962c1a1f31dafdd0853f8376ca786ed5be",
    "default/score_wo_self_consistency": "59a08d6e2cb31c57415faed1dd5abad9a12bfaef6932a45622f4ff855b418ad9",
    "default/score_wo_self_reflection": "45f1011ffc5925f6c734611a3513df1c1e6e96f1123f5c0db784950d22555dab",
    "default/script": "eabca252c7e14c1f059c9b681aba51e9c217607cdc7e7c3cf5c907f3c6d64ade",
    "default/selection_random": "0683e0ba9b8f34295bb0f4f17657f404d53112048befaae1452450b2645317fd",
    "default/standard": "705016475af46ef7f6eac5e529c066fbb8a55da0d80d8f0bf522836ea7a34713",
    "musique/baseline": "5be251dab6beef835d96c83b6b00847417ee3f469a4659323a877ce56de33b98",
    "musique/sampling_random_no_cluster": "05427b729f55ef42a33c4e81cda0f7938b18a8963d4836e546ddc3b6fc329c02",
    "musique/sampling_same_cluster": "a82a0545c250548e80fc55e88a99a3cf78230e154e81a194aa9e77215d74967b",
    "musique/script": "8ee8ee194e8de6d6888b66fba61dd52791b0ffe9469806282a2e83db34466171",
    "musique/standard": "0d4b370893aa8163adbb61bcf3d95f4f7963772575396ba9986b737c7b5d8e7c",
    "short_retrieval/baseline": "645d6152353d38fa4a7f044a57611bedfa10600dfb73074e2631c128818bfbd0",
    "short_retrieval/sampling_random_no_cluster": "b87af2c7aee7444a7f762f69f48a10b3bf52d9e214797a3dfe082ccee4b7dea4",
    "short_retrieval/sampling_same_cluster": "cd91da0ec6f8000e3acb1c2640252b23345a06469a3b3b8f4485f1cfa6c5beda",
    "short_retrieval/script": "89780e0838d5ec4ecf8f4b69459b6de62312706a6b1b0c92aed6fc2cd16d9404",
    "short_retrieval/standard": "2463889da072a5149d0ed3e6a2636a660f0e72489b4e28749089be4afad8c948",
}

# The ``default`` script's digest when every token row carried its text.
DEFAULT_SCRIPT_WITH_TOKEN_TEXT = (
    "5f252f986192c99412b28f6d76ab2efce6aff493b51da85c1ef3ffa92b753017"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stripped_results(path) -> str:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj.pop("timings")
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


def case_digests(name, server_factory, out_dir) -> dict[str, str]:
    cfg, fixture_kwargs, variants = CASES[name]
    fixture = make_rigged_fixture(cfg, **fixture_kwargs)
    server = server_factory(script=fixture.script)
    cfg = replace(
        fixture.config,
        drafter_endpoints=(server.generate_url,),
        verifier_endpoint=server.generate_url,
        embedding_endpoint=server.embed_url,
    )
    run_experiment(fixture.records, cfg, mode="standard", name="standard", out_dir=out_dir)
    for variant, variant_cfg in ablation_grid(cfg, variants):
        run_experiment(fixture.records, variant_cfg, name=variant, out_dir=out_dir)
    digests = {
        f"{name}/script": _sha256(json.dumps(fixture.script.to_dict(), sort_keys=True))
    }
    for run in ("standard", *variants):
        digests[f"{name}/{run}"] = _sha256(
            _stripped_results(out_dir / f"{run}.results.jsonl")
        )
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_and_script_bytes_are_pinned(name, server_factory, tmp_path):
    expected = {k: v for k, v in GOLDEN.items() if k.split("/")[0] == name}
    assert case_digests(name, server_factory, tmp_path) == expected


def test_a_script_whose_token_rows_carry_text_serves_the_same_results(
    server_factory, tmp_path, monkeypatch
):
    """A script file written when token rows carried their text still
    serves, read back from its JSON, and gives the same results."""

    def rows_with_text(text, logprob):
        data = text.encode("utf-8")
        return [
            {"text": data[t["start"] : t["end"]].decode("utf-8"), **t}
            for t in uniform_tokens(text, logprob)
        ]

    def serve_from_file(script):
        written = json.dumps(script.to_dict())
        return server_factory(script=MockScript.from_dict(json.loads(written)))

    monkeypatch.setattr(synthetic, "uniform_tokens", rows_with_text)
    digests = case_digests("default", serve_from_file, tmp_path)
    assert digests.pop("default/script") == DEFAULT_SCRIPT_WITH_TOKEN_TEXT
    expected = {k: v for k, v in GOLDEN.items() if k.startswith("default/")}
    del expected["default/script"]
    assert digests == expected
