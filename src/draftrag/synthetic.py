"""Rigged synthetic fixtures: datasets paired with mock scripts.

The generator takes each record's embeddings from the mock script and plans
its subsets through the pipeline's own ``prepare_record`` and
``plan_subsets``, so it knows exactly which draft prompts the pipeline will
send for a given config. It scripts those prompts so that every subset
containing the record's gold document yields a gold-bearing draft with
strictly higher logprobs on all three score terms, while the remaining
subsets yield wrong answers with much lower ones. Argmax selection must then
recover the gold answer on every record; random selection must not. The
standard call over the record's top-n documents is scripted too, with the
gold draft's reply, so the single-call baseline answers every record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import SubsetPlan, embedding_input, unit_rows
from .core import Document, PipelineConfig, Query, StageTimings
from .drafting import build_draft_prompt, draft_candidate
from .harness import DatasetRecord, build_standard_prompt, plan_subsets, prepare_record
from .mock_server import MockScript, uniform_tokens
from .verification import build_verify_prompt

GOLD_TOKEN_LOGPROB = -0.05
WRONG_TOKEN_LOGPROB = -2.5
GOLD_ECHO_LOGPROB = -0.02
WRONG_ECHO_LOGPROB = -1.0

_MAX_SALT_TRIES = 500


@dataclass
class RiggedFixture:
    records: list[DatasetRecord]
    script: MockScript
    config: PipelineConfig


def _gold_answer(i: int) -> str:
    return f"Zephyrine-{i}"


def _wrong_answer(i: int) -> str:
    return f"Morvale-{i}"


def _completion(i: int, has_gold: bool) -> str:
    """A draft's reply: the gold answer read from the register, or the
    wrong one read from an atlas."""
    answer_name = _gold_answer(i) if has_gold else _wrong_answer(i)
    source = "register" if has_gold else "atlas"
    return (
        f"## Rationale: The {source} states that the charted location is "
        f"{answer_name}.\n## Response: The charted location is {answer_name}."
    )


def _build_record(i: int, salt: int, distractors: int) -> DatasetRecord:
    gold, wrong = _gold_answer(i), _wrong_answer(i)
    docs = [
        Document(
            id=f"q{i}-d0",
            title=f"Charting Register {i}",
            text=(
                f"The register of expedition {i} confirms the charted "
                f"location is {gold}. Entry {salt}."
            ),
        )
    ]
    for j in range(1, distractors + 1):
        docs.append(
            Document(
                id=f"q{i}-d{j}",
                title=f"Disputed Atlas {i}-{j}",
                text=(
                    f"A disputed atlas claims the charted location is {wrong}. "
                    f"Annotation {i}-{j} revision {salt}."
                ),
            )
        )
    query = Query(
        id=f"rigged-{i:03d}",
        text=f"What is the charted location recorded by expedition {i}?",
        gold_answers=(gold,),
    )
    return DatasetRecord(query=query, documents=tuple(docs))


def _script_record(
    script: MockScript,
    query: Query,
    docs: list[Document],
    plan: SubsetPlan,
    cfg: PipelineConfig,
) -> None:
    docs_by_id = {d.id: d for d in docs}
    gold_id = docs[0].id
    i = int(query.id.rsplit("-", 1)[1])

    for subset in plan.subsets:
        has_gold = gold_id in subset.member_doc_ids
        completion = _completion(i, has_gold)
        token_lp = GOLD_TOKEN_LOGPROB if has_gold else WRONG_TOKEN_LOGPROB

        prompt = build_draft_prompt(query, subset, docs_by_id)
        script.script_completion(prompt, completion, uniform_tokens(completion, token_lp))

        # The verifier prompt reads only the parsed answer and rationale.
        candidate = draft_candidate(subset, completion, ())
        verify_prompt = build_verify_prompt(
            query, candidate, docs_by_id, cfg.verification_context_mode
        )
        echo_lp = GOLD_ECHO_LOGPROB if has_gold else WRONG_ECHO_LOGPROB
        script.script_echo(
            verify_prompt.text, uniform_tokens(verify_prompt.text, echo_lp)
        )

    gold = _completion(i, True)
    script.script_completion(
        build_standard_prompt(query, docs), gold, uniform_tokens(gold, GOLD_TOKEN_LOGPROB)
    )


def make_rigged_fixture(
    cfg: PipelineConfig,
    num_records: int = 20,
    distractors: int = 3,
    require_contrast: bool = True,
) -> RiggedFixture:
    """Build a dataset plus mock script rigged for the given config.

    With ``require_contrast`` each record is salted until the sampled
    subsets include at least one subset with the gold document and one
    without, so argmax and random selection can disagree; without it a
    record only needs at least one gold-bearing subset.
    """
    script = MockScript()
    records: list[DatasetRecord] = []
    for i in range(num_records):
        for salt in range(_MAX_SALT_TRIES):
            record = _build_record(i, salt, distractors)
            query, docs, _ = prepare_record(record, cfg)
            rows = script.embed(query.text, [embedding_input(d) for d in docs])
            vectors = unit_rows(rows["embeddings"])
            plan = plan_subsets(query, docs, vectors, cfg, StageTimings())
            gold_id = docs[0].id
            with_gold = [s for s in plan.subsets if gold_id in s.member_doc_ids]
            without_gold = [s for s in plan.subsets if gold_id not in s.member_doc_ids]
            if with_gold and (without_gold or not require_contrast):
                _script_record(script, query, docs, plan, cfg)
                records.append(record)
                break
        else:
            raise RuntimeError(
                f"could not rig record {i} within {_MAX_SALT_TRIES} salts"
            )
    return RiggedFixture(records=records, script=script, config=cfg)
