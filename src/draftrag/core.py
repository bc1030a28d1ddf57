"""Shared domain types, pipeline configuration, and seeded randomness."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from enum import Enum
from urllib.parse import urlsplit

import numpy as np

MAX_SEED = 2**64 - 1
# The most milliseconds a C int holds, about 24.8 days. Socket timeouts take
# it on every platform; one near 10**13 ms overflows the time conversion
# inside the socket calls, so every request would fail.
MAX_REQUEST_TIMEOUT_MS = 2**31 - 1
# The most drafts one query may ask for. Each draft is one concurrent task
# of ``backend.fan_out`` with one socket in flight, so this bounds the
# sockets a query holds open at once; the paper's sweeps stop at m = 20.
MAX_NUM_DRAFTS = 128


class TaskKind(str, Enum):
    FREE_FORM = "free_form"
    CLOSED_SET_BOOLEAN = "closed_set_boolean"
    CLOSED_SET_CHOICE = "closed_set_choice"


class ScoreTerm(str, Enum):
    DRAFT = "draft"
    SELF_CONSISTENCY = "self_consistency"
    SELF_REFLECTION = "self_reflection"


class VerificationContextMode(str, Enum):
    RATIONALE_ONLY = "rationale_only"
    DOCUMENTS_ONLY = "documents_only"
    RATIONALE_AND_DOCUMENTS = "rationale_and_documents"


class SamplingMode(str, Enum):
    MULTI_PERSPECTIVE = "multi_perspective"
    RANDOM_NO_CLUSTER = "random_no_cluster"
    SAME_CLUSTER = "same_cluster"


class SelectionMode(str, Enum):
    ARGMAX = "argmax"
    RANDOM = "random"


ALL_SCORE_TERMS = frozenset(ScoreTerm)


@dataclass(frozen=True)
class Query:
    """A posed task: open question, boolean claim, or multiple choice.

    ``gold_answers`` exists for evaluation only; drafting and verification
    never see it (the pipeline scrubs it before building prompts).
    """

    id: str
    text: str
    task_kind: TaskKind = TaskKind.FREE_FORM
    choices: tuple[tuple[str, str], ...] | None = None
    gold_answers: tuple[str, ...] = ()

    def scrubbed(self) -> "Query":
        """Copy with gold answers removed, safe to hand to prompt builders."""
        if not self.gold_answers:
            return self
        return replace(self, gold_answers=())


@dataclass(frozen=True)
class Document:
    """One retrieved evidence document."""

    id: str
    title: str
    text: str


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline hyperparameters.

    Defaults follow the standard profile: 5 drafts, 2 clusters, top 10
    documents. ``musique_profile`` gives the multi-hop profile (10, 6, 15).
    """

    num_drafts: int = 5
    num_clusters: int = 2
    top_n: int = 10
    verification_context_mode: VerificationContextMode = (
        VerificationContextMode.RATIONALE_ONLY
    )
    score_terms: frozenset[ScoreTerm] = ALL_SCORE_TERMS
    sampling_mode: SamplingMode = SamplingMode.MULTI_PERSPECTIVE
    selection_mode: SelectionMode = SelectionMode.ARGMAX
    rng_seed: int = 0
    # Defaults target a local mock server (`draftrag mock-serve --port 8080`).
    drafter_endpoints: tuple[str, ...] = ("http://127.0.0.1:8080/generate",)
    verifier_endpoint: str = "http://127.0.0.1:8080/generate"
    embedding_endpoint: str = "http://127.0.0.1:8080/embed"
    request_timeout_ms: int = 30_000

    @classmethod
    def musique_profile(cls, **overrides) -> "PipelineConfig":
        base = dict(num_drafts=10, num_clusters=6, top_n=15)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_dict(cls, raw: object) -> "PipelineConfig":
        """Inverse of ``to_dict``. A value that is not a JSON object, an
        unknown key, or a field of the wrong type raises ``ConfigError``;
        ranges are left to ``validate_config``."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        defaults = cls()
        return cls(
            **{
                key: _field_value(key, value, getattr(defaults, key))
                for key, value in raw.items()
            }
        )

    def to_dict(self) -> dict:
        """The JSON form: enums as their values, sequences as lists."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


class ConfigError(ValueError):
    """A config, flag value or variant name the pipeline cannot run with."""


def _json_value(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):  # score_terms
        return sorted(t.value for t in value)
    if isinstance(value, tuple):  # drafter_endpoints
        return list(value)
    return value


def _field_value(key: str, value: object, default: object) -> object:
    """A config file's ``value`` for field ``key``, as the type of the
    field's ``default``; any other type raises ``ConfigError``."""

    def fail(expected: str, got: object = value) -> ConfigError:
        return ConfigError(f"{key} must be {expected}, got {got!r}")

    def member(kind: type[Enum], v: object) -> Enum:
        values = [m.value for m in kind]
        if not isinstance(v, str) or v not in values:
            raise fail(f"one of {', '.join(values)}", v)
        return kind(v)

    if isinstance(default, Enum):
        return member(type(default), value)
    if isinstance(default, frozenset):  # score_terms
        if not isinstance(value, list):
            raise fail("a list of score terms")
        return frozenset(member(ScoreTerm, v) for v in value)
    if isinstance(default, tuple):  # drafter_endpoints
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise fail("a list of strings")
        return tuple(value)
    if type(value) is not type(default):  # exact, so a bool is no int
        raise fail(type(default).__name__)
    return value


class DataError(Exception):
    """Malformed or inconsistent data (bad embeddings, unresolvable doc ids)."""


class PipelineError(Exception):
    """A pipeline stage failed in a way that invalidates the whole run."""


def _is_http_url(url: object) -> bool:
    """An http or https URL with a host and, if it names one, a valid port."""
    if not isinstance(url, str):
        return False
    try:
        parts = urlsplit(url)
        return (
            parts.scheme in ("http", "https")
            and bool(parts.hostname)
            and parts.port != 0
        )
    except ValueError:  # reading .port raises on a port that does not parse
        return False


def validate_config(cfg: PipelineConfig) -> list[str]:
    """Return every invariant violation; an empty list means the config is valid.

    Validation reports, it never raises.
    """
    violations: list[str] = []
    if cfg.num_drafts < 1:
        violations.append("num_drafts must be ≥ 1")
    elif cfg.num_drafts > MAX_NUM_DRAFTS:
        violations.append(f"num_drafts must be at most {MAX_NUM_DRAFTS}")
    if cfg.num_clusters < 1:
        violations.append("num_clusters must be ≥ 1")
    if cfg.top_n < 1:
        violations.append("top_n must be ≥ 1")
    if cfg.num_clusters > cfg.top_n:
        violations.append(
            f"num_clusters must satisfy k ≤ n "
            f"(got k={cfg.num_clusters}, n={cfg.top_n})"
        )
    if not cfg.drafter_endpoints:
        violations.append("drafter_endpoints must be non-empty")
    if not cfg.verifier_endpoint:
        violations.append("verifier_endpoint must be set")
    if not cfg.embedding_endpoint:
        violations.append("embedding_endpoint must be set")
    for url in (*cfg.drafter_endpoints, cfg.verifier_endpoint, cfg.embedding_endpoint):
        if url and not _is_http_url(url):
            violations.append(f"endpoint {url!r} must be an http(s) URL with a host")
    if not (1 <= cfg.request_timeout_ms <= MAX_REQUEST_TIMEOUT_MS):
        violations.append(
            f"request_timeout_ms must be between 1 and {MAX_REQUEST_TIMEOUT_MS}"
        )
    if not (0 <= cfg.rng_seed <= MAX_SEED):
        violations.append("rng_seed must be an unsigned 64-bit integer")
    return violations


@dataclass
class StageTimings:
    """Wall-clock milliseconds per pipeline stage. Excluded from determinism.

    The speculative pipeline verifies each draft as soon as it arrives, so
    its two fan-out stages overlap: ``draft_ms`` runs from the start of
    drafting to the return of the last draft, and ``verify_ms`` is the tail
    from there to the return of the last verification. The stages still
    sum to about ``total_ms``.
    """

    embed_ms: float = 0.0
    cluster_ms: float = 0.0
    sample_ms: float = 0.0
    draft_ms: float = 0.0
    verify_ms: float = 0.0
    total_ms: float = 0.0


# All randomness flows through PCG64 streams built here. PCG64 streams are
# frozen by numpy's reproducibility policy, so identical seeds give identical
# draws across platforms and runs.


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Deterministic stream keyed by an unsigned 64-bit seed and ``labels``.

    Substreams let stages (clustering, sampling, selection) draw independently
    so adding draws to one stage never perturbs another. With no labels this
    is the seed's own stream.
    """
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    entropy = [seed]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:8], "big"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
