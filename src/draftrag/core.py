"""Shared domain types, pipeline configuration, seeded randomness, the one
reader of JSON and JSON Lines from outside the program, the one reader of
an HTTP/1.1 header block and the body length it declares, with one cap on
that length, and the reply contract: the draft markers and token columns
of a ``/generate`` reply. The client and the mock server share all of
these; the mock loads no other module of the package."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple
from urllib.parse import urlsplit

if TYPE_CHECKING:
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
# What an endpoint URL must not carry into a request line or Host header.
_NOT_IN_REQUEST_HEAD = re.compile(r"[^\x21-\x7e]")
# A decoded string holds a surrogate code point only where a JSON escape
# left one unpaired: the decoder joins each escaped pair into one character.
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD]")
# HTTP/1.1 head limits, the same as http.client's: the client applies them
# to replies and the mock server to requests.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
# The largest body either end reads, request or reply; a longer one is
# refused as soon as its length is known, before the reader holds it.
MAX_BODY_BYTES = 16 * 2**20
RECV_BYTES = 1 << 16  # the most one read takes from a socket at once
_BLANK_LINES = (b"\r\n", b"\n")
# The reply contract. A draft's completion reads "## Rationale: ...
# ## Response: ...", and a /generate reply sends its tokens as the parallel
# arrays TOKEN_COLUMNS: each token's logprob, start byte and end byte.
RATIONALE_MARKER = "## Rationale:"
RESPONSE_MARKER = "## Response:"
TOKEN_COLUMNS = ("token_logprobs", "token_starts", "token_ends")
# The exact types JSON decodes a number to; type(True) is bool, in neither.
NUMBER_TYPES = frozenset({int, float})


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
                key: field_value(key, value, getattr(defaults, key))
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


def field_value(key: str, value: object, default: object) -> object:
    """A config or mock script file's ``value`` for field ``key``, as the
    type of the field's ``default``; any other type raises ``ConfigError``."""

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


class DatasetError(Exception):
    """A dataset file that cannot be read, or a record in it that is malformed."""


class PipelineError(Exception):
    """A pipeline stage failed in a way that invalidates the whole run."""


class EndpointURL(NamedTuple):
    """Where ``parse_endpoint_url`` says a request to an endpoint goes."""

    host: str  # the name or address to connect to
    port: int
    tls: bool  # an https URL
    host_header: str  # the URL's netloc, sent as the Host header
    target: str  # the path ("/" if empty) and query of the request line


def parse_endpoint_url(url: str) -> EndpointURL:
    """The one reading of an endpoint URL, for ``validate_config`` and
    ``backend.EndpointDescriptor`` alike. A ``ValueError`` says the URL
    ``must be an http(s) URL with a host`` (and a port in 1..65535, and a
    host the socket layer can encode), or ``has a space or non-ASCII
    character`` (or a control one) where the request line or Host header
    would carry it."""
    try:
        parts = urlsplit(url if isinstance(url, str) else "")
        valid = (
            parts.scheme in ("http", "https")
            and bool(parts.hostname)
            and parts.port != 0  # .port raises on one that is not a number in range
            and bool(parts.hostname.encode("idna"))  # as the socket layer encodes it
        )
    except ValueError:  # UnicodeError too
        valid = False
    if not valid:
        raise ValueError(f"endpoint {url!r} must be an http(s) URL with a host")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _NOT_IN_REQUEST_HEAD.search(parts.netloc + target):
        raise ValueError(f"endpoint {url!r} has a space or non-ASCII character")
    tls = parts.scheme == "https"
    port = parts.port or (443 if tls else 80)
    return EndpointURL(parts.hostname, port, tls, parts.netloc, target)


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
    # Each distinct URL once, in first-seen order: roles may share a URL.
    urls = (*cfg.drafter_endpoints, cfg.verifier_endpoint, cfg.embedding_endpoint)
    for i, url in enumerate(urls):
        if url not in urls[:i]:
            try:
                parse_endpoint_url(url)
            except ValueError as exc:
                violations.append(str(exc))
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


STAGES = tuple(f.name for f in fields(StageTimings))


class LoneSurrogateError(ValueError):
    """``read_json_object`` found a key or string UTF-8 cannot encode."""


def read_json_object(data: bytes) -> dict:
    """The JSON object in ``data``: a dataset or results line, a config or
    mock script file, a request body or an endpoint reply. It must be UTF-8
    (RFC 8259 section 8.1, which lets a reader skip a leading byte order
    mark). Bytes that are not UTF-8, text that is not JSON or nests deeper
    than the parser can recurse, and a value other than an object each
    raise a ``ValueError`` that says which. So does a key or string holding
    a lone surrogate, which UTF-8 cannot encode: a ``LoneSurrogateError``
    naming where, such as ``.documents[0].title``."""
    try:
        value = json.loads(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg} at character {exc.pos})") from None
    except RecursionError:
        raise ValueError("JSON nested deeper than the parser can recurse") from None
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    # UTF-8 carries a surrogate only as an escape: text with none needs no walk.
    if _SURROGATE_ESCAPE.search(data):
        if where := _lone_surrogate_at(value):
            raise LoneSurrogateError(f"{where} holds a lone surrogate, not encodable as UTF-8")
    return value


def json_lines(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Each non-blank line of a dataset or results file, numbered from 1.
    Only LF ends a line, so a CR left in one is JSON whitespace. A line is
    blank as ``str.strip`` sees it."""
    for number, line in enumerate(data.split(b"\n"), start=1):
        if line.decode("utf-8", "replace").strip():
            yield number, line


def _lone_surrogate_at(value: object) -> str | None:
    """Where in a decoded JSON ``value`` the first key or string holding a
    lone surrogate is, as ``.documents[0].title``, or None. An object's
    keys are looked at before its members."""
    # A path is a (parent path, key or index) pair, None at the top; it
    # becomes text only once it is reported.
    stack: list[tuple[object, tuple | None]] = [(value, None)]
    while stack:
        item, path = stack.pop()
        if isinstance(item, str) and _SURROGATE.search(item):
            return _location(path)
        if isinstance(item, dict):
            for key in item:
                if _SURROGATE.search(key):
                    return _location((path, key))
            stack.extend((v, (path, k)) for k, v in reversed(item.items()))
        elif isinstance(item, list):
            stack.extend((item[i], (path, i)) for i in reversed(range(len(item))))
    return None


def _location(path: tuple | None) -> str:
    steps = []
    while path is not None:
        path, step = path
        plain = isinstance(step, str) and step.isidentifier()
        steps.append(f".{step}" if plain else f"[{json.dumps(step)}]")
    return "".join(reversed(steps))


class FramingError(ValueError):
    """Bytes that break HTTP/1.1 framing, so no more of them can be read."""


class Incomplete(Exception):
    """The bytes so far start an HTTP message but do not finish it; parsing
    can go further once ``need`` bytes have arrived."""

    def __init__(self, need: int):
        super().__init__(need)
        self.need = need


def read_http_line(buf: bytes, pos: int) -> tuple[bytes, int]:
    """The line of ``buf`` at ``pos``, its LF included, and where the next
    line starts. Raises ``Incomplete`` while the LF may still come, and
    ``FramingError`` once the line is over ``MAX_LINE_BYTES``."""
    end = buf.find(b"\n", pos, pos + MAX_LINE_BYTES)
    if end < 0:
        if len(buf) - pos >= MAX_LINE_BYTES:
            raise FramingError(f"line over {MAX_LINE_BYTES} bytes")
        raise Incomplete(len(buf) + 1)
    return buf[pos : end + 1], end + 1


def read_http_headers(buf: bytes, pos: int) -> tuple[dict[bytes, bytes], int]:
    """The header block of ``buf`` from ``pos`` through the blank line that
    ends it, and where the bytes after that line start. Names are lowercased
    and values stripped; the values of a repeated name are joined by ", ".
    Raises ``Incomplete`` while the block may still be completed, and
    ``FramingError`` for a line over the limit, a line without a colon or
    more than ``MAX_HEADERS`` header lines."""
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        header, pos = read_http_line(buf, pos)
        if header in _BLANK_LINES:
            return headers, pos
        name, colon, value = header.partition(b":")
        if not colon:
            raise FramingError(f"bad header line {header[:80]!r}")
        name, value = name.lower(), value.strip()
        headers[name] = headers[name] + b", " + value if name in headers else value
    raise FramingError(f"more than {MAX_HEADERS} headers")


def content_length(headers: dict[bytes, bytes]) -> int | None:
    """The body length a header block declares, or None if it declares
    none. Raises ``FramingError`` for a value that is not ASCII digits or
    is above ``MAX_BODY_BYTES``."""
    raw = headers.get(b"content-length")
    if raw is None:
        return None
    shown = raw[:80].decode("latin-1")
    if not raw.isdigit():  # ASCII digits only, for bytes
        raise FramingError(f"Content-Length {shown!r} is not a non-negative integer")
    digits = raw.lstrip(b"0") or b"0"
    # Counted first: int() refuses more than 4,300 digits.
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise FramingError(f"Content-Length {shown} is above {MAX_BODY_BYTES} bytes")
    return int(digits)


# All randomness flows through PCG64 streams built here. PCG64 streams are
# frozen by numpy's reproducibility policy, so identical seeds give identical
# draws across platforms and runs.


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Deterministic stream keyed by an unsigned 64-bit seed and ``labels``.

    Substreams let stages (clustering, sampling, selection) draw independently
    so adding draws to one stage never perturbs another. With no labels this
    is the seed's own stream.
    """
    # Imported here, not at the top, so the mock server can import core without numpy.
    import numpy as np

    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    entropy = [seed]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:8], "big"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
