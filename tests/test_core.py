import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.core import (
    MAX_NUM_DRAFTS,
    STAGES,
    ConfigError,
    EndpointURL,
    LoneSurrogateError,
    PipelineConfig,
    Query,
    StageTimings,
    _lone_surrogate_at,
    derive_rng,
    parse_endpoint_url,
    read_json_object,
    validate_config,
)
from json_strategies import ANY_TEXT, DEEPEST, JSON_VALUES, nested_arrays


class TestSeededRng:
    def test_same_seed_same_first_100_integers(self):
        a = derive_rng(0).integers(0, 2**32, 100)
        b = derive_rng(0).integers(0, 2**32, 100)
        assert np.array_equal(a, b)

    def test_known_stream_values(self):
        # Frozen draws from the documented PCG64 streams; guards against
        # accidental generator or seeding changes.
        assert list(derive_rng(1).integers(0, 1000, 5)) == [473, 511, 755, 950, 34]
        assert list(derive_rng(2).integers(0, 1000, 5)) == [837, 261, 109, 298, 413]

    def test_different_seeds_differ(self):
        a = derive_rng(1).integers(0, 2**32, 100)
        b = derive_rng(2).integers(0, 2**32, 100)
        assert not np.array_equal(a, b)

    def test_single_element_shuffle(self):
        arr = ["a"]
        derive_rng(0).shuffle(arr)
        assert arr == ["a"]

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30)
    def test_shuffle_deterministic(self, seed):
        a = list(range(10))
        b = list(range(10))
        derive_rng(seed).shuffle(a)
        derive_rng(seed).shuffle(b)
        assert a == b

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(-1)
        with pytest.raises(ValueError):
            derive_rng(2**64)

    def test_derived_substreams_are_independent(self):
        a = derive_rng(0, "kmeans", "q1").integers(0, 2**32, 20)
        b = derive_rng(0, "sampling", "q1").integers(0, 2**32, 20)
        c = derive_rng(0, "kmeans", "q2").integers(0, 2**32, 20)
        again = derive_rng(0, "kmeans", "q1").integers(0, 2**32, 20)
        assert np.array_equal(a, again)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestConfig:
    def test_defaults_are_valid(self):
        assert validate_config(PipelineConfig()) == []

    def test_default_profile_values(self):
        cfg = PipelineConfig()
        assert (cfg.num_drafts, cfg.num_clusters, cfg.top_n) == (5, 2, 10)
        assert cfg.verification_context_mode.value == "rationale_only"
        assert sorted(t.value for t in cfg.score_terms) == [
            "draft",
            "self_consistency",
            "self_reflection",
        ]
        assert cfg.sampling_mode.value == "multi_perspective"
        assert cfg.selection_mode.value == "argmax"

    def test_musique_profile_values(self):
        cfg = PipelineConfig.musique_profile()
        assert (cfg.num_drafts, cfg.num_clusters, cfg.top_n) == (10, 6, 15)
        assert validate_config(cfg) == []

    def test_zero_drafts_is_a_violation(self):
        violations = validate_config(PipelineConfig(num_drafts=0))
        assert any("num_drafts must be ≥ 1" in v for v in violations)

    def test_drafts_above_the_bound_are_a_violation(self):
        assert validate_config(PipelineConfig(num_drafts=MAX_NUM_DRAFTS)) == []
        violations = validate_config(PipelineConfig(num_drafts=MAX_NUM_DRAFTS + 1))
        assert violations == [f"num_drafts must be at most {MAX_NUM_DRAFTS}"]

    def test_k_exceeding_n_is_a_violation(self):
        violations = validate_config(PipelineConfig(num_clusters=11, top_n=10))
        assert any("k ≤ n" in v for v in violations)

    @pytest.mark.parametrize(
        "url",
        [
            "127.0.0.1:8080/generate",
            "ftp://127.0.0.1:8080/generate",
            "http:///generate",
            "http://127.0.0.1:notaport/generate",
        ],
    )
    def test_malformed_endpoint_url_is_a_violation(self, url):
        for field, value in [
            ("drafter_endpoints", (url,)),
            ("verifier_endpoint", url),
            ("embedding_endpoint", url),
        ]:
            violations = validate_config(PipelineConfig(**{field: value}))
            assert violations == [
                f"endpoint {url!r} must be an http(s) URL with a host"
            ]

    @pytest.mark.parametrize(
        "url, problem",
        [
            ("http://127.0.0.1:8080/a b", "has a space or non-ASCII character"),
            ("http://hést:80/g", "has a space or non-ASCII character"),
            ("http://127.0.0.1:8080/g?k=\x7f", "has a space or non-ASCII character"),
            ("http://[::1/generate", "must be an http(s) URL with a host"),
            ("http://127.0.0.1:0/generate", "must be an http(s) URL with a host"),
            ("http://127.0.0.1:65536/generate", "must be an http(s) URL with a host"),
            ("http://a..b/generate", "must be an http(s) URL with a host"),
            (5, "must be an http(s) URL with a host"),  # a config made in code
        ],
    )
    def test_endpoint_url_no_request_can_go_to_is_a_violation(self, url, problem):
        violations = validate_config(PipelineConfig(verifier_endpoint=url))
        assert violations == [f"endpoint {url!r} {problem}"]

    def test_url_shared_by_two_roles_is_named_once(self):
        url = "http://127.0.0.1:70000/generate"
        cfg = PipelineConfig(drafter_endpoints=(url, url), verifier_endpoint=url)
        assert validate_config(cfg) == [
            f"endpoint {url!r} must be an http(s) URL with a host"
        ]

    def test_validation_reports_every_violation_without_raising(self):
        cfg = PipelineConfig(
            num_drafts=0,
            num_clusters=0,
            top_n=0,
            drafter_endpoints=(),
            request_timeout_ms=0,
        )
        violations = validate_config(cfg)
        assert len(violations) >= 5

    def test_dict_roundtrip(self):
        cfg = PipelineConfig.musique_profile(rng_seed=99)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"num_draft": 5})

    @pytest.mark.parametrize(
        "raw,match",
        [
            ({"num_drafts": True}, "num_drafts must be int"),
            ({"verifier_endpoint": 3}, "verifier_endpoint must be str"),
            ({"score_terms": ["draft", "bogus"]}, "got 'bogus'"),
            ({"drafter_endpoints": [1]}, "drafter_endpoints must be a list"),
        ],
    )
    def test_field_of_the_wrong_type_rejected(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            PipelineConfig.from_dict(raw)

    def test_score_terms_parsed_from_strings(self):
        cfg = PipelineConfig.from_dict({"score_terms": ["draft"]})
        assert sorted(t.value for t in cfg.score_terms) == ["draft"]

    def test_readme_configuration_table_names_exactly_the_fields(self):
        readme = Path(__file__).parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
        section = section.split("\n## ", 1)[0]
        named = set()
        for line in section.splitlines():
            if line.startswith("| `"):  # a table row; its first cell names fields
                named.update(re.findall(r"`(\w+)`", line.split(" | ")[0]))
        assert named == {f.name for f in fields(PipelineConfig)}


class TestQuery:
    def test_scrubbed_removes_gold_answers(self):
        q = Query(id="q1", text="who?", gold_answers=("x", "y"))
        scrubbed = q.scrubbed()
        assert scrubbed.gold_answers == ()
        assert scrubbed.id == q.id and scrubbed.text == q.text
        assert q.gold_answers == ("x", "y")

    def test_scrubbed_is_idempotent(self):
        q = Query(id="q1", text="who?")
        assert q.scrubbed() is q


def test_stage_timings_dict_shape():
    t = StageTimings(embed_ms=1.0, total_ms=2.0)
    d = asdict(t)
    assert set(d) == {
        "embed_ms",
        "cluster_ms",
        "sample_ms",
        "draft_ms",
        "verify_ms",
        "total_ms",
    }
    assert STAGES == tuple(d)


class TestParseEndpointUrl:
    @pytest.mark.parametrize(
        "url, parsed",
        [
            (
                "http://127.0.0.1:8080/generate",
                EndpointURL("127.0.0.1", 8080, False, "127.0.0.1:8080", "/generate"),
            ),
            ("https://Host.example", EndpointURL("host.example", 443, True, "Host.example", "/")),
            (
                "http://[::1]:9/g?k=v#frag",
                EndpointURL("::1", 9, False, "[::1]:9", "/g?k=v"),
            ),
            ("http://u:p@h/", EndpointURL("h", 80, False, "u:p@h", "/")),
            ("http://h?k=v", EndpointURL("h", 80, False, "h", "/?k=v")),
        ],
    )
    def test_url_gives_where_and_what_to_send(self, url, parsed):
        assert parse_endpoint_url(url) == parsed


class TestReadJsonObject:
    def test_utf8_bytes_decode(self):
        assert read_json_object(b'{"a": [1, "\xc3\xa9"]}') == {"a": [1, "é"]}

    def test_a_leading_byte_order_mark_is_skipped(self):
        assert read_json_object(b'\xef\xbb\xbf{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize(
        "data",
        [
            b'{"a": "caf\xe9"}',  # Latin-1
            '{"a": 1}'.encode("utf-16"),
            '{"a": 1}'.encode("utf-32"),
            b'{"a": "\xed\xa0\x80"}',  # an encoded surrogate
        ],
        ids=["latin-1", "utf-16", "utf-32", "surrogate"],
    )
    def test_bytes_that_are_not_utf8_are_refused(self, data):
        with pytest.raises(ValueError, match=r"^not UTF-8 \("):
            read_json_object(data)

    # Only the first of two byte order marks is skipped.
    @pytest.mark.parametrize(
        "data", [b"", b"{broken", b'{"a": 1} x', b"\xef\xbb\xbf\xef\xbb\xbf{}"]
    )
    def test_text_that_is_not_json_is_refused(self, data):
        with pytest.raises(ValueError, match=r"^invalid JSON \(.* at character \d+\)$"):
            read_json_object(data)

    @pytest.mark.parametrize("wrap", [b"%s", b'{"a": %s}'])
    def test_nesting_deeper_than_the_parser_recurses_is_refused(self, wrap):
        with pytest.raises(ValueError, match="^JSON nested deeper than the parser"):
            read_json_object(wrap % nested_arrays(DEEPEST))

    def test_nesting_the_parser_takes_is_read(self):
        value = read_json_object(b'{"a": %s}' % nested_arrays(50))["a"]
        for _ in range(49):
            [value] = value
        assert value == []

    @pytest.mark.parametrize("data", [b"[1]", b'"a"', b"null", b"3", b"true"])
    def test_a_value_other_than_an_object_is_refused(self, data):
        with pytest.raises(ValueError, match="^not a JSON object$"):
            read_json_object(data)

    @pytest.mark.parametrize(
        "data, where",
        [
            (rb'{"a": "\ud800"}', ".a"),
            (rb'{"a": [1, {"b": "x\uDFFF"}]}', ".a[1].b"),
            (rb'{"a b": {"\udc00": 1}}', '["a b"]["\\udc00"]'),
            (rb'{"x": "\udc00\ud800"}', ".x"),  # a pair in the wrong order
            (rb'{"ok": "\ud83d\ude00", "no": "\ud83d"}', ".no"),
        ],
    )
    def test_a_lone_surrogate_is_refused_naming_where(self, data, where):
        message = f"{where} holds a lone surrogate, not encodable as UTF-8"
        with pytest.raises(LoneSurrogateError, match=f"^{re.escape(message)}$"):
            read_json_object(data)

    def test_an_escaped_surrogate_pair_is_one_character(self):
        assert read_json_object(rb'{"a": "\ud83d\ude00\\ud800"}') == {"a": "😀\\ud800"}

    @given(value=JSON_VALUES, key=ANY_TEXT, ascii_only=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_what_is_read_is_utf8_and_what_is_refused_says_where(
        self, value, key, ascii_only
    ):
        # Escaped (as json.dumps writes by default) or, where UTF-8 can
        # carry it, written out.
        text = json.dumps({key: value}, ensure_ascii=ascii_only)
        data = text.encode("utf-8", "surrogatepass")
        where = _lone_surrogate_at(json.loads(text))  # the full walk
        try:
            read = read_json_object(data)
        except LoneSurrogateError as exc:
            assert str(exc) == f"{where} holds a lone surrogate, not encodable as UTF-8"
            return
        except ValueError as exc:
            # Written out, a surrogate is bytes UTF-8 does not allow.
            assert not ascii_only and str(exc).startswith("not UTF-8")
            return
        assert where is None
        json.dumps(read, ensure_ascii=False).encode("utf-8")
