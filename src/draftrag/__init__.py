"""Draft-then-verify retrieval augmented generation.

Retrieved documents are clustered by embedding into perspectives, diverse
document subsets are sampled one-per-cluster, a pool of drafter endpoints
writes answer drafts with rationales in parallel, and a generalist verifier
scores each draft in a single echo pass; the highest-scoring draft becomes
the answer. A deterministic mock LM backend makes every numeric path
testable without model weights.
"""

from .backend import (
    EndpointConnectionError,
    EndpointDescriptor,
    EndpointTimeout,
    EndpointUnavailableError,
    MalformedResponseError,
    TransportError,
    dispatch,
    fan_out,
)
from .clustering import (
    ClusterSet,
    DocumentSubset,
    embed_documents,
    kmeans_cluster,
    sample_subsets,
    unit_rows,
)
from .core import (
    ConfigError,
    DataError,
    Document,
    PipelineConfig,
    PipelineError,
    Query,
    SamplingMode,
    ScoreTerm,
    SelectionMode,
    StageTimings,
    TaskKind,
    VerificationContextMode,
    derive_rng,
    validate_config,
)
from .drafting import (
    Candidate,
    DraftParseError,
    NoValidDraftsError,
    TokenLogprob,
    build_draft_prompt,
    compute_rho_draft,
    draft_subset,
    generate_drafts,
    parse_draft,
    sequence_logprob,
)
from .harness import (
    DatasetError,
    DatasetRecord,
    EvalSummary,
    PipelineBackends,
    PipelineResult,
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
)
from .mock_server import MockLMServer, MockScript
from .verification import (
    build_verify_prompt,
    combine_scores,
    score_candidate,
    select_best,
    verify_candidate,
    verify_candidates,
)

__version__ = "0.1.0"
