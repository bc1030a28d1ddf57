"""Draft-then-verify retrieval augmented generation.

Retrieved documents are clustered by embedding into perspectives, diverse
document subsets are sampled one-per-cluster, a pool of drafter endpoints
writes answer drafts with rationales in parallel, and a generalist verifier
scores each draft in a single echo pass; the highest-scoring draft becomes
the answer. A deterministic mock LM backend makes every numeric path
testable without model weights.

Import from the submodules. The package loads none of them, so the mock
server (``draftrag.mock_server``) runs on the standard library alone.
"""

__version__ = "0.1.0"
