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
