"""The benchmark's traced run wraps doco functions by name (``perfbench/layers.py``).

A rename or removal under ``src/`` that drops one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test, so the hooks
are checked here.  ``perfbench/`` is only imported, never changed.
"""

import sys
from pathlib import Path

import pytest

from doco import RunConfig, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))  # layers imports its siblings replay and workloads
    try:
        import layers

        yield layers
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def replay(layers):
    return sys.modules["replay"]  # imported by layers, with the path its own imports need


def test_every_wrapped_target_exists(layers):
    for owner, attr, name, _ in layers._targets():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_o2b_linear_run_opens_a_hindsight_span(layers):
    # The traced run takes a median over these spans, which fails on none.
    tracer = layers.Tracer()
    cfg = RunConfig("o2b", "lad", 64, 2, 3, "randk:2", weights="linear", mu=0.5, samples=8)
    with tracer.instrument(layers._targets()), tracer.span("harness.run") as root:
        run(cfg)
    assert [c.name for c in tracer.children(root.id)].count("domains.best_in_hindsight") == 1


@pytest.mark.parametrize(
    "cfg",
    [
        # 300 updates: the run driver's oracle picks cross a 256-update chunk.
        RunConfig("o2b", "lad", 600, 3, 3, "randk:2", L=2, samples=8, seed=4),
        RunConfig("o2b", "lad", 600, 3, 3, "randk:2", L=2, samples=8, weights="linear", mu=0.5, seed=5),
        RunConfig("dftcl", "linear", 300, 3, 4, "randk:2", seed=6),
    ],
    ids=["o2b_uniform", "o2b_linear", "dftcl"],
)
def test_public_loop_replay_matches_run(replay, cfg):
    # The replay steps the engines through their public calls (``O2b.step``
    # with ``LadProblem.stochastic_grads``); the run driver takes its own path.
    replay.cross_check(replay.replay(cfg), run(cfg, keep_decisions=True))
