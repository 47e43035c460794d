"""The benchmark's tracer wraps program functions by name, and its install()
skips a name that no longer exists. A renamed function would then read zero
in its per-layer metric with no failure, so every name it wraps must
resolve here. A refactor that stops calling a traced name on some path
would fail the benchmark's span checks, which run only in traced benchmark
runs; the last test runs those checks on tiny runs. The benchmark's modules
are only imported; nothing under perfbench/ is run as a script.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from fedmoe import federation

from test_acceptance import tiny_config, tiny_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names the tracer still lists although the program no longer has them
RETIRED = {"_local_branch_losses"}


# tape ops the tracer does not wrap, so their time counts toward the
# span of their caller; any other tape op must be in the tracer's ALL_OPS
UNTRACED_OPS = {"mix", "take_rows", "feed_forward", "self_attention", "final_attention"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_traced_target_resolves(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans._TARGETS
               if attr not in RETIRED and attr not in vars(owner)]
    assert not missing, f"the tracer would skip {missing}"


def test_every_traced_op_resolves(spans):
    from fedmoe import autodiff

    assert [op for op in spans.ALL_OPS if not hasattr(autodiff, op)] == []


def test_every_tape_op_is_traced_or_named_untraced(spans):
    """A tape op is a public autodiff function that records a node itself;
    composite ops (sub, tmean) record through the ops they call."""
    from fedmoe import autodiff

    tape_ops = {name for name, fn in vars(autodiff).items()
                if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                and not name.startswith("_") and "_record" in fn.__code__.co_names}
    assert sorted(tape_ops - set(spans.ALL_OPS) - UNTRACED_OPS) == []
    assert sorted(UNTRACED_OPS - tape_ops) == []
    assert sorted(UNTRACED_OPS & set(spans.ALL_OPS)) == []


def test_each_workload_records_its_exercised_spans_and_none_it_bypasses(spans):
    """A tiny run of each workload's kind and mode under the tracer: one
    training round for a training workload, and for the evaluation workload
    one evaluation of clients trained for a round."""
    scenario = tiny_scenario()
    for name, w in _load("workloads").WORKLOADS.items():
        cfg = tiny_config(mode=w.config["mode"], rounds=1)
        trained = federation.run(scenario, cfg) if w.kind == "eval" else None
        tracer = spans.Tracer()
        tracer.install()
        try:
            if trained is None:
                federation.run(scenario, cfg)
            else:
                federation.evaluate_all(trained.clients, "test", 0, cfg.mode)
        finally:
            tracer.uninstall()
        recorded = set(tracer.summary()["spans"])
        assert [s for s in w.exercised if s not in recorded] == [], name
        assert [s for s in w.bypassed if s in recorded] == [], name
