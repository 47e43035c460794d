"""The benchmark's tracer wraps program functions by name, and its install()
skips a name that no longer exists. A renamed function would then read zero
in its per-layer metric with no failure, so every name it wraps must
resolve here. The module is only imported, never installed.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# names the tracer still lists although the program no longer has them
RETIRED = {"_local_branch_losses"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans._TARGETS
               if attr not in RETIRED and attr not in vars(owner)]
    assert not missing, f"the tracer would skip {missing}"


def test_every_traced_op_resolves(spans):
    from fedmoe import autodiff

    assert [op for op in spans.ALL_OPS if not hasattr(autodiff, op)] == []
