"""Every function the perfbench tracer wraps must exist in semlink.

perfbench/bench_trace.py names its targets as (module, qualified name)
strings; a renamed or deleted function would otherwise only surface when a
traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_bench_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod, name", _targets())
def test_target_resolves(mod, name):
    owner = importlib.import_module(f"semlink.{mod}")
    for part in name.split("."):
        assert hasattr(owner, part), f"semlink.{mod} has no {name}"
        owner = getattr(owner, part)
    assert callable(owner)
