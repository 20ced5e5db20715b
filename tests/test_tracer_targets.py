"""The benchmark tracer's targets still name genil functions, so a rename or
deletion in genil fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("genil_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
