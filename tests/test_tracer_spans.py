"""The benchmark tracer (``perfbench/tracer.py``) wraps bendlab functions by
name. Each entry of its ``SPANS`` table must still name a callable where the
tracer looks for it: a module-level function, a class (whose ``__init__`` is
wrapped), or a method defined in the class's own ``__dict__``. A renamed or
moved target would silently drop a per-layer metric, so this test reads the
table (without installing the tracer) and checks every entry."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_span_target_is_bound_where_the_tracer_wraps_it():
    spans = load_spans()
    missing = []
    for module_name, path, span in spans:
        module = importlib.import_module(f"bendlab.{module_name}")
        head, _, method = path.partition(".")
        target = getattr(module, head, None)
        if isinstance(target, type):
            bound = target.__dict__.get(method or "__init__")
        else:
            bound = target if not method else None
        if not callable(bound):
            missing.append(span)
    assert not missing, f"span targets no longer bound: {missing}"
    assert len({span for _, _, span in spans}) == len(spans)

