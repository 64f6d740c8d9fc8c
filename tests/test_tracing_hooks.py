"""The benchmark tracer (perfbench/tracing.py) wraps omkit entry points by
name, so removing or renaming one silently breaks a traced run.  Every
(module, attribute) and (module, class, method) it names must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    tracing = load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for module_name, attr, *_ in tracing.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
    for module_name, cls_name, method, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, (module_name, cls_name)
        assert method in vars(cls), (module_name, cls_name, method)
