"""The benchmark's span tracer (perfbench/tracing.py) patches blockprod's
public callables by name; every name it lists must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for module, attr in tracing.TRACED:
        target = importlib.import_module(f"blockprod.{module}")
        if "." in attr:
            # methods are patched on the class that defines them
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(target, cls_name)), (module, attr)
        else:
            assert callable(getattr(target, attr)), (module, attr)
