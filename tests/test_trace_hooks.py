"""The benchmark's span tracing (``perfbench/tracing.py``) names functions that exist.

``perfbench/run.py --trace 1`` wraps each ``(layer, attr)`` of its ``TRACED``
list, so renaming or deleting one of those functions breaks the traced run;
this check reads the list and fails at once instead.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for layer, attr in tracing.TRACED:
        try:
            target = functools.reduce(
                getattr, attr.split("."), importlib.import_module(f"ecegames.{layer}")
            )
        except (ImportError, AttributeError):
            target = None
        if not callable(target):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"traced names that ecegames does not define: {missing}"
