"""Every layer the benchmark tracer wraps still exists in the package.

The tracer (`perfbench/tracer.py`) looks its targets up by name when it is
installed, so a renamed or deleted function breaks traced benchmark runs
without any other test failing.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{func}"
        for module, func, _, _ in tracer.TARGETS
        if not callable(
            getattr(importlib.import_module(f"shortgf.{module}"), func, None)
        )
    ]
    assert missing == []
