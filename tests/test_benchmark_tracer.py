"""The names `benchmarks/tracing.py` wraps still exist in the package.

The tracer looks each function and method up by name and reports the ones it
cannot find as "# untraced" lines, which fail the traced benchmark smoke in
CI; this test fails first, in tier-1, when a package change removes or
renames one.
"""

import importlib.util
from pathlib import Path

import cpmatch
import cpmatch.cli  # noqa: F401  (the tracer patches cli's bindings too)

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(cpmatch)
        assert tracer.missing == []
    finally:
        tracer.restore()
