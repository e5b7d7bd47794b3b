"""Benchmark fixtures: one shared :class:`BenchHarness` per module.

Every ``bench_*.py`` exposes ``run_suite(harness, quick=False)``; the
``harness`` fixture names the suite after the module (the same name
``repro bench <suite>`` uses), lets the suite time cases and emit its
human-readable tables, and writes the versioned
``results/BENCH_<suite>.json`` artifact on teardown.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.bench import BenchHarness

_RESULTS = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="module")
def harness(request):
    """A full-scale harness shared by the current module's tests.

    pytest captures stdout, so the durable copies under ``results/``
    — the ``.txt`` tables and the ``BENCH_<suite>.json`` artifact —
    are what survives a plain ``pytest benchmarks/`` run.
    """
    suite = Path(request.module.__file__).stem.removeprefix("bench_")
    bench = BenchHarness(suite, results_dir=_RESULTS)
    yield bench
    if bench.cases:
        bench.write()
