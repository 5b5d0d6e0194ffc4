#!/usr/bin/env python3
"""Soak the property tests: fresh Hypothesis seeds, more examples each.

The tier-1 suite runs each Hypothesis test under one random seed with a
modest `max_examples`, so a narrow failing band is found only as a rare
flake.  This script runs every Hypothesis test of the files in `TESTS`
(every test file in `tests/`) under the seeds FIRST_SEED, FIRST_SEED + 1,
... (`SEEDS` of them), each with `EXAMPLES_FACTOR` times its own
`max_examples` and no example database, so every seed is a fresh search.
The tests' own settings and bounds are untouched.  It prints one line per
seed and exits 1 if any seed failed; a failing seed's falsifying example is
in the pytest output above its line.

    PYTHONPATH=src python3 scripts/soak_clearing.py
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

FIRST_SEED = 1000
SEEDS = 200
EXAMPLES_FACTOR = 4
TESTS = tuple(str(path) for path in
              sorted((Path(__file__).resolve().parent.parent / "tests").glob("test_*.py")))


class _Soak:
    """pytest plugin: keep only the Hypothesis tests and scale their example counts."""

    def __init__(self) -> None:
        self.base: dict = {}  # each test's own settings, kept across sessions

    def pytest_collection_modifyitems(self, items) -> None:
        from hypothesis import settings  # after pytest has loaded its Hypothesis plugin

        items[:] = [item for item in items if getattr(item.obj, "is_hypothesis_test", False)]
        for item in items:
            fn = item.obj
            base = self.base.setdefault(fn, fn._hypothesis_internal_use_settings)
            fn._hypothesis_internal_use_settings = settings(
                base, max_examples=EXAMPLES_FACTOR * base.max_examples, database=None)


def main() -> int:
    soak, failed = _Soak(), []
    for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
        start = time.perf_counter()
        code = pytest.main(["-q", "--no-header", "-p", "no:cacheprovider",
                            f"--hypothesis-seed={seed}", *TESTS], plugins=[soak])
        if code != 0:
            failed.append(seed)
        print(f"seed {seed}: {'ok' if code == 0 else 'FAILED'} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{SEEDS - len(failed)} of {SEEDS} seeds clean"
          + (f"; failed: {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
