"""Golden-master regression for the bench preset (paper-scale fixture).

Recomputing the bench fixture takes 20-35 s on one core (fused and
reference kernels), too slow for tier-1, so it lives in the benchmark
tier;
``tests/test_golden_master.py`` covers the fast smoke preset.  CI's
bench-smoke job runs it under both kernel backends.  Regenerate after
intentional changes with ``python scripts/refresh_golden.py --preset
bench``.
"""

from pathlib import Path

from repro.core.presets import bench_preset
from repro.reporting.golden import (
    compute_golden_digests,
    diff_digests,
    load_golden_digests,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def test_bench_run_matches_committed_digests():
    expected = load_golden_digests(GOLDEN_DIR / "bench_digests.json")
    actual = compute_golden_digests(bench_preset())
    diffs = diff_digests(expected, actual)
    assert not diffs, (
        "bench golden drift (refresh only if intentional):\n" + "\n".join(diffs)
    )
