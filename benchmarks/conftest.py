"""Benchmark fixtures: one mid-size MIMIC database shared per session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.workloads import MimicConfig, build_mimic_database, make_workload

#: Mid-size scale: big enough that W1..W4 spread over ~two orders of
#: magnitude, small enough that the full bench suite runs in minutes.
BENCH_CONFIG = MimicConfig(n_patients=300)

#: ``--quick`` (the CI smoke lane) swaps in this config and caps
#: ``figutil.SCALE`` so every bench exercises its full code path in
#: seconds; the published numbers are then smoke artifacts, not results.
QUICK_CONFIG = MimicConfig(n_patients=60)
QUICK_SCALE_CAP = 0.25


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="bench smoke mode: shrink workloads so the suite runs in "
        "seconds (CI); numbers are not comparable to full runs",
    )


def pytest_configure(config):
    if config.getoption("--quick"):
        global BENCH_CONFIG
        import figutil

        figutil.SCALE = min(figutil.SCALE, QUICK_SCALE_CAP)
        BENCH_CONFIG = QUICK_CONFIG


@pytest.fixture(scope="session")
def bench_config() -> MimicConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def _bench_template():
    return build_mimic_database(BENCH_CONFIG)


@pytest.fixture
def bench_db(_bench_template):
    """A fresh clone of the bench database (each bench mutates its logs)."""
    return _bench_template.clone()


@pytest.fixture(scope="session")
def bench_workload(bench_config):
    return make_workload(bench_config)
