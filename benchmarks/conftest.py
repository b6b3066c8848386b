"""Shared benchmark fixtures.

The paper's testbed is a 16-core Xeon running MonetDB (C code) on LDBC
scale factors 1-300.  Our substrate is a pure-Python engine, so the
benchmarks run on graphs shrunk by ``BENCH_SCALE`` (same shape: Table 1
vertex/edge ratios, skewed degrees, doubled directed edges).  Absolute
numbers are not comparable to the paper; the *relationships* between
series (weighted vs unweighted, per-pair cost vs batch size, who wins)
are what the suite checks and reports.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — global shrink factor (default 0.01);
* ``REPRO_BENCH_SFS`` — comma-separated scale factors (default 1,3,10,30).

Benchmarks that record a ``BENCH_*.json`` artifact take its path from
their ``REPRO_BENCH_*_OUT`` variable (:func:`bench_out_path`); unset,
the file goes to the system temp directory, so a test run leaves the
committed copies at the repo root untouched.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from repro.ldbc import generate, make_database

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))
SCALE_FACTORS = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SFS", "1,3,10,30").split(",")
)


def bench_out_path(env_var: str, filename: str) -> Path:
    """Where a benchmark writes its JSON artifact: ``$env_var`` when
    set (the CI smoke job points it at the repo root and uploads the
    file), else ``filename`` in the system temp directory."""
    return Path(
        os.environ.get(env_var) or os.path.join(tempfile.gettempdir(), filename)
    )


@pytest.fixture(scope="session")
def networks():
    """scale factor -> generated SocialNetwork (session-cached)."""
    return {sf: generate(sf, scale=BENCH_SCALE) for sf in SCALE_FACTORS}


@pytest.fixture(scope="session")
def databases(networks):
    """scale factor -> loaded Database (session-cached)."""
    return {sf: make_database(network) for sf, network in networks.items()}
