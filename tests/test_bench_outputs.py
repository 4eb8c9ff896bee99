"""The benchmark's output gate on every workload and mirror seed, in-process (slow).

Each workload of ``bench/workloads.py`` runs at mirror seeds 0-7, and
``bench/check.py`` checks its artifacts against ``bench/reference.json``:
the SSA, sigma and n_c the benchmark accepts.  Run with ``pytest -m slow``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from check import check_run  # noqa: E402
from workloads import MIRRORS, WORKLOADS, make_config, mirror_index  # noqa: E402

from mshoa.config import parse_config  # noqa: E402
from mshoa.runner import run_experiment  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(MIRRORS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_the_benchmark_check(tmp_path, workload, seed):
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    raw = make_config(workload, seed)
    run_experiment(parse_config(raw), tmp_path)
    assert check_run(tmp_path, raw, reference, reference["mirrors"][str(mirror_index(seed))]) == []
