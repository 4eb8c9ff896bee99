"""mshoa benchmark: one workload, one seed, fresh worker process per sample.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The configuration is generated from
the seed (``workloads.py``); each sample runs it through ``load_config`` and
``run_experiment`` in a new interpreter (``worker.py``), because a user of
``mshoa run`` pays cold imports and empty caches every time; the artifacts
are then checked (``check.py``).  With ``--trace 0`` the last stdout line
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced samples and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_run
from spans import MATIO_WRITERS
from workloads import WORKLOADS, make_config, mirror_index

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 5  # set-up-only workers per run, on top of one per sample
MIN_SAMPLES = 2  # untraced samples per untraced run; a traced run needs one pair
BLAS_THREADS = 1  # BLAS threads would compete with each other and the host's other load
RUN_LIMIT_S = 170.0  # a run must end within 180 s
COVERAGE_TOL = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or metric definitions)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in BLAS_THREAD_VARS})
    return env


def launch(config: Path, out_dir: Path, flags: list[str], timeout: float) -> dict:
    """Run one worker; return its report with ``setup_s`` added, or raise RuntimeError."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(config), str(out_dir), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail[0]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["mshoa"]).resolve().parent != (SRC / "mshoa").resolve():
        raise RuntimeError(f"worker imported mshoa from {report['mshoa']}, not {SRC}")
    report["setup_s"] = report["t_config"] - t_spawn
    return report


def layer_values(report: dict) -> dict:
    """Per-layer figures of one traced sample, keyed like BENCHMARK.json."""
    trace = report["trace"]
    spans, top, counters = trace["spans"], trace["top"], trace["counters"]
    covered = sum(top.values()) + spans["runner.run_experiment"]["self_s"]
    sr_calls = spans["translation.sr_translation"]["calls"]
    values = {
        "fields.reconstruct_field.basis_entries": counters["basis_entries"],
        "translation.sr_translation.distinct_ratio": counters["sr_distinct"] / sr_calls if sr_calls else 0.0,
        "matio.write_s": sum(spans[key]["s"] for key in MATIO_WRITERS),
        "matio.bytes_written": counters["bytes_written"],
        "trace.run_s": report["run_s"],
        "trace.coverage": covered / report["run_s"],
    }
    values.update({f"top.{layer}.s": seconds for layer, seconds in top.items()})
    for key, stat in spans.items():
        values.update({f"{key}.{name}": v for name, v in stat.items()})
    return values


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def preflight():
    if not (SRC / "mshoa" / "__init__.py").is_file():
        raise BenchError(f"no mshoa sources under {SRC}; run from a source checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json in {ROOT}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    t_start = time.monotonic()
    preflight()
    specs = load_metric_specs()
    reference = json.loads(REFERENCE.read_text())[workload]
    raw = make_config(workload, seed)
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"seed{seed}.yaml"
    config.write_text(json.dumps(raw, indent=1) + "\n")  # JSON is valid YAML
    out_dir = work / "out"
    ref = reference["mirrors"].get(str(mirror_index(seed)))

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    attempted = failed = 0
    setups, untraced, traced = [], [], []
    versions = None

    def attempt(flags: list[str]) -> dict | None:
        nonlocal attempted, failed, versions
        attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            report = launch(config, out_dir, flags, timeout=max(remaining(), 1.0))
        except (RuntimeError, ValueError, KeyError) as exc:
            failed += 1
            print(f"FAIL {' '.join(flags) or 'sample'}: {exc}")
            return None
        versions = report["versions"]
        setups.append(report["setup_s"])
        if "--setup-only" in flags:
            return report
        problems = check_run(out_dir, raw, reference, ref)
        if "--trace" in flags:
            coverage = layer_values(report)["trace.coverage"]
            if abs(coverage - 1.0) > COVERAGE_TOL:
                problems.append(f"span coverage {coverage:.3f} of run_s is off by more than {COVERAGE_TOL:.0%}")
        s = report["summary"]
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(
            f"sample {'traced' if '--trace' in flags else 'untraced'} run_s={report['run_s']:.3f} "
            f"setup_s={report['setup_s']:.3f} peak_rss_mb={report['peak_rss_mb']:.0f} "
            f"ssa={s['ssa']} sigma={s['sigma']} n_c={s['n_c']} {status}"
        )
        if problems:
            failed += 1
            return None
        return report

    # Untimed warm-up: compiles bytecode and fills the page cache once per run.
    launch(config, out_dir, ["--setup-only"], timeout=max(remaining(), 1.0))
    for _ in range(SETUP_PROBES):
        attempt(["--setup-only"])
    t_measure = time.monotonic()
    min_rounds = 1 if trace else MIN_SAMPLES
    for n in range(1, sys.maxsize):
        t0 = time.monotonic()
        report = attempt([])
        if report is not None:
            untraced.append(report)
        if trace:
            report = attempt(["--trace"])
            if report is not None:
                traced.append(report)
        if remaining() <= time.monotonic() - t0:
            break  # another round would not end within the run limit
        if n >= min_rounds and time.monotonic() - t_measure >= seconds:
            break

    if not setups or not untraced or (trace and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, 1

    if trace:
        per_sample = [layer_values(r) for r in traced]
        overhead = statistics.median([r["run_s"] for r in traced]) - statistics.median(
            [r["run_s"] for r in untraced]
        )
        wanted = specs["per_layer"]
        found = {}
        for m in wanted:
            if m["name"] == "trace.overhead_s":
                found[m["name"]] = overhead
            elif all(m["name"] in v for v in per_sample):
                found[m["name"]] = statistics.median([v[m["name"]] for v in per_sample])
            else:
                raise BenchError(f"per-layer metric {m['name']} names no traced span or counter")
    else:
        wanted = specs["end_to_end"]
        found = {
            "run_s": statistics.median([r["run_s"] for r in untraced]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
            "ssa_m2": statistics.median([r["summary"]["ssa"] for r in untraced]),
            "ok_frac": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    env = {
        "workload": workload,
        "seed": seed,
        "mirror": mirror_index(seed),
        "samples": len(untraced),
        "traced_samples": len(traced),
        "setup_samples": len(setups),
        "nproc": os.cpu_count(),
        "blas_threads": worker_env()[BLAS_THREAD_VARS[0]],
        **(versions or {}),
    }
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
