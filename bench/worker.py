"""One benchmark sample: a fresh interpreter that runs one experiment.

    python worker.py CONFIG OUT_DIR [--setup-only] [--trace]

Imports ``mshoa`` (from ``PYTHONPATH``), parses CONFIG with ``load_config``
and, unless ``--setup-only``, runs ``run_experiment`` into OUT_DIR.  Prints
one JSON line: the monotonic clock reading at the parsed config (the parent
subtracts its own reading at spawn to get set-up time), the run's wall time,
its result, the peak RSS and the library versions.  With ``--trace`` the
public functions of each layer are wrapped in spans first, and the span
statistics are included.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv: list[str]) -> int:
    config_path, out_dir = argv[0], argv[1]
    tracer = None
    if "--trace" in argv:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import mshoa

    cfg = mshoa.load_config(config_path)
    t_config = time.monotonic()
    result = {"t_config": t_config, "mshoa": mshoa.__file__}
    if "--setup-only" not in argv:
        t0 = time.perf_counter()
        summary = mshoa.run_experiment(cfg, out_dir)
        result["run_s"] = time.perf_counter() - t0
        result["summary"] = {"ssa": summary.ssa, "sigma": summary.sigma, "n_c": summary.n_c}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
