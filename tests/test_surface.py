"""The library holds only what a run executes.

Every public function, method and property defined in ``mshoa`` must be
reached by at least one of a handful of tiny experiments; reference
implementations that only tests call live in ``tests/oracles.py``.  The
package's ``__all__`` is the entry-point list README documents.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

from click.testing import CliRunner

import mshoa
from mshoa.cli import main
from mshoa.config import validate_config
from mshoa.runner import RunSummary, run_experiment
from tests.test_runner import LONE_HOA, TINY, TINY_HOA, TINY_SINGLE

README = Path(__file__).resolve().parent.parent / "README.md"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TINY_CARTESIAN = TINY.replace(
    "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
    "layout: {type: cartesian, rows: 2, cols: 2, spacing: 0.25, plane: xy}",
)


def _public_code() -> dict:
    """Code object of every public function, method and property of every ``mshoa`` module.

    Click command objects are not functions, so the CLI's commands are not listed.
    """
    codes = {}
    for info in pkgutil.iter_modules(mshoa.__path__):
        module = importlib.import_module(f"mshoa.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                codes[f"{module.__name__}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        codes[f"{module.__name__}.{name}.{attr}"] = member.__code__
    return codes


def _tiny_runs(tmp_path):
    run_experiment(validate_config(TINY.replace("sigma: 1e-9", "sigma_search: {points: 3}")), tmp_path / "search", dump_coeffs=True)
    run_experiment(validate_config(TINY_SINGLE.replace("sigma: 1e-9", "sigma: 0")), tmp_path / "single")  # σ = 0 fills T_F
    run_experiment(validate_config(TINY_HOA), tmp_path / "hoa")
    run_experiment(validate_config(LONE_HOA), tmp_path / "lone")
    run_experiment(validate_config(TINY_CARTESIAN), tmp_path / "cartesian")
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY)
    assert CliRunner().invoke(main, ["validate", str(config)]).exit_code == 0


def test_every_public_name_runs_in_an_experiment(tmp_path):
    public = _public_code()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        _tiny_runs(tmp_path)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, code in public.items() if code not in called)
    assert not unreached, f"public names no run reaches (move them to tests/oracles.py or delete them): {unreached}"


def test_exports_are_the_documented_entry_points():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"from mshoa import \((.*?)\)", section, re.S).group(1)
    documented = re.findall(r"\w+", re.sub(r"#[^\n]*", "", block))
    assert sorted(mshoa.__all__) == sorted(documented)
    assert all(hasattr(mshoa, name) for name in documented)


def test_summary_keys_are_the_documented_bullets():
    """README's summary.json section holds one bullet per RunSummary field, in
    field order, each opening with the key."""
    section = README.read_text().split("### `summary.json`", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^- `(\w+)`:", section, re.M)
    assert documented == [field.name for field in dataclasses.fields(RunSummary)]


def test_benchmark_traced_names_are_public_functions():
    """Every per-layer benchmark metric ``<module>.<function>.<stat>`` of an
    ``mshoa`` module names a public function defined in that module, the
    ones the benchmark's tracer wraps; renaming or privatising one makes a
    traced benchmark run fail on the metric."""
    modules = {info.name for info in pkgutil.iter_modules(mshoa.__path__)}
    metrics = [entry["name"].split(".") for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = sorted({(parts[0], parts[1]) for parts in metrics if len(parts) == 3 and parts[0] in modules})
    assert traced
    missing = []
    for module_name, name in traced:
        module = importlib.import_module(f"mshoa.{module_name}")
        obj = getattr(module, name, None)
        if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"benchmark metrics naming no public function of their module: {missing}"
