"""What the benchmark in bench/ reads of the library.  A rename or deletion
that would break a benchmark run fails here first."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod_name,names", sorted(_tracing().TRACED.items()))
def test_traced_names_resolve(mod_name, names):
    # Tracer.install patches a class's own __init__, a dotted name's
    # classmethod on its class, and every other name as a module function
    mod = importlib.import_module(f"dihedral_parity.{mod_name}")
    for name in names:
        if "." in name:
            cls_name, meth = name.split(".")
            assert isinstance(vars(getattr(mod, cls_name))[meth], classmethod), name
            continue
        obj = getattr(mod, name)
        if isinstance(obj, type):
            assert "__init__" in vars(obj), name
        else:
            assert callable(obj), name


def test_bench_selftest_passes():
    # no bytecode is written, so the run leaves nothing under bench/
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# every tower and regulator item of one algebra round (2 towers, 12
# regulator items), run and checked as the benchmark does;
# bench/selftest.py runs neither kind
_ALGEBRA_ITEMS = """
import sys
sys.path[:0] = ["src", "bench"]
import workloads
w = workloads.Algebra(0)
items = [item for item in w.items if item[0] in ("tower", "regulator")]
problems = [p for item in items for p in w.check(item, w.run(item))]
print(len(items), "items", problems)
sys.exit(1 if problems or len(items) != 14 else 0)
"""


def test_bench_tower_and_regulator_items_run_and_check():
    proc = subprocess.run([sys.executable, "-c", _ALGEBRA_ITEMS], cwd=ROOT,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# every item of one curves round (574 seeded curves and the fault curves),
# run and checked as the benchmark does: the check reads each
# GlobalVerdict's agree, c_product, w_product and locals
_CURVE_ITEMS = """
import sys
sys.path[:0] = ["src", "bench"]
import workloads
w = workloads.Curves(0)
problems = [p for item in w.items for p in w.check(item, w.run(item))]
print(len(w.items), "items", problems)
sys.exit(1 if problems or len(w.items) != 576 else 0)
"""


def test_bench_curve_items_run_and_check():
    proc = subprocess.run([sys.executable, "-c", _CURVE_ITEMS], cwd=ROOT,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# the six subcommands of one cli round, each a fresh process writing --json
# into a temporary workdir, run and checked as the benchmark does: the
# check reads every report
_CLI_ITEMS = """
import sys
from pathlib import Path
sys.path[:0] = ["src", "bench"]
import workloads
w = workloads.Cli(0, Path.cwd(), Path(sys.argv[1]))
try:
    problems = [p for item in w.items for p in w.check(item, w.run(item))]
finally:
    w.close()
print(len(w.items), "items", problems)
sys.exit(1 if problems or len(w.items) != 6 else 0)
"""


def test_bench_cli_items_run_and_check(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _CLI_ITEMS, str(tmp_path / "cli")], cwd=ROOT,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not (tmp_path / "cli").exists()
