"""The package surface: ``concomitant_measures`` exports each library
module's ``__all__`` and leaves the ``cmeasure`` front end unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import concomitant_measures as cm
from concomitant_measures import cpi, empirical, fgm, inaccuracy, marginals, numerics

SRC = str(Path(__file__).resolve().parent.parent / "src")
MODULES = (cpi, empirical, fgm, inaccuracy, marginals, numerics)


def test_all_is_each_module_all_and_the_version():
    expected = [name for mod in MODULES for name in mod.__all__] + ["__version__"]
    assert len(set(cm.__all__)) == len(cm.__all__) == 55
    assert cm.__all__ == expected


def test_each_name_is_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(cm, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_import_loads_no_cli():
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, concomitant_measures; print('concomitant_measures.cli' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "False\n"
