"""scipy is imported only by the solves that need a sparse matrix.

Each check runs in a fresh interpreter: this test session has loaded scipy
already (``test_ctmc`` imports it), so ``sys.modules`` here says nothing.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data"

# Everything a 2-queue job does: the structure gates, three verdicts (the
# second escalates a 1-D prefix to 65,536 states and descends to a witness),
# a 32-replica probe, and the simulate and sweep commands.
TWO_QUEUE_JOBS = """
import sys

from coupledq import StabilityEngine, base_station_pair
from coupledq.cli import main
from coupledq.simulate import empirical_stability_probe

spec = base_station_pair(2.0)
engine = StabilityEngine(spec)
engine.structure()
labels = [engine.classify(p).system.value for p in [(0.3, 0.4), (0.5, 0.9), (1.3, 0.2)]]
empirical_stability_probe((0.4, 0.4), spec, (0, 0), (100.0, 200.0), 32, seed=7)
assert main(["simulate", "--scenario", "two_basestations", "--rates", "0.3,0.4",
             "--horizon", "200", "--replicas", "4"]) == 0
assert main(["sweep", "--scenario", "two_basestations", "--grid", "0.3:0.9:0.6",
             "--out", sys.argv[1]]) == 0
print(labels)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

THREE_QUEUE_REPORT = """
import sys

from coupledq.cli import main

code = main(["three-queues", "--rates", "0.5,1.2,0.3"])
print("scipy loaded:", "scipy.sparse.linalg" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

# The residual of a 2-D law, here two independent truncated M/M/1 queues
# whose law is the product of truncated geometric laws.
TWO_D_RESIDUAL = """
import sys

import numpy as np

from coupledq import ctmc

gen = ctmc.build_truncated_generator(
    (0.5, 0.4), lambda box: np.ones(((box[0] + 1) * (box[1] + 1), 2)), (40, 30),
    death_bound=1.0)
law = np.outer(0.5 ** np.arange(41), 0.4 ** np.arange(31)).ravel()
print(ctmc._residual(gen, law / law.sum()) < 1e-15)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _fresh(script, *args):
    return subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, check=True)


def test_two_queue_jobs_never_import_scipy(tmp_path, deadline):
    with deadline(120):
        run = _fresh(TWO_QUEUE_JOBS, str(tmp_path / "sweep.csv"))
    *_, labels, modules = run.stdout.decode().splitlines()
    assert labels == "['stable', 'unstable', 'unstable']"
    assert modules == "[]"
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 4


def test_three_queue_report_imports_scipy_on_its_first_2d_solve(deadline):
    with deadline(120):
        run = _fresh(THREE_QUEUE_REPORT)
    assert run.stdout == (GOLDEN / "three_queues_0.5_1.2_0.3.txt").read_bytes()
    assert "scipy loaded: True" in run.stderr.decode()


def test_residual_of_a_2d_law_leaves_scipy_unloaded(deadline):
    with deadline(120):
        run = _fresh(TWO_D_RESIDUAL)
    assert run.stdout.decode().splitlines() == ["True", "[]"]
