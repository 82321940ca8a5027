"""The package runs on numpy alone: no module of scipy is imported."""

import os
import subprocess
import sys
from pathlib import Path

import becmetrology

SRC = Path(becmetrology.__file__).resolve().parents[1]

# Every command on a small configuration, plus a radial (d = 2) ground state,
# in an interpreter where importing scipy fails.  numpy submodules that a run
# loads on first use would move import time into the run, so none may appear
# after the package import.
SCRIPT = r"""
import os, sys, tempfile, warnings

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
warnings.simplefilter("ignore")

from becmetrology import cli, gp, physconfig, scaling

before = set(sys.modules)
config = ("[grid]\npoints = 128\n\n[sweep]\nn_values = 8 16\nn_over_nl = 100 178 316\n"
          "counting_n = 100\ntrials = 2000\n")
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "run.cfg")
    with open(path, "w") as fh:
        fh.write(config)
    for command in ("bounds", "scaling", "condensate", "counting"):
        code = cli.main([command, "--config", path, "--out", out])
        assert code == 0, (command, code)
species = physconfig.rb87()
geom = physconfig.trap_from_lengths(2, 2.0, 1e-6, 100e-6, species.mass)
n = 1.0 + 316.0 * (scaling.critical_numbers(geom, species.a11).n_lower - 1.0)
result = gp.ground_state(geom, species, n, gp.default_grid(geom, species, n, points=128))
assert result.residual < 1e-10
late = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")
assert not late, late
print("ok")
"""


def test_commands_run_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
