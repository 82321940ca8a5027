"""The package runs on numpy alone: no module of scipy is imported, and
importing the package itself loads neither numpy nor any of its own modules."""

import os
import subprocess
import sys
from pathlib import Path

import becmetrology

SRC = Path(becmetrology.__file__).resolve().parents[1]

# Every command on a small configuration, plus a radial (d = 2) ground state,
# in an interpreter where importing scipy fails.  numpy submodules that a run
# loads on first use would move import time into the run, so none may appear
# after the package import, with one exception: numpy.random (about 6 MB and
# 17 ms with the secrets and hashlib modules it pulls in), which only the
# counting Monte Carlo draws from.  It loads inside that command, so bounds,
# scaling, condensate and the radial solve run without it, and counting then
# loads numpy.random's modules and no other.  numpy.ma, which nothing uses,
# may not appear at all.
SCRIPT = r"""
import os, sys, tempfile, warnings

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
warnings.simplefilter("ignore")

# every module, so that none may load numpy.random at its import either
from becmetrology import cli, counting, gp, physconfig, scaling, spins, thomas_fermi

def late_numpy_modules(before):
    assert "numpy.ma" not in sys.modules
    assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
    return sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")

before = set(sys.modules)
config = ("[grid]\npoints = 128\n\n[sweep]\nn_values = 8 16\nn_over_nl = 100 178 316\n"
          "counting_n = 100\ntrials = 2000\n")
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "run.cfg")
    with open(path, "w") as fh:
        fh.write(config)
    for command in ("bounds", "scaling", "condensate"):
        code = cli.main([command, "--config", path, "--out", out])
        assert code == 0, (command, code)
    species = physconfig.rb87()
    geom = physconfig.trap_from_lengths(2, 2.0, 1e-6, 100e-6, species.mass)
    n = 1.0 + 316.0 * (scaling.critical_numbers(geom, species.a11).n_lower - 1.0)
    result = gp.ground_state(geom, species, n, gp.default_grid(geom, species, n, points=128))
    assert result.residual < 1e-10
    late = late_numpy_modules(before)
    assert not late, late
    assert "numpy.random" not in sys.modules

    before = set(sys.modules)
    code = cli.main(["counting", "--config", path, "--out", out])
    assert code == 0, ("counting", code)
    late = late_numpy_modules(before)
    assert "numpy.random" in late
    assert all(m.startswith("numpy.random.") for m in late if m != "numpy.random"), late
print("ok")
"""


def _last_line(script: str) -> str:
    """The last line that script prints, run in a fresh interpreter on this src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_run_without_scipy():
    assert _last_line(SCRIPT) == "ok"


def test_package_import_loads_no_submodule_and_no_numpy():
    assert _last_line("import sys, becmetrology; "
                      "print(sorted(m for m in sys.modules if m.startswith('becmetrology.') "
                      "or m.split('.')[0] == 'numpy'))") == "[]"
