"""Every output of the four default commands and of four condensate configurations,
against the files checked in under tests/golden/.

Each case directory holds the config.ini that it runs and every CSV and run
index that the run writes.  The `#` header lines and every cell that is not a
float must match exactly; a float may move by GOLDEN_RTOL relative, because
the FFT's last bits may differ between machines and numpy versions.

A change that moves an output on purpose regenerates every case with

    PYTHONPATH=src python tests/test_golden.py

and names in CHANGES.md each file that moved and its largest relative move.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from becmetrology import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-12
# case directory: the command that it runs
CASES = {"bounds": "bounds", "scaling": "scaling", "condensate": "condensate",
         "counting": "counting", "near_nl": "condensate", "mixed": "condensate",
         "q10": "condensate", "points_1000": "condensate"}


def run_case(case: str, out) -> None:
    """Run one case's command on its config.ini, writing every output to out."""
    argv = [CASES[case], "--config", str(GOLDEN / case / "config.ini"), "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"golden case {case} failed")


def _outputs(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name != "config.ini")


def _cell(text: str):
    """A CSV cell as a float if it spells one that is not an integer, else its text."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    lines = path.read_text().splitlines()
    return {"header": [line for line in lines if line.startswith("#")],
            "rows": [[_cell(c) for c in row]
                     for row in csv.reader(line for line in lines if not line.startswith("#"))]}


def _mismatches(got, want, where: str) -> list[str]:
    """Where got differs from want: a float by more than GOLDEN_RTOL, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if (got == want or math.isclose(got, want, rel_tol=GOLDEN_RTOL)
                or (math.isnan(got) and math.isnan(want))):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_the_golden_files(case, tmp_path):
    run_case(case, tmp_path)
    assert _outputs(tmp_path) == _outputs(GOLDEN / case)
    for name in _outputs(tmp_path):
        diffs = _mismatches(_load(tmp_path / name), _load(GOLDEN / case / name), name)
        assert not diffs, "\n".join(diffs[:20])


def test_the_comparison_allows_float_noise_and_nothing_else():
    row = {"header": ["# x = 1"], "rows": [["ramsey", "8", 0.125, math.nan]]}
    assert not _mismatches(row, row, "f")
    assert not _mismatches({**row, "rows": [["ramsey", "8", 0.125 * (1 + 1e-13), math.nan]]},
                           row, "f")
    for moved in ({**row, "header": ["# x = 2"]},
                  {**row, "rows": [["cat", "8", 0.125, math.nan]]},
                  {**row, "rows": [["ramsey", "9", 0.125, math.nan]]},
                  {**row, "rows": [["ramsey", "8", 0.125 * (1 + 1e-11), math.nan]]},
                  {**row, "rows": [["ramsey", "8", 0.125, 0.0]]},
                  {**row, "rows": []}):
        assert _mismatches(moved, row, "f")
    assert _cell("8") == "8" and _cell("inf") == math.inf and _cell("1/2") == "1/2"


if __name__ == "__main__":
    for name in CASES:
        run_case(name, GOLDEN / name)
