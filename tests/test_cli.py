import csv
import functools
import json
import math
import os
import re
import stat
import warnings
from pathlib import Path

import pytest

from becmetrology import cli, csvio, gp
from becmetrology.physconfig import atomic_mass

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    """Read back a file written by csvio.write_csv: (header_lines, fieldnames, rows-as-dicts)."""
    header_lines = []
    with open(path, newline="") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line[1:].strip())
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    fieldnames = next(reader)
    rows = [dict(zip(fieldnames, row)) for row in reader]
    return header_lines, fieldnames, rows


def no_outputs(out):
    """True if the directory holds no CSV and no run index."""
    return not list(out.glob("*.csv")) and not list(out.glob("*_index.json"))


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    csvio.write_csv(path, ("a", "b"), [(1, 2.5), (3, 4.5)], header_lines=["hello", "x = 1"])
    header, fields, rows = read_csv(path)
    assert header == ["hello", "x = 1"]
    assert fields == ["a", "b"]
    assert rows == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "4.5"}]


def test_csv_atomic_write_replaces(tmp_path):
    path = tmp_path / "out.csv"
    csvio.write_csv(path, ("a",), [(1,)])
    csvio.write_csv(path, ("a",), [(2,)])
    _, _, rows = read_csv(path)
    assert rows == [{"a": "2"}]
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no temp litter


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_output_files_get_the_mode_the_umask_allows(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        csvio.write_csv(tmp_path / "out.csv", ("a",), [(1,)])
        csvio.write_json(tmp_path / "out_index.json", {"a": 1})
    finally:
        os.umask(old)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_config_roundtrip_idempotent():
    cfg = cli.RunConfig()
    assert cli.config_from_text("") == cfg  # a run without a file resolves to the defaults
    text1 = cli.config_to_text(cfg)
    text2 = cli.config_to_text(cli.config_from_text(text1))
    assert text1 == text2
    # a hand-written partial file also stabilizes after one round
    hand = "[trap]\nd = 2\nq = 4\n\n[protocol]\nt = 0.5\n"
    canon = cli.config_to_text(cli.config_from_text(hand))
    assert cli.config_to_text(cli.config_from_text(canon)) == canon
    parsed = cli.config_from_text(canon)
    assert parsed.trap_d == 2 and parsed.trap_q == 4.0 and parsed.t == 0.5
    for hard in ("hard", "inf"):
        parsed = cli.config_from_text(f"[species]\npreset = rb87\n\n[trap]\nd = 1\nq = {hard}\n")
        assert parsed.trap().hard_wall and parsed.species.a11 == pytest.approx(5.31e-9)
        assert "q = inf" in cli.config_to_text(parsed)
    assert cli.config_from_text("[sweep]\nq_values = 2 inf\n").q_values == [2.0, math.inf]


def test_hard_is_a_hard_wall_in_every_hardness_key(tmp_path):
    cfg = cli.config_from_text("[trap]\nq = Hard\n\n[sweep]\nq_values = 1 hard,2\n")
    assert cfg.trap_q == math.inf and cfg.q_values == [1.0, math.inf, 2.0]
    assert "q_values = 1.0 inf 2.0" in cli.config_to_text(cfg)
    with pytest.raises(cli.ConfigError, match="could not convert"):  # gamma has no hard wall
        cli.config_from_text("[protocol]\ngamma = hard\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sweep]\nq_values = 1 hard\n")
    assert cli.main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "exponents.csv")
    assert [r["q"] for r in rows] == ["1.0", "inf"]


INLINE = """
[species]
mass_u = 86.909
a11_nm = 5.31
a22_nm = 5.0007
a12_nm = 5.1553
loss12_cm3_per_s = 0.78e-13

[trap]
d = 2
q = 2
rho0_um = 1.5
"""


def test_config_inline_species_roundtrip():
    cfg = cli.config_from_text(INLINE)
    assert cfg.species_preset == "inline"
    assert cfg.species.mass == pytest.approx(86.909 * atomic_mass, rel=1e-15)
    assert cfg.species.a11 == pytest.approx(5.31e-9, rel=1e-15)
    assert cfg.species.gamma12_loss == pytest.approx(0.78e-19, rel=1e-15)
    assert cfg.species.gamma22_loss == 0.0
    geom = cfg.trap()
    assert geom.d == 2 and geom.q == 2.0 and geom.rho0 == pytest.approx(1.5e-6, rel=1e-15)
    text = cli.config_to_text(cfg)
    assert "loss12_cm3_per_s = 7.8e-14\n" in text  # same unit both ways
    assert "a22_nm = 5.0007\n" in text and "rho0_um = 1.5\n" in text
    again = cli.config_from_text(text)
    assert again == cfg
    assert cli.config_to_text(again) == text


def test_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.config_from_text("[sweep]\nn_values =\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_text("[trap]\nd = seven\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_text("[protocol]\nc1 = 0.9\nc2 = 0.9\n")
    with pytest.raises(cli.ConfigError, match="unknown species preset 'unobtainium'"):
        cli.config_from_text("[species]\npreset = unobtainium\n")
    with pytest.raises(cli.ConfigError, match="a12_nm"):
        cli.config_from_text("[species]\nmass_u = 86.9\na11_nm = 5.3\na22_nm = 5.0\n")
    with pytest.raises(cli.ConfigError, match="not both"):
        cli.config_from_text("[species]\npreset = rb87\na11_nm = 5.3\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_text("[trap]\nd = 4\n")  # the trap is validated at parse time
    with pytest.raises(cli.ConfigError):
        cli.config_from_text("[trap]\nq = 62\nr0_um = 20\n")  # stiffness underflows
    assert cli.main(["bounds", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[species]\npreset = unobtainium\n")
    assert cli.main(["bounds", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_unusable_output_path_is_a_configuration_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):  # a regular file, and a path under one
        assert cli.main(["scaling", "--out", str(out)]) == 2
        assert "configuration error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("text, name", [
    ("[sweep]\nn_value = 10\n", "'n_value' in [sweep]"),
    ("[protocl]\nt = 3\n", "[protocl]"),
    ("[protocol]\nthreads = 4\n", "'threads' in [protocol]"),
    ("[trap]\nrho0 = 2\n", "'rho0' in [trap]"),
    ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, text, name):
    with pytest.raises(cli.ConfigError, match=re.escape(name)):
        cli.config_from_text(text)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert cli.main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("condensate", "[grid]\npoints = 1\n"),
    ("condensate", "[grid]\nextent_factor = 0.7\n"),
    ("condensate", "[species]\nmass_u = 86.909\na11_nm = 5.0\na22_nm = 5.0\na12_nm = 5.0\n"),
    ("counting", "[sweep]\ntrials = 0\n"),
    ("counting", "[sweep]\ntrials = 1\n"),
    ("counting", "[sweep]\ncounting_n = 0\n"),
    ("counting", "[sweep]\nsigma_over_sqrtn = 0 -1\n"),
    ("counting", "[sweep]\nsigma_over_sqrtn =\n"),
    ("bounds", "[sweep]\nn_values = 0\n"),
    ("bounds", "[sweep]\nn_values = 8 1\n"),
    ("bounds", "[sweep]\nn_values = 8 8\n"),
    ("bounds", "[sweep]\nn_values = 8 16 8\n"),
    ("condensate", "[sweep]\nn_over_nl = -5\n"),
    ("condensate", "[sweep]\nn_over_nl = 0 100\n"),
    ("condensate", "[sweep]\nn_over_nl = 316 316 316\n"),
    # N = 1 + y (N_L - 1) rounds to 1, or overflows
    ("condensate", "[sweep]\nn_over_nl = 1e-20 1 2\n"),
    ("condensate", "[sweep]\nn_over_nl = 1e308\n"),
    ("scaling", "[sweep]\nq_values = 0.5 2\n"),
    ("bounds", "[protocol]\ngamma = 0\n"),
    ("counting", "[protocol]\nt = -1\n"),
    ("counting", "[protocol]\nt = 1e-310\n"),  # the quarter fringe pi/(2t) overflows
    ("counting", "[protocol]\nseed = -3\n"),
    # a time 0.1/(gamma N) or a phase gamma t N^2/2 of the bounds protocols, a
    # sigma or a counting delta_gamma past the largest float
    ("bounds", "[protocol]\ngamma = 1e-320\n"),
    ("bounds", "[protocol]\nt = 1e305\n\n[sweep]\nn_values = 8 4096\n"),
    ("bounds", "[protocol]\ngamma = 1e200\nt = 1e200\n"),
    ("counting", "[sweep]\nsigma_over_sqrtn = 0 1e307\n"),
    ("counting", "[protocol]\nt = 1e-300\n\n[sweep]\nsigma_over_sqrtn = 0 1e10\n"),
])
def test_config_rejects_out_of_range_values(tmp_path, capsys, command, text):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^configuration error: ", err, re.M)
    if text == "[protocol]\nseed = -3\n":  # numpy's generators take no negative seed
        assert "configuration error: invalid configuration value: seed must be nonnegative" \
            in err
    assert no_outputs(tmp_path)


@pytest.mark.parametrize("command, text", [
    ("condensate", "[trap]\nrho0_um = nan\n"),
    ("counting", "[protocol]\nt = inf\n"),
    ("bounds", "[protocol]\ngamma = inf\n"),
    ("condensate", "[protocol]\nc1 = nan\n"),
    ("condensate", "[species]\nmass_u = nan\na11_nm = 5.31\na22_nm = 5.0\na12_nm = 5.16\n"),
    ("condensate", "[sweep]\nn_over_nl = 100 inf\n"),
    ("condensate", "[grid]\nextent_factor = -3\n"),
])
def test_config_rejects_nonfinite_values_at_parse_time(tmp_path, capsys, command, text):
    with pytest.raises(cli.ConfigError, match="must be (finite|positive)"):
        cli.config_from_text(text)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert re.search(r"^configuration error: ", capsys.readouterr().err, re.M)
    assert not out.exists()  # rejected before the output directory is made


def test_a_run_without_a_file_validates_the_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "RunConfig", functools.partial(cli.RunConfig, seed=-1))
    assert cli.main(["counting", "--out", str(tmp_path)]) == 2
    assert "configuration error: invalid configuration value: seed must be nonnegative" \
        in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--preset", "typical"]])
def test_settings_come_only_from_the_file(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["counting", "--out", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_config_example_loads():
    block = re.search(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    cfg = cli.config_from_text(block)
    assert cfg.species_preset == "rb87" and cfg.trap_d == 1 and cfg.trap_q == 2.0
    assert cfg.r0 == pytest.approx(100e-6, rel=1e-15)
    assert cfg.n_over_nl == [100.0, 316.0, 1000.0] and cfg.q_values == [1.0, 2.0, 4.0, 10.0]
    assert cfg.seed == 20240901


def test_bounds_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sweep]\nn_values = 8 16 32 64 100 128 256\n")
    rc = cli.main(["bounds", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    header, fields, rows = read_csv(tmp_path / "bounds.csv")
    assert fields == ["protocol", "N", "t", "gamma", "delta_gamma",
                      "bound_HL", "bound_QNL", "purity"]
    assert any("preset = rb87" in line for line in header)
    cat_100 = [r for r in rows if r["protocol"] == "cat" and r["N"] == "100"]
    assert float(cat_100[0]["delta_gamma"]) == pytest.approx(0.01, rel=1e-9)
    single = [r for r in rows if r["protocol"] == "ramsey"]
    assert len(single) == 7
    _, _, slope_rows = read_csv(tmp_path / "bounds_slopes.csv")
    slopes = {r["protocol"]: float(r["loglog_slope"]) for r in slope_rows}
    assert slopes["ramsey"] == pytest.approx(-0.5, abs=0.02)
    assert slopes["cat"] == pytest.approx(-1.0, abs=0.02)
    assert slopes["enhanced"] == pytest.approx(-1.5, abs=0.02)
    index = (tmp_path / "bounds_index.json").read_text()
    assert "bounds.csv" in index


def test_bounds_single_n(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sweep]\nn_values = 10\n")
    assert cli.main(["bounds", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "bounds.csv")
    assert len([r for r in rows if r["protocol"] == "cat"]) == 1


def test_scaling_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[species]\npreset = typical\n\n[sweep]\nq_values = 1 2 inf\n")
    rc = cli.main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "exponents.csv")
    by_q = {r["q"]: r for r in rows}
    assert by_q["2.0"]["xi_1d_exact"] == "7/6"
    assert by_q["2.0"]["xi_2d_exact"] == "1"
    assert by_q["2.0"]["xi_3d_exact"] == "9/10"
    assert by_q["inf"]["xi_1d_exact"] == "3/2"
    _, _, crit = read_csv(tmp_path / "critical_numbers.csv")
    one_d = [r for r in crit if r["d"] == "1" and r["q"] == "2.0"][0]
    assert float(one_d["n_lower"]) == pytest.approx(2.0, rel=0.12)
    assert float(one_d["n_upper"]) == pytest.approx(1e6, rel=0.12)
    three_d = [r for r in crit if r["d"] == "3" and r["q"] == "2.0"][0]
    assert three_d["n_upper"] == ""
    assert float(three_d["n_lower"]) == pytest.approx(1700, rel=0.12)


def test_counting_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sweep]\nsigma_over_sqrtn = 0 1\ncounting_n = 100\ntrials = 20000\n"
                       "\n[protocol]\nseed = 5\n")
    rc = cli.main(["counting", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "counting.csv")
    quiet = [r for r in rows if float(r["sigma"]) == 0.0][0]
    assert float(quiet["delta_gamma_analytic"]) == pytest.approx(0.1, rel=1e-9)
    noisy = [r for r in rows if float(r["sigma"]) > 0.0][0]
    assert float(noisy["delta_gamma_analytic"]) == \
        pytest.approx(0.1 * math.sqrt(3.0), rel=1e-9)
    first = (tmp_path / "counting.csv").read_bytes()
    assert cli.main(["counting", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "counting.csv").read_bytes() == first  # same seed: same bytes


@pytest.mark.parametrize("gamma", [1e-306, 1e-307])
def test_bounds_at_a_tiny_gamma_writes_finite_values(tmp_path, gamma):
    # t = 0.1/(gamma N) is near 1e302: no row may hold a nan, an infinite time or
    # a zero bound, and the quadratic rows' gamma t N and delta_gamma t are those
    # of gamma = 1
    def run(out, gamma):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[protocol]\ngamma = {gamma!r}\n\n[sweep]\nn_values = 8 4096\n")
        assert cli.main(["bounds", "--config", str(cfgfile), "--out", str(out)]) == 0
        return read_csv(out / "bounds.csv")[2], read_csv(out / "quadratic_trace.csv")[2]

    rows, trace = run(tmp_path / "tiny", gamma)
    ref_rows, ref_trace = run(tmp_path / "one", 1.0)
    for r in rows + trace:
        t, delta = float(r["t"]), float(r["delta_gamma"])
        assert 0.0 < t < math.inf and 0.0 < delta < math.inf
    for r in rows:
        assert float(r["bound_HL"]) > 0.0 and float(r["bound_QNL"]) > 0.0
    quadratic = [(r, ref) for r, ref in zip(rows + trace, ref_rows + ref_trace)
                 if r.get("protocol", "quadratic") == "quadratic"]
    assert len(quadratic) == 2 + 24
    for r, ref in quadratic:
        assert float(r["t"]) * gamma == pytest.approx(float(ref["t"]), rel=1e-12)
        assert float(r["delta_gamma"]) * float(r["t"]) == \
            pytest.approx(float(ref["delta_gamma"]) * float(ref["t"]), rel=1e-9)


@pytest.mark.parametrize("sigma_over_sqrtn", ["1e152", "1e153"])
def test_counting_at_a_large_noise_writes_finite_values(tmp_path, sigma_over_sqrtn):
    # sigma^2 overflowed at 1e153; at 1e152 the Monte Carlo's s^2 times its
    # sum of squared normals did
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[sweep]\nsigma_over_sqrtn = 0 {sigma_over_sqrtn}\n")
    assert cli.main(["counting", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "counting.csv")
    for r in rows:
        mc, analytic = float(r["delta_gamma_mc"]), float(r["delta_gamma_analytic"])
        assert math.isfinite(analytic) and abs(mc - analytic) < 3 * float(r["mc_stderr"])


def test_counting_header_reruns_the_same_bytes(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(INLINE + "\n[sweep]\nsigma_over_sqrtn = 0 1\ncounting_n = 100\n"
                       "trials = 2000\n\n[protocol]\nseed = 11\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["counting", "--config", str(cfgfile), "--out", str(first)]) == 0
    header, _, _ = read_csv(first / "counting.csv")
    assert header[:2] == ["becmetrology counting", "resolved configuration:"]
    resolved = tmp_path / "resolved.cfg"
    resolved.write_text("\n".join(header[2:]) + "\n")
    assert cli.main(["counting", "--config", str(resolved), "--out", str(second)]) == 0
    for name in ("counting.csv", "counting_index.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_condensate_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[grid]\npoints = 256\n\n[sweep]\nn_over_nl = 100 180 320\n")
    rc = cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    _, _, eta_rows = read_csv(tmp_path / "eta_sweep.csv")
    assert len(eta_rows) == 3
    mid = eta_rows[1]
    assert abs(float(mid["rel_err"])) < 0.05
    assert float(mid["local_slope"]) == pytest.approx(-1.0 / 3.0, abs=0.05)
    _, _, ov_rows = read_csv(tmp_path / "overlap.csv")
    assert float(ov_rows[0]["overlap_abs"]) == pytest.approx(1.0, abs=1e-9)
    assert abs(float(ov_rows[-1]["overlap_abs"]) - float(ov_rows[-1]["model_abs"])) < 0.02
    _, _, loss_rows = read_csv(tmp_path / "loss_budget.csv")
    assert float(loss_rows[0]["inverse_ratio"]) == pytest.approx(19.0, rel=0.20)
    # the index records the two-mode step count, the points it ran on and
    # its measured splitting error against the tolerance
    index = json.loads((tmp_path / "condensate_index.json").read_text())
    two_mode = index["two_mode"]
    assert (two_mode["steps"], two_mode["points"], two_mode["tolerance"]) == (100, 256, 1e-6)
    assert 0.0 < two_mode["error"] <= two_mode["tolerance"]
    names = ("eta_sweep.csv", "overlap.csv", "loss_budget.csv", "condensate_index.json")
    first = [(tmp_path / name).read_bytes() for name in names]
    assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first  # same bytes


def test_default_condensate_run_passes_its_validity_checks(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["condensate", "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("n_over_nl", ["1 3", "10 30"])
def test_condensate_runs_near_the_lower_critical_number(tmp_path, n_over_nl):
    # near N_L the largest V + g rho, which the step guard of the two-mode
    # evolution reads, lies well above mu
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[sweep]\nn_over_nl = {n_over_nl}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    _, _, ov_rows = read_csv(tmp_path / "overlap.csv")
    assert float(ov_rows[-1]["norm1"]) == pytest.approx(1.0, abs=1e-6)
    # N = N_L itself lies below the Thomas-Fermi regime that eta_n_tf assumes;
    # the index says so for each row of the sweep instead of a warning
    _, _, eta_rows = read_csv(tmp_path / "eta_sweep.csv")
    regimes = json.loads((tmp_path / "condensate_index.json").read_text())["regimes"]
    assert [r["N"] for r in regimes] == [float(row["N"]) for row in eta_rows]
    assert [r["regime"] for r in regimes] == \
        (["bare", "intermediate"] if n_over_nl == "1 3" else ["intermediate"] * 2)


def test_condensate_fails_fast_on_a_stalled_ground_state(tmp_path, monkeypatch, capsys):
    # on 4096 points the residuals at N/N_L = 0.01 and 1 stall on a round-off
    # floor above 1e-10; a shorter stall limit keeps the test quick
    monkeypatch.setattr(gp, "_STALL_ITERATIONS", 200)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[grid]\npoints = 4096\n\n[sweep]\nn_over_nl = 0.01 1 100\n")
    out = tmp_path / "out"
    assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(out)]) == 3
    assert "the residual has not halved since iteration" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_condensate_rejects_unsolvable_traps(tmp_path):
    hard = tmp_path / "hard.cfg"
    hard.write_text("[trap]\nd = 1\nq = hard\n")
    assert cli.main(["condensate", "--config", str(hard), "--out", str(tmp_path)]) == 2
    two_d = tmp_path / "2d.cfg"
    two_d.write_text("[trap]\nd = 2\nq = 2\n")
    assert cli.main(["condensate", "--config", str(two_d), "--out", str(tmp_path)]) == 2


def test_condensate_without_signal_fails_before_solving(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise AssertionError("a ground state was solved")

    monkeypatch.setattr(cli.gp, "ground_states", explode)
    flat = tmp_path / "flat.cfg"
    flat.write_text("[species]\nmass_u = 86.909\na11_nm = 5.0\na22_nm = 5.0\na12_nm = 5.0\n")
    assert cli.main(["condensate", "--config", str(flat), "--out", str(tmp_path)]) == 2
    assert "configuration error: no relative-phase signal" in capsys.readouterr().err
    assert not (tmp_path / "eta_sweep.csv").exists()


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise gp.ConvergenceError("nope", residual=1.0)

    monkeypatch.setattr(cli.gp, "ground_states", explode)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sweep]\nn_over_nl = 100 180 320\n")
    assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert no_outputs(tmp_path)


def test_two_mode_step_failure_exit_code(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise gp.StepSizeError("no step count up to 51200 brings the two-mode splitting "
                               "error within 1e-06")

    monkeypatch.setattr(cli.gp, "evolve_two_mode_to_tolerance", explode)
    assert cli.main(["condensate", "--out", str(tmp_path)]) == 3
    assert "two-mode evolution failed: no step count up to 51200" in capsys.readouterr().err
    assert no_outputs(tmp_path)  # not even eta_sweep.csv, computed before the ladder ran


def test_two_mode_norm_drift_exit_code(tmp_path, monkeypatch, capsys):
    # a lossless run whose norms drift is a StepSizeError, which exits 3
    ifft = gp._ifft
    monkeypatch.setattr(gp, "_ifft", lambda a, fct, out: ifft(a, fct * (1.0 + 1e-6), out))
    monkeypatch.setattr(gp, "_MAX_TWO_MODE_STEPS", 200)
    assert cli.main(["condensate", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "two-mode evolution failed: no step count up to 200" in err
    assert "norm drift" in err
    assert no_outputs(tmp_path)


@pytest.mark.parametrize("trap", ["rho0_um = 1e-157", "q = hard\nr0_um = 1e-160"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_trap_out_of_float_range_is_a_configuration_error(tmp_path, capsys, command, trap):
    # a length whose square underflows in the trap frequencies ended every
    # command in a ZeroDivisionError
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[trap]\n{trap}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "configuration error: invalid configuration value: the trap's scales are out " \
        "of float range" in capsys.readouterr().err
    assert not out.exists()


RB87_INLINE = "[species]\nmass_u = 86.909180\na11_nm = 5.31\na22_nm = 5.0\na12_nm = 5.155\n"


def test_condensate_runs_a_lossless_species(tmp_path):
    # both loss keys default to 0, and 1/ratio divided by zero
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(RB87_INLINE + "\n[grid]\npoints = 256\n\n[sweep]\nn_over_nl = 100 180\n")
    assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "loss_budget.csv")
    assert (float(rows[0]["ratio"]), float(rows[0]["inverse_ratio"])) == (0.0, math.inf)


def test_condensate_refuses_a_vanishing_coupling(tmp_path, monkeypatch, capsys):
    # g11 = 4 pi hbar^2 a11 / m underflows to 0, and tf_profile divided by it
    def explode(*args, **kwargs):
        raise AssertionError("a ground state was solved")

    monkeypatch.setattr(cli.gp, "ground_states", explode)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(RB87_INLINE.replace("5.31", "1e-271") +
                       "loss12_cm3_per_s = 1e-13\nloss22_cm3_per_s = 1e-13\n")
    assert cli.main(["condensate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "configuration error: the coupling 4 pi hbar^2 a / m = 0" in capsys.readouterr().err
    assert no_outputs(tmp_path)


SMALL = ("[grid]\npoints = 256\n\n[sweep]\nn_values = 8 16\nn_over_nl = 100 180\n"
         "counting_n = 100\ntrials = 2000\n")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_commands_compute_and_main_writes(tmp_path, monkeypatch, command):
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    monkeypatch.chdir(work)
    tables, _ = cli.COMMANDS[command](cli.config_from_text(SMALL))
    assert not list(work.iterdir())  # a command writes no file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(SMALL)
    assert cli.main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    index = json.loads((out / f"{command}_index.json").read_text())
    assert index["outputs"] == list(tables)
    assert sorted(p.name for p in out.iterdir()) == sorted([*tables, f"{command}_index.json"])


@pytest.mark.parametrize("q, rows", [("2", 6), ("hard", 3)])
def test_scaling_lists_each_critical_number_once(tmp_path, q, rows):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[trap]\nq = {q}\n")
    assert cli.main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, _, crit = read_csv(tmp_path / "critical_numbers.csv")
    keys = [(r["d"], r["q"]) for r in crit]
    assert len(keys) == len(set(keys)) == rows
