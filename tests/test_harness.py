"""Config layer, pipeline runners, CLI contract."""

import csv
import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ldplab import (Box, ConfigError, GridFunction, config_from_string,
                    default_config, load_config, run_chebyshev, run_entropy,
                    run_hypotheses, run_lft, run_mosco_pipeline, run_pressure,
                    run_subadditive, run_tiling, verify_duality,
                    write_grid_csv)
from ldplab.cli import main


MINI = """
[model]
kind = iid
atoms = -1, 1

[grids]
lambda_min = -3
lambda_max = 3
lambda_points = 61

[volumes]
n_list = 20, 40

[entropy]
radii = 0.2, 0.1
epsilon = 0.5

[verify]
x_values = 0, 0.3
radius = 0.1
gap_tolerance = 0.2

[subadditive]
m_values = 2, 4, 8
n_values = 32, 64, 128
center = 0
radius = 0.75
epsilon = 0.7
lambda_values = 0.5

[chebyshev]
events = 10
max_n = 30

[hypotheses]
m_sites = 2
box_side = 8
events = 20

[run]
out = {out}
"""


def mini_cfg(tmp_path, extra=""):
    text = MINI.format(out=tmp_path / "out")
    if extra:
        text = text.replace("[grids]", extra + "\n[grids]")
    return config_from_string(text)


def strict_json(path):
    def no_specials(token):
        raise AssertionError(f"non-finite literal {token} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=no_specials)


# ---------------------------------------------------------------------------
# config layer


def test_defaults_fill_every_section():
    cfg = config_from_string("")
    model = cfg.build_model()
    assert sorted(float(a) for a in model.atoms[:, 0]) == [-1.0, 1.0]
    assert (cfg.seed, cfg.mode, cfg.quiet) == (0, "exact", False)
    grid = cfg.lambda_grid()
    assert len(grid) == 201 and grid[0] == -5.0 and grid[-1] == 5.0
    assert cfg.volumes() == [50, 100, 200, 400]
    assert cfg.entropy_radii() == [0.2, 0.1, 0.05, 0.025]
    assert cfg.epsilon() == 0.1 and cfg.delta() == 0.01


def test_default_config_equals_empty_string():
    a, b = default_config(), config_from_string("")
    assert a.volumes() == b.volumes()
    assert np.array_equal(a.lambda_grid(), b.lambda_grid())


def test_affine_keys_mean_scale_sigma_plus_offset():
    cfg = config_from_string(
        "[model]\nkind = iid\natoms = -1, 1\nscale = 2\noffset = 5\n")
    model = cfg.build_model()
    assert sorted(float(a) for a in model.atoms[:, 0]) == [3.0, 7.0]


def test_decoupling_tables_override_model_defaults():
    cfg = config_from_string("[model]\nkind = iid\natoms = -1, 1\n"
                             "g_table = 2:1.5, 4:2\nc_table = 0.25\n")
    model = cfg.build_model()
    assert model.decoupling.g(2) == 1.5
    # past the last threshold the table holds its final value
    assert model.decoupling.g(4) == model.decoupling.g(8) == 2.0
    assert model.decoupling.c(3) == 0.25


def test_model_kinds_from_config():
    kinds = {
        "[model]\nkind = markov\natoms = -1, 1\n"
        "transition = 0.7, 0.3; 0.4, 0.6\n": "markov(atoms=2,delta=0.3)",
        "[model]\nkind = conditioned\natoms = -1, 0, 1\nblock = 2\n"
        "keep = 1, 2\n": "conditioned(base=iid,j=2,|K|=2)",
        "[model]\nkind = product\natoms = -1, 1\nblock = 3\n":
            "product(base=iid,j=3)",
    }
    for text, described in kinds.items():
        assert config_from_string(text).build_model().describe() == described


def test_semicolon_separates_rows_and_hash_starts_comments():
    chain = config_from_string(
        "[model]\nkind = markov\natoms = -1, 1\n"
        "transition = 0.7, 0.3 ; 0.4, 0.6  # two rows\n").build_model()
    assert chain.transition.tolist() == [[0.7, 0.3], [0.4, 0.6]]
    planar = config_from_string(
        "[model]\nkind = iid\natoms = (0, 0) ; (1, 0)  # planar\n"
        ).build_model()
    assert planar.atoms.tolist() == [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("text,fragment", [
    ("[model]\nkind = warp\n", "[model] kind"),
    ("[model]\nkind = conditioned\natoms = -1, 1\nblock = 2\nkeep = 5\n",
     "out of range"),
    ("[model]\nkind = iid\natoms = -1, 1\nweights = 0.3\n",
     "1 weights for 2 atoms"),
    ("[grids]\nlambda_min = 5\nlambda_max = -5\n", "lambda_max > lambda_min"),
    ("[volumes]\nn_list = 50, 50\n", "strictly increasing"),
    ("[run]\nmode = turbo\n", "[run] mode"),
    ("[entropy]\nepsilon = 1.5\n", "(0, 1)"),
    ("[model]\nkind = iid\natoms = 1, 1\n", "[model] atoms"),
    ("[model]\nkind = iid\natoms = (0, 0); (1)\n", "[model] atoms"),
    ("[model]\nkind = iid\natoms = -1, 1\nweights = 2, -1\n",
     "[model] weights"),
])
def test_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as exc:
        cfg = config_from_string(text)
        cfg.build_model()
        cfg.lambda_grid()
        cfg.volumes()
        cfg.epsilon()
    assert fragment in str(exc.value)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


# ---------------------------------------------------------------------------
# runners


def test_verify_duality_writes_artifacts(tmp_path):
    cfg = mini_cfg(tmp_path)
    result = verify_duality(cfg)
    assert result.status == "pass"
    names = [p.split("/")[-1] for p in map(str, result.artifacts)]
    assert names == ["pressure_limit.csv", "duality.csv", "verify.json"]
    with open(tmp_path / "out" / "duality.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "s_est", "minus_pstar", "gap", "tolerance",
                       "status"]
    assert len(rows) == 3
    doc = strict_json(tmp_path / "out" / "verify.json")
    assert doc["schema_version"] == "1"
    assert {"seed", "mode", "reports"} <= set(doc)


def test_exact_runs_are_byte_identical(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        cfg = mini_cfg(tmp_path / sub)
        verify_duality(cfg)
        run_chebyshev(cfg)
        run_pressure(cfg)
        base = tmp_path / sub / "out"
        blobs.append([(name, (base / name).read_bytes())
                      for name in ("pressure_limit.csv", "duality.csv",
                                   "verify.json", "chebyshev.csv",
                                   "pressure_n40.csv")])
    assert blobs[0] == blobs[1]


def test_run_tiling_schedule_passes(tmp_path):
    result = run_tiling(mini_cfg(tmp_path))
    assert result.status == "pass"
    with open(tmp_path / "out" / "tiling.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "n", "g", "ell", "k", "remainder",
                       "margin_sites", "rho"]
    assert len(rows) == 4


def test_run_tiling_flags_non_vanishing_density(tmp_path):
    # a single coarse scale keeps rho at 0.375, above the 0.2 threshold
    text = MINI.format(out=tmp_path / "out").replace(
        "m_values = 2, 4, 8", "m_values = 2").replace(
        "n_values = 32, 64, 128", "n_values = 16")
    result = run_tiling(config_from_string(text))
    assert result.status == "fail"
    failing = [r for r in result.reports if r.status == "fail"]
    assert [r.inequality for r in failing] == \
        ["rho-eventually-below-thresholds"]


def test_tiling_reports_name_the_worst_pair(tmp_path, monkeypatch):
    # a tiler that, on the (4, 64) pair only, slides the second sub-box
    # three sites back (off the step-2 sublattice, across the gap) and loses
    # a margin site
    import ldplab.harness as harness
    real_tile = harness.tile

    def faulty(n, m, g, ell, dim, corner=None):
        t = real_tile(n, m, g, ell, dim, corner)
        if (m, n) != (4, 64):
            return t
        first, second, *rest = t.sub_boxes
        moved = Box(tuple(c - 3 for c in second.corner), second.side,
                    second.dim)
        return dataclasses.replace(t, sub_boxes=(first, moved, *rest),
                                   margin=t.margin[1:])

    monkeypatch.setattr(harness, "tile", faulty)
    text = MINI.format(out=tmp_path / "out").replace(
        "atoms = -1, 1", "atoms = -1, 1\nkind = product\nblock = 2").replace(
        "kind = iid\n", "", 1)
    result = run_tiling(config_from_string(text))
    by_name = {r.inequality: r for r in result.reports}
    for name in ("tiling-partition", "tiling-gap-separation",
                 "tiling-sublattice-alignment"):
        assert by_name[name].status == "fail"
        assert by_name[name].details["worst_at"] == {"m": 4, "n": 64}
    doc = strict_json(tmp_path / "out" / "tiling.json")
    assert doc["reports"][0]["details"]["worst_at"] == {"m": 4, "n": 64}


def test_run_entropy_monotonicity_report(tmp_path):
    result = run_entropy(mini_cfg(tmp_path))
    assert result.status == "pass"
    assert any(r.inequality == "entropy-radius-monotonicity"
               for r in result.reports)
    with open(tmp_path / "out" / "entropy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "radius", "n", "log_prob_over_volume", "mode"]
    # x values times radii times volume schedule
    assert len(rows) == 1 + 2 * 2 * 2


def test_run_chebyshev(tmp_path):
    result = run_chebyshev(mini_cfg(tmp_path))
    assert result.status == "pass"
    assert [r.inequality for r in result.reports] == ["chebyshev-upper"]
    assert result.reports[0].events == 10
    with open(tmp_path / "out" / "chebyshev.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 11


def test_run_subadditive(tmp_path):
    result = run_subadditive(mini_cfg(tmp_path))
    assert result.status == "pass"
    with open(tmp_path / "out" / "subadditive.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"two-scale", "pressure"}


def test_run_hypotheses_markov_certificate(tmp_path):
    text = MINI.format(out=tmp_path / "out").replace(
        "kind = iid\natoms = -1, 1",
        "kind = markov\natoms = -1, 1\ntransition = 0.7, 0.3; 0.4, 0.6")
    result = run_hypotheses(config_from_string(text))
    assert result.status == "pass"
    doc = strict_json(tmp_path / "out" / "hypotheses.json")
    cert = doc["chain_certificate"]
    assert cert["cost"] <= cert["cost_default"]
    assert cert["cost"] == pytest.approx(
        -math.log(min(cert["kappa_by_gap"].values())), rel=1e-12)


def test_run_pressure_artifacts(tmp_path):
    result = run_pressure(mini_cfg(tmp_path))
    assert result.status == "pass"
    names = [p.split("/")[-1] for p in map(str, result.artifacts)]
    assert names == ["pressure_limit.csv", "pressure_n40.csv",
                     "pressure.json"]


def test_run_mosco_pipeline(tmp_path):
    text = """
[model]
kind = iid
atoms = 0, 1

[run]
out = {out}
""".format(out=tmp_path / "out")
    result = run_mosco_pipeline(config_from_string(text))
    assert result.status == "pass"
    doc = strict_json(tmp_path / "out" / "mosco.json")
    assert {"m2", "m1", "properness", "mass_schedule"} <= set(doc["mosco"])


def test_run_mosco_rejects_flat_weights(tmp_path):
    text = """
[model]
kind = iid
atoms = 0, 1

[mosco]
count = 4
weight_ratio = 0.999

[run]
out = {out}
""".format(out=tmp_path / "out")
    with pytest.raises(ConfigError) as exc:
        run_mosco_pipeline(config_from_string(text))
    assert "stage 1: mass" in str(exc.value)


def test_run_lft_conjugates_curve(tmp_path):
    cfg = mini_cfg(tmp_path)
    g = np.linspace(-3.0, 3.0, 61)
    curve_path = tmp_path / "curve.csv"
    write_grid_csv(curve_path, GridFunction((g,), np.log(np.cosh(g))))
    result = run_lft(cfg, str(curve_path))
    assert result.status == "pass"
    names = [p.split("/")[-1] for p in map(str, result.artifacts)]
    assert names == ["conjugate.csv", "lft.json"]


def test_json_sidecars_record_seed_and_mode(tmp_path):
    cfg = mini_cfg(tmp_path)
    run_tiling(cfg)
    run_chebyshev(cfg)
    g = np.linspace(-2.0, 2.0, 41)
    curve_path = tmp_path / "curve.csv"
    write_grid_csv(curve_path, GridFunction((g,), g * g / 2))
    run_lft(cfg, str(curve_path))
    for name in ("tiling.json", "chebyshev.json", "lft.json"):
        payload = strict_json(tmp_path / "out" / name)
        assert {"schema_version", "seed", "mode", "reports"} <= set(payload)
        assert payload["seed"] == cfg.seed
        assert payload["mode"] == cfg.mode


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_mini(tmp_path, extra=""):
    path = tmp_path / "mini.ini"
    text = MINI.format(out=tmp_path / "out")
    if extra:
        text += extra
    path.write_text(text)
    return str(path)


def test_cli_verify_passes_and_reports(tmp_path):
    code, out, err = run_cli(["verify", "--config", write_mini(tmp_path)])
    assert code == 0
    assert err == ""
    assert "verify: pass" in out
    assert "[pass] duality-gap:" in out
    assert "wrote" in out


def test_cli_quiet_suppresses_reports(tmp_path):
    code, out, _ = run_cli(["verify", "--quiet", "--config",
                            write_mini(tmp_path)])
    assert code == 0
    assert out == ""


def test_cli_budget_exhaustion_is_inconclusive(tmp_path):
    path = write_mini(tmp_path)
    text = (tmp_path / "mini.ini").read_text().replace(
        "atoms = -1, 1", "atoms = -1, 1\nbudget = 5", 1)
    (tmp_path / "mini.ini").write_text(text)
    code, _, err = run_cli(["entropy", "--config", path])
    assert code == 2
    assert "inconclusive" in err


def test_cli_budget_holds_under_scale(tmp_path):
    path = write_mini(tmp_path)
    text = (tmp_path / "mini.ini").read_text().replace(
        "atoms = -1, 1",
        "atoms = -1, 0, 1\nbudget = 10\nscale = 2.0", 1).replace(
        "n_list = 20, 40", "n_list = 6", 1)
    (tmp_path / "mini.ini").write_text(text)
    code, _, err = run_cli(["pressure", "--config", path])
    assert code == 2
    assert "budget 10" in err


def test_cli_improper_input_fails(tmp_path):
    bad = tmp_path / "improper.csv"
    bad.write_text("x_or_lambda,value\n0.0,inf\n1.0,inf\n")
    code, _, err = run_cli(["lft", "--config", write_mini(tmp_path),
                            str(bad)])
    assert code == 1
    assert "improper.csv" in err


def test_cli_config_errors_exit_three(tmp_path):
    code, _, err = run_cli(["verify", "--config", "/tmp/does/not/exist.ini"])
    assert code == 3
    assert "configuration error" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nkind = warp\n")
    code2, _, err2 = run_cli(["tiling", "--config", str(bad)])
    assert code2 == 3
    assert "[model] kind" in err2


@pytest.mark.parametrize("command,text,fragment", [
    ("verify", "[model]\nkind = iid\nkind = markov\n", "already exists"),
    ("verify", "kind = iid\n", "no section headers"),
    ("tiling", "[model]\natoms = 1, 1\n", "[model] atoms"),
    ("verify", "[verify]\nradius = -0.1\n[volumes]\nn_list = 5\n",
     "[verify] radius"),
    ("chebyshev", "[chebyshev]\nevents = 0\n", "[chebyshev] events"),
    ("chebyshev", "[chebyshev]\nevents = -2\n", "[chebyshev] events"),
    ("chebyshev", "[chebyshev]\nmax_n = 0\n", "[chebyshev] max_n"),
])
def test_cli_malformed_inputs_exit_three(tmp_path, command, text, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(text + f"[run]\nout = {tmp_path / 'out'}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 3
    assert "configuration error" in err and fragment in err


@pytest.mark.parametrize("config", ["rademacher", "doeblin"])
@pytest.mark.parametrize("command", ["pressure", "verify", "entropy"])
def test_cli_monte_carlo_pipelines_repeat_byte_for_byte(tmp_path, config,
                                                        command):
    # the shipped config with 500 samples (4000 shipped) keeps the suite short
    shipped = Path(__file__).resolve().parent.parent / "configs"
    path = tmp_path / f"{config}.ini"
    path.write_text((shipped / f"{config}.ini").read_text().replace(
        "[run]\n", "[run]\nsamples = 500\n", 1))
    argv = [command, "--config", str(path), "--mode", "mc",
            "--out", str(tmp_path / "out")]
    runs = []
    for _ in range(2):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), err
        written = [line[len("wrote "):] for line in out.splitlines()
                   if line.startswith("wrote ")]
        assert written
        runs.append({name: Path(name).read_bytes() for name in written})
    assert runs[0] == runs[1]


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = write_mini(tmp_path)
    other = tmp_path / "elsewhere"
    code, _, _ = run_cli(["verify", "--config", cfg_path, "--seed", "9",
                          "--out", str(other), "--quiet"])
    assert code == 0
    doc = strict_json(other / "verify.json")
    assert doc["seed"] == 9
