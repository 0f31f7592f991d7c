"""Pressure computations against closed forms and transfer-matrix oracles."""

import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ldplab import (PressureCurve, block_pressure_identity_check,
                    compute_pressure_curve, conditioned, iid_field,
                    markov_field, pressure_finite, pressure_finite_grid,
                    pressure_limit, pressure_mc, pressure_subadditivity_check,
                    product_of_marginals, read_grid_csv, residual_beta_check,
                    scalarize, tile, write_curve_csv)
from ldplab import pressure as pressure_module

from conftest import DOEBLIN_P, fresh_doeblin, fresh_rademacher
from oracles import (finite_pressure_per_tilt, iid_block_pressure,
                     tilted_chain_pressure)


# ---------------------------------------------------------------------------
# closed forms


def test_rademacher_limit_is_log_cosh(rademacher):
    for lam in np.linspace(-4.0, 4.0, 33):
        want = math.log(math.cosh(lam)) if lam else 0.0
        assert pressure_limit(rademacher, lam) == pytest.approx(
            want, abs=1e-12)


def test_zero_tilt_is_exactly_zero(rademacher, biased3, doeblin):
    for model in (rademacher, biased3, doeblin):
        assert pressure_limit(model, 0.0) == 0.0
        assert pressure_finite(model, 7, 0.0) == 0.0


def test_biased_limit_matches_direct_moment(biased3):
    for lam in (-2.0, -0.3, 0.8, 3.0):
        want = math.log(0.2 * math.exp(-lam) + 0.3 + 0.5 * math.exp(lam))
        assert pressure_limit(biased3, lam) == pytest.approx(want, rel=1e-13)


def test_iid_finite_volume_equals_limit(rademacher):
    # independent sites: the finite pressure has no volume correction
    p = pressure_limit(rademacher, 0.9)
    for n in (1, 5, 17):
        assert pressure_finite(rademacher, n, 0.9) == pytest.approx(
            p, abs=1e-14)


def test_markov_limit_matches_perron_closed_form(doeblin):
    atoms = (-1.0, 1.0)
    frozen = {0.5: 0.1430539326787366,
              1.0: 0.5384759577874928,
              -2.0: 1.6478508981200082}
    for lam, pinned in frozen.items():
        want = tilted_chain_pressure(DOEBLIN_P, atoms, lam)
        got = pressure_limit(doeblin, lam)
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(pinned, abs=1e-12)


def test_markov_finite_volume_error_decays_like_inverse_n(doeblin):
    p = pressure_limit(doeblin, 1.0)
    ns = (8, 16, 32, 64)
    errs = [abs(pressure_finite(doeblin, n, 1.0) - p) for n in ns]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert 0.45 < b / a < 0.55
    # n * err converges to the boundary constant
    scaled = [n * e for n, e in zip(ns, errs)]
    assert abs(scaled[-1] - scaled[-2]) < 1e-9


# ---------------------------------------------------------------------------
# the tilt grid in one pass


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _planar():
    return iid_field([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                      (Fraction(-3, 10), Fraction(7, 10))], [0.5, 0.3, 0.2])


def test_exact_finite_curve_equals_per_tilt_loop(biased3, doeblin):
    grid = np.linspace(-3.0, 3.0, 61)           # holds an exact 0
    plane = np.array([(a, b) for a in grid[::6] for b in grid[::6]])
    for model, lams, n in ((biased3, grid, 30), (doeblin, grid, 25),
                           (conditioned(biased3, 3, [0, 2]), grid, 12),
                           (_planar(), plane, 5)):
        curve = compute_pressure_curve(model, lams, n=n)
        law = model.sum_law(n)
        pts = lams if lams.ndim > 1 else lams[:, None]
        assert _bits(curve.values) == _bits(
            [pressure_finite(model, n, lam) for lam in pts])
        assert _bits(curve.values) == _bits(
            [finite_pressure_per_tilt(law, lam) for lam in pts])
        assert curve.values[np.flatnonzero(~np.any(pts, axis=1))].tolist() \
            == [0.0]


AXIS = np.linspace(-2.0, 2.0, 9)


@pytest.mark.parametrize("model,n,lams", [
    (fresh_doeblin(), 40, np.linspace(-4.0, 4.0, 81)),
    (_planar(), 5, np.array([(a, b) for a in AXIS for b in AXIS])),
])
def test_several_row_blocks_give_the_same_pressures(monkeypatch, model, n,
                                                    lams):
    whole = pressure_finite_grid(model, n, lams)
    seen = []
    inner = pressure_module.logsumexp

    def recording(values, axis=None):
        seen.append(np.shape(values))
        return inner(values, axis=axis)

    support = len(model.sum_law(n).logp)
    monkeypatch.setattr(pressure_module, "GRID_BLOCK_CELLS", 7 * support)
    monkeypatch.setattr(pressure_module, "logsumexp", recording)
    blocked = pressure_finite_grid(model, n, lams)
    assert _bits(blocked) == _bits(whole)
    # the zero tilt is skipped; 80 live rows in blocks of 7
    assert seen == [(7, support)] * 11 + [(3, support)]


def test_grid_temporary_stays_within_the_block_constant(monkeypatch):
    # 40000 atoms: a 201-point grid at once would need 201 x 40000 cells
    wide = iid_field(list(range(40000)), [1 / 40000] * 40000)
    law = wide.sum_law(1)
    grid = np.linspace(-1e-3, 1e-3, 201)
    cells = []
    inner = pressure_module.logsumexp

    def recording(values, axis=None):
        cells.append(np.size(values))
        return inner(values, axis=axis)

    monkeypatch.setattr(pressure_module, "logsumexp", recording)
    tracemalloc.start()
    try:
        values = pressure_finite_grid(wide, 1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(law.logp) * len(grid) > 10 * pressure_module.GRID_BLOCK_CELLS
    assert len(cells) > 1
    assert max(cells) <= pressure_module.GRID_BLOCK_CELLS
    # every temporary of a step together stays below a quarter of the
    # single (201 x 40000) float array an unblocked pass would hold
    assert peak < len(law.logp) * len(grid) * 8 / 4
    assert values[100] == 0.0


# ---------------------------------------------------------------------------
# block structure


def test_block_pressure_identity(biased3):
    for model in (product_of_marginals(biased3, 2),
                  conditioned(biased3, 3, [0, 2])):
        report = block_pressure_identity_check(model, [-1.0, 0.5, 2.0])
        assert report.status == "pass"
        assert report.worst_slack >= -1e-12


def test_block_identity_needs_native_side(biased3):
    model = product_of_marginals(biased3, 2)
    with pytest.raises(ValueError):
        block_pressure_identity_check(model, [0.5], j=3)


def test_conditioned_block_pressure_matches_enumeration(biased3):
    atoms = [Fraction(-1), Fraction(0), Fraction(1)]
    probs = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
    model = conditioned(biased3, 3, [1, 2])
    for lam in (-1.5, 0.7, 2.0):
        want = iid_block_pressure(atoms, probs, 3, [1, 2], lam)
        assert pressure_limit(model, lam) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# two-scale bound and residual moments


@pytest.mark.parametrize("lam", [-1.0, 0.5, 1.0])
def test_pressure_subadditivity_rademacher(rademacher, lam):
    report = pressure_subadditivity_check(rademacher, lam, 2, 32)
    assert report.status == "pass"
    assert report.details["rho"] == float(tile(32, 2, 0, 1, 1).rho)


@pytest.mark.parametrize("lam", [-1.0, 0.5, 1.0])
def test_pressure_subadditivity_doeblin(doeblin, lam):
    # gap 1 and coupling cost from the chain's own parameters
    report = pressure_subadditivity_check(doeblin, lam, 4, 64)
    assert report.status == "pass"
    assert report.details["gap"] == 1


def test_residual_beta_enumerates_all_assignments(rademacher):
    report = residual_beta_check(rademacher)
    assert report.status == "pass"
    assert report.details["assignments"] == "all 64 assignments on 6 sites"
    assert report.worst_slack > 1.0


def test_residual_beta_doeblin(doeblin):
    report = residual_beta_check(doeblin)
    assert report.status == "pass"


def test_residual_beta_rejects_planar_fields():
    planar = iid_field([(Fraction(0), Fraction(0)),
                        (Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(1))], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        residual_beta_check(planar)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_pressure_mc_interval_covers_exact_at_mild_tilt(rademacher):
    est, lo, hi = pressure_mc(rademacher, 8, 0.2, samples=4000, seed=7)
    exact = pressure_finite(rademacher, 8, 0.2)
    assert lo < hi
    assert lo <= exact <= hi
    assert lo <= est <= hi
    assert abs(est - exact) < 0.02


def test_pressure_mc_is_deterministic(rademacher):
    a = pressure_mc(rademacher, 8, 0.5, samples=500, seed=3)
    b = pressure_mc(rademacher, 8, 0.5, samples=500, seed=3)
    assert a == b


@pytest.mark.parametrize("model", [fresh_rademacher(),
                                   markov_field([-1, 1], DOEBLIN_P)])
def test_mc_curve_samples_once_and_equals_per_tilt_calls(model, monkeypatch):
    grid = np.array([-1.5, 0.0, 0.4, 2.0])
    rows = []
    sample_box = model.sample_box

    def counting(box, rng, samples):
        rows.append(samples)
        return sample_box(box, rng, samples)

    monkeypatch.setattr(model, "sample_box", counting)
    curve = compute_pressure_curve(model, grid, n=4, mode="mc", samples=300,
                                   seed=5)
    assert sum(rows) == 300
    for lam, value, ci in zip(grid, curve.values, curve.ci):
        assert _bits((value,) + tuple(ci)) == _bits(
            pressure_mc(model, 4, lam, samples=300, seed=5))
    # one tilt per block: every block replays the same bootstrap picks
    monkeypatch.setattr(pressure_module, "GRID_BLOCK_CELLS", 300)
    blocked = compute_pressure_curve(model, grid, n=4, mode="mc",
                                     samples=300, seed=5)
    assert _bits(blocked.values) == _bits(curve.values)
    assert _bits(blocked.ci) == _bits(curve.ci)


def test_mc_mode_requires_finite_volume(rademacher):
    with pytest.raises(ValueError):
        compute_pressure_curve(rademacher, np.linspace(-1, 1, 5), mode="mc")
    with pytest.raises(ValueError):
        compute_pressure_curve(rademacher, np.linspace(-1, 1, 5), mode="bogus")


# ---------------------------------------------------------------------------
# curves and files


def test_curve_csv_round_trip(rademacher, tmp_path):
    grid = np.linspace(-2.0, 2.0, 21)
    curve = compute_pressure_curve(rademacher, grid)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda_1", "value", "mode", "ci_low", "ci_high"]
    assert len(rows) == 22
    assert rows[1][2] == "exact" and rows[1][3] == ""
    # repr-formatted floats survive the trip bit for bit
    fn = read_grid_csv(path)
    assert np.array_equal(fn.grids[0], grid)
    assert np.array_equal(fn.values, curve.values)


def test_convexity_check_directions(rademacher):
    grid = np.linspace(-2.0, 2.0, 21)
    curve = compute_pressure_curve(rademacher, grid)
    assert curve.convexity_check().status == "pass"
    concave = PressureCurve(lams=grid, values=-grid ** 2, mode="exact",
                            model="synthetic", n=0, ci=None)
    report = concave.convexity_check()
    assert report.status == "fail"
    assert report.worst_slack == pytest.approx(-0.04, abs=1e-12)


def test_scalar_pressure_curve_projects_planar_fields():
    planar = iid_field([(Fraction(0), Fraction(0)),
                        (Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(1))], [0.5, 0.25, 0.25])
    grid = np.linspace(-1.0, 1.0, 9)
    curve = compute_pressure_curve(scalarize(planar, (1.0, 2.0)), grid)
    proj = scalarize(planar, (1.0, 2.0))
    for lam, val in zip(grid, curve.values):
        assert val == pressure_limit(proj, lam)
    # matches the direct planar pressure along the ray
    for lam, val in zip(grid, curve.values):
        assert val == pytest.approx(
            pressure_limit(planar, (lam, 2.0 * lam)), rel=1e-12)
