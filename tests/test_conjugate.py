"""Grid Legendre transforms against brute force and closed forms."""

import math

import numpy as np
import pytest

from ldplab import (GridFunction, ImproperFunctionError, biconjugate,
                    biconjugation_check, default_windows, fenchel_young_check,
                    lft, lft_at, mosco_m1_check, mosco_m2_check,
                    order_reversal_check, read_grid_csv,
                    uniform_properness_check, write_grid_csv)

from oracles import conjugate_brute, lft_brute


def logcosh_fn(lo=-5.0, hi=5.0, points=201):
    g = np.linspace(lo, hi, points)
    return GridFunction((g,), np.log(np.cosh(g)), name="p")


def random_max_affine(rng, n_points, pieces=6, span=5.0):
    grid = np.linspace(-span, span, n_points)
    slopes = rng.normal(size=pieces)
    inter = rng.normal(size=pieces)
    vals = np.max(slopes[None, :] * grid[:, None] + inter[None, :], axis=1)
    return GridFunction((grid,), vals)


# ---------------------------------------------------------------------------
# transform correctness


def test_quadratic_conjugate_is_quadratic():
    g = np.linspace(-4.0, 4.0, 81)
    q = GridFunction((g,), g * g / 2)
    got = lft(q, g).values
    # sup at lam = x exactly, and a - a/2 == a/2 in floats
    assert np.array_equal(got, g * g / 2)


def test_lft_matches_brute_force_bitwise_1d():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(5, 60))
        grid = np.linspace(-4, 4, n)
        vals = rng.normal(size=n) * rng.uniform(0.5, 3)
        if rng.random() < 0.3:
            vals[rng.integers(n)] = np.inf
        fn = GridFunction((grid,), vals)
        if not fn.proper:
            continue
        targets = np.linspace(-2, 2, int(rng.integers(3, 40)))
        assert np.array_equal(lft(fn, targets).values,
                              lft_brute(fn, targets))


def test_lft_matches_python_loop_oracle():
    rng = np.random.default_rng(9)
    fn = random_max_affine(rng, 41)
    targets = np.linspace(-2.5, 2.5, 23)
    want = conjugate_brute(fn.grids[0], fn.values, targets)
    assert lft(fn, targets).values == pytest.approx(want, abs=1e-13)


def test_lft_2d_matches_brute_and_separable_oracle():
    gx = np.linspace(-2.0, 2.0, 21)
    gy = np.linspace(-1.5, 1.5, 17)
    values = gx[:, None] ** 2 / 2 + np.abs(gy)[None, :]
    F = GridFunction((gx, gy), values)
    tx = np.linspace(-1.0, 1.0, 11)
    ty = np.linspace(-1.0, 1.0, 9)
    got = lft(F, (tx, ty)).values
    brute = lft_brute(F, (tx, ty))
    assert np.array_equal(np.isinf(got), np.isinf(brute))
    finite = np.isfinite(brute)
    assert got[finite] == pytest.approx(brute[finite], abs=1e-12)
    # separable functions conjugate coordinatewise
    sep = (lft(GridFunction((gx,), gx ** 2 / 2), tx).values[:, None]
           + lft(GridFunction((gy,), np.abs(gy)), ty).values[None, :])
    assert got[np.isfinite(sep)] == pytest.approx(
        sep[np.isfinite(sep)], abs=1e-12)


def test_lft_at_agrees_with_grid_transform():
    fn = logcosh_fn()
    xs = np.linspace(-1.0, 1.0, 51)
    assert np.array_equal(lft_at(fn, xs), lft(fn, xs).values)
    # scattered, unsorted, with duplicates
    pts = np.array([0.7, -0.3, 0.0, 0.7, 0.993, -0.993])
    want = conjugate_brute(fn.grids[0], fn.values, pts)
    assert np.array_equal(lft_at(fn, pts), want)


# ---------------------------------------------------------------------------
# inequality checks


def test_fenchel_young_exact_on_logcosh():
    fn = logcosh_fn()
    conj = lft(fn, np.linspace(-1, 1, 201), name="p*")
    report = fenchel_young_check(fn, conj)
    assert report.status == "pass"
    assert report.worst_slack == 0.0
    assert report.details["pairs"] == 201 * 201


def test_fenchel_young_exact_on_random_convex():
    rng = np.random.default_rng(5)
    for _ in range(25):
        fn = random_max_affine(rng, int(rng.integers(8, 80)))
        conj = lft(fn, np.linspace(-3, 3, int(rng.integers(5, 60))))
        report = fenchel_young_check(fn, conj)
        assert report.status == "pass"
        assert report.worst_slack == 0.0


def test_fenchel_young_detects_understated_conjugate():
    fn = logcosh_fn()
    xs = np.linspace(-1, 1, 101)
    low = lft(fn, xs)
    dented = GridFunction((xs,), low.values - 0.01)
    report = fenchel_young_check(fn, dented)
    assert report.status == "fail"
    assert report.worst_slack == pytest.approx(-0.01, abs=1e-12)


def test_order_reversal_on_random_pairs():
    rng = np.random.default_rng(17)
    targets = np.linspace(-2, 2, 31)
    for _ in range(50):
        f = random_max_affine(rng, 41)
        lift = float(rng.uniform(0.01, 1.0))
        g = GridFunction(f.grids, f.values + lift, name="g")
        report = order_reversal_check(f, g, targets)
        assert report.status == "pass"
        # strict domination by at least the constant lift
        assert report.worst_slack >= lift - 1e-12


def test_order_reversal_rejects_bad_premise():
    g = np.linspace(-1, 1, 11)
    f = GridFunction((g,), g ** 2)
    with pytest.raises(ValueError):
        order_reversal_check(GridFunction((g,), g ** 2 + 0.1), f, g)
    other = GridFunction((np.linspace(-2, 2, 11),), np.zeros(11))
    with pytest.raises(ValueError):
        order_reversal_check(f, other, g)


def test_biconjugation_envelope_on_convex_inputs():
    fn = logcosh_fn()
    report = biconjugation_check(fn)
    assert report.status == "pass"
    # the envelope never exceeds the function
    assert report.details["envelope_below_by"] >= -1e-12
    g = np.linspace(-4, 4, 81)
    for vals in (g * g / 2, np.abs(g)):
        assert biconjugation_check(GridFunction((g,), vals)).status == "pass"


def test_biconjugation_flags_nonconvex_input():
    g = np.linspace(-2.0, 2.0, 81)
    double_well = GridFunction((g,), (g ** 2 - 1.0) ** 2)
    report = biconjugation_check(double_well)
    assert report.status == "fail"
    # the hull bridges the wells, a gap of order one at the origin
    assert report.details["max_error"] > 0.5


def test_biconjugate_of_convex_function_is_itself():
    fn = logcosh_fn()
    second = biconjugate(fn)
    bound = 2 * fn.step * fn.max_finite_slope()
    assert np.max(np.abs(second.values - fn.values)) <= bound


# ---------------------------------------------------------------------------
# degenerate inputs


def test_improper_functions_are_rejected():
    g = np.linspace(-1, 1, 5)
    allinf = GridFunction((g,), np.full(5, np.inf))
    assert not allinf.proper
    with pytest.raises(ImproperFunctionError):
        lft(allinf, g)
    with pytest.raises(ImproperFunctionError):
        lft_at(allinf, g)


def test_grid_function_validation():
    g = np.linspace(-1, 1, 5)
    with pytest.raises(ImproperFunctionError):
        GridFunction((g,), np.array([0, 1, np.nan, 1, 0]))
    with pytest.raises(ImproperFunctionError):
        GridFunction((g,), np.array([0, 1, -np.inf, 1, 0.0]))
    with pytest.raises(ValueError):
        GridFunction((np.array([0.0, 0.1, 0.3, 0.4, 0.5]),), np.zeros(5))
    with pytest.raises(ValueError):
        GridFunction((g,), np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction((g, g, g), np.zeros((5, 5, 5)))


def test_partial_domains_conjugate_per_axis():
    # a +inf row marks tilts outside the domain; the transform skips it
    g = np.linspace(-1.0, 1.0, 9)
    vals = np.tile(g ** 2 / 2, (9, 1))
    vals[0, :] = np.inf
    F = GridFunction((g, g), vals)
    out = lft(F, (g, g))
    assert np.all(np.isfinite(out.values) | np.isinf(out.values))
    assert out.values.shape == (9, 9)


# ---------------------------------------------------------------------------
# CSV interchange


def test_csv_round_trip_1d(tmp_path):
    g = np.linspace(-2.0, 2.0, 17)
    vals = np.abs(g)
    vals[3] = np.inf
    fn = GridFunction((g,), vals, name="v")
    path = tmp_path / "fn.csv"
    write_grid_csv(path, fn)
    back = read_grid_csv(path)
    assert np.array_equal(back.grids[0], g)
    assert np.array_equal(back.values, vals)


def test_csv_round_trip_2d(tmp_path):
    gx = np.linspace(-1.0, 1.0, 5)
    gy = np.linspace(0.0, 3.0, 7)
    vals = gx[:, None] + 2.0 * gy[None, :]
    vals[2, 4] = np.inf
    fn = GridFunction((gx, gy), vals)
    path = tmp_path / "fn2.csv"
    write_grid_csv(path, fn)
    back = read_grid_csv(path)
    assert back.k == 2
    assert np.array_equal(back.grids[0], gx)
    assert np.array_equal(back.grids[1], gy)
    assert np.array_equal(back.values, vals)


def test_csv_rejects_missing_value_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


# ---------------------------------------------------------------------------
# Mosco diagnostics on curated families


def make_limit_and_grid():
    lam = np.linspace(-3.0, 3.0, 121)
    return GridFunction((lam,), np.log(np.cosh(lam)), name="limit"), lam


def test_mosco_vanishing_excess_passes_both_halves():
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values + 1.0 / m)
              for m in range(1, 9)]
    m2 = mosco_m2_check(family, limit)
    m1 = mosco_m1_check(family, limit, np.linspace(-1, 1, 81))
    assert m2.reports[0].status == "pass"
    assert m1.reports[0].status == "pass"
    # excess 1/8 survives in the tail on both sides
    assert m2.reports[0].worst_slack == pytest.approx(0.125, abs=1e-12)
    assert m1.reports[0].worst_slack == pytest.approx(0.125, abs=1e-12)


def test_mosco_sagging_family_fails_both_halves():
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values - 0.1) for _ in range(8)]
    m2 = mosco_m2_check(family, limit)
    m1 = mosco_m1_check(family, limit, np.linspace(-1, 1, 81))
    assert m2.reports[0].status == "fail"
    assert m2.reports[0].worst_slack < -0.09
    assert m1.reports[0].status == "fail"
    assert m1.reports[0].worst_slack == pytest.approx(-0.1, abs=1e-12)


def test_mosco_checks_are_one_sided():
    # a family stuck strictly above the limit satisfies both inequalities
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values + 0.1) for _ in range(8)]
    assert mosco_m2_check(family, limit).reports[0].status == "pass"
    m1 = mosco_m1_check(family, limit, np.linspace(-1, 1, 81))
    assert m1.reports[0].status == "pass"


def test_mosco_payloads_carry_witnesses():
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values + 1.0 / m)
              for m in range(1, 9)]
    m2 = mosco_m2_check(family, limit)
    assert set(m2.m2) == {"grid", "margins", "tail_start", "windows",
                          "witness_sequences"}
    assert m2.m2["tail_start"] == 4
    assert len(m2.m2["witness_sequences"]) == len(lam)
    assert all(len(seq) == 8 for seq in m2.m2["witness_sequences"])
    xs = np.linspace(-1, 1, 81)
    m1 = mosco_m1_check(family, limit, xs)
    assert set(m1.m1) == {"targets", "limsup_proxy", "conjugate_of_limit",
                          "recovery_slack", "tail_start",
                          "witness_sequences"}
    bundle = m2.merge(m1)
    assert bundle.m1 is not None and bundle.m2 is not None
    assert bundle.status == "pass"


def test_properness_zero_fast_path():
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values * (1 + 1.0 / m))
              for m in range(1, 6)]
    out = uniform_properness_check(family)
    assert out.properness == {"found": True, "witness_constant": 0.0,
                              "sup_value": 0.0,
                              "witness_sequence": [0.0] * 5}


def test_properness_constant_witness_fallback():
    limit, lam = make_limit_and_grid()
    family = [GridFunction((lam,), limit.values + 1.0 / m)
              for m in range(1, 9)]
    out = uniform_properness_check(family)
    assert out.properness["found"] is True
    assert out.properness["witness_constant"] == 0.0
    assert out.properness["sup_value"] == pytest.approx(1.0, abs=1e-12)


def test_properness_rejects_empty_family():
    with pytest.raises(ValueError):
        uniform_properness_check([])


def test_default_windows_shrink_geometrically():
    w = default_windows(5, 1.0, 0.5)
    assert np.array_equal(w, np.array([0.5, 0.25, 0.125, 0.0625, 0.03125]))
    with pytest.raises(ValueError):
        default_windows(5, 1.0, 1.5)
