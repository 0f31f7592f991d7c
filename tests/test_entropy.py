"""Small-ball exponents against combinatorial oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ldplab import (BallShape, BoxShape, ConvexNbhd, EntropyEstimate,
                    affine_image, chebyshev_upper_check, concavity_check,
                    conditioned, entropy_estimate, iid_field,
                    product_of_marginals, random_convex_event,
                    subadditive_lemma_check, tile)

from conftest import fresh_biased3, fresh_doeblin, fresh_rademacher
from oracles import (chernoff_scan, in_window, rademacher_sum_law,
                     rademacher_window_log_prob, rate_function_pm1)


# ---------------------------------------------------------------------------
# exact window probabilities


def test_windows_match_binomial_oracle(rademacher):
    for n in (11, 25, 60):
        est = entropy_estimate(rademacher, 0.3, BoxShape((0.1,)), [n])
        want = rademacher_window_log_prob(n, 0.3, 0.1) / n
        assert est.s_est == pytest.approx(want, abs=1e-13)


def test_deep_volumes_approach_minus_rate_function(rademacher):
    frozen = {0.0: -0.0026443808406587375,
              0.3: -0.04421940409685114,
              0.6: -0.18596948647625472}
    for x, pinned in frozen.items():
        for sx in (x, -x):
            est = entropy_estimate(rademacher, sx, BoxShape((0.025,)),
                                   [50, 100, 200, 400])
            assert est.s_est == pytest.approx(pinned, abs=1e-12)
            assert abs(est.s_est + rate_function_pm1(sx)) < 0.02
            # shrinking windows squeeze the estimate downward
            assert all(b <= a + 1e-12
                       for a, b in zip(est.values, est.values[1:])) \
                or est.values[0] <= 0.0


def test_unreachable_targets_are_null(rademacher):
    # means at n=10 live on the 1/10 grid; nothing lands in this window
    est = entropy_estimate(rademacher, 0.33, BoxShape((0.001,)), [10])
    assert est.is_null
    assert est.values[0] == -np.inf


def test_liminf_proxy_uses_schedule_tail():
    est = EntropyEstimate(center=np.array([0.0]), shape=BoxShape((1.0,)),
                          n_list=(2, 4, 8, 16),
                          values=np.array([-5.0, -1.0, -3.0, -2.0]),
                          mode="exact")
    assert est.s_est == -2.0
    assert est.liminf_proxy == -3.0
    assert not est.is_null


def test_estimate_validation(rademacher):
    with pytest.raises(ValueError):
        entropy_estimate(rademacher, (0.1, 0.2), BoxShape((0.5,)), [4])
    with pytest.raises(ValueError):
        entropy_estimate(rademacher, 0.0, BoxShape((0.5,)), [])
    with pytest.raises(ValueError):
        entropy_estimate(rademacher, 0.0, BoxShape((0.5,)), [0])
    with pytest.raises(ValueError):
        entropy_estimate(rademacher, 0.0, BoxShape((0.5,)), [4], mode="huh")


def test_mc_estimates_are_seeded_counts(rademacher):
    kw = dict(mode="mc", samples=400, seed=1)
    a = entropy_estimate(rademacher, 0.0, BoxShape((0.25,)), [10], **kw)
    b = entropy_estimate(rademacher, 0.0, BoxShape((0.25,)), [10], **kw)
    assert np.array_equal(a.values, b.values)
    # log(hits/samples)/n for an integer hit count
    hits = round(400 * math.exp(10 * a.s_est))
    assert a.s_est == pytest.approx(math.log(hits / 400) / 10, rel=1e-12)
    exact = entropy_estimate(rademacher, 0.0, BoxShape((0.25,)), [10]).s_est
    assert abs(a.s_est - exact) < 0.05


def test_mc_zero_hits_are_null(rademacher):
    est = entropy_estimate(rademacher, 0.9, BoxShape((0.01,)), [10],
                           mode="mc", samples=50, seed=2)
    assert est.is_null


# ---------------------------------------------------------------------------
# two-scale lemma


def test_subadditive_lemma_recounted_by_hand(rademacher):
    nbhd = ConvexNbhd((0.0,), BoxShape((0.75,)))
    report = subadditive_lemma_check(rademacher, nbhd, 0.7, 2, 32,
                                     delta=0.01)
    assert report.status == "pass"
    assert report.details["coarse_form_held"] is True
    assert report.details["inclusion_condition_held"] is True

    # left side: binomial mass of the open window at n = 32
    law = rademacher_sum_law(32)
    mass = sum(p for s, p in law.items() if in_window(s / 32, 0.0, 0.75))
    lhs = math.log(mass) / 32
    # right side: the shrunk window at m = 2 holds only the zero mean,
    # no decoupling cost, covering alpha 1
    rhs = math.log(Fraction(1, 2)) / 2
    assert report.details["lhs_per_site"] == pytest.approx(lhs, rel=1e-12)
    assert report.details["rhs_per_site"] == pytest.approx(rhs, rel=1e-12)
    assert report.details["rho"] == float(tile(32, 2, 0, 1, 1).rho)
    assert report.worst_slack == pytest.approx(lhs - rhs, rel=1e-12)


@pytest.mark.parametrize("m,n", [(2, 32), (4, 64), (8, 128)])
def test_subadditive_lemma_across_scales(rademacher, doeblin, m, n):
    nbhd = ConvexNbhd((0.0,), BoxShape((0.75,)))
    for model in (rademacher, doeblin):
        report = subadditive_lemma_check(model, nbhd, 0.7, m, n, delta=0.01)
        assert report.status == "pass"


def test_subadditive_lemma_eps_range(rademacher):
    nbhd = ConvexNbhd((0.0,), BoxShape((0.75,)))
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            subadditive_lemma_check(rademacher, nbhd, eps, 2, 32)


# ---------------------------------------------------------------------------
# concavity


def test_concavity_midpoint_bound(rademacher):
    report = concavity_check(rademacher, -0.4, 0.4, BoxShape((0.5,)),
                             64, 0.7, m=3)
    assert report.status == "pass"
    assert report.details["tiles"] == 16
    assert report.worst_slack > 0.0


def test_concavity_auto_scale_picks_even_tiles(rademacher):
    report = concavity_check(rademacher, -0.4, 0.4, BoxShape((0.5,)),
                             64, 0.7)
    assert report.status == "pass"
    assert report.details["m"] == 7
    assert report.details["tiles"] == 8


def test_concavity_rejects_odd_tilings(rademacher):
    with pytest.raises(ValueError):
        concavity_check(rademacher, -0.4, 0.4, BoxShape((0.5,)), 68, 0.7,
                        m=3)


# ---------------------------------------------------------------------------
# exponential Chebyshev


def test_chebyshev_bound_on_random_events(rademacher, doeblin):
    rng = np.random.default_rng(12)
    grid = np.linspace(-3.0, 3.0, 61)
    for model in (rademacher, doeblin):
        for _ in range(40):
            n = int(rng.integers(2, 40))
            event = random_convex_event(rng, 1)
            report = chebyshev_upper_check(model, event, n, grid)
            assert report.status == "pass"
            assert report.worst_slack >= 0.0


def test_chebyshev_zero_tilt_gives_trivial_bound(rademacher):
    event = ConvexNbhd((0.0,), BoxShape((0.2,)))
    report = chebyshev_upper_check(rademacher, event, 9, np.array([0.0]))
    assert report.status == "pass"
    assert report.details["bound_log"] == 0.0


def test_chebyshev_empty_event_is_vacuous(rademacher):
    event = ConvexNbhd((5.0,), BoxShape((0.1,)))
    report = chebyshev_upper_check(rademacher, event, 9,
                                   np.linspace(-3, 3, 61))
    assert report.status == "pass"
    assert report.details["empty_event"] is True
    assert report.worst_slack == math.inf


PLANAR_ATOMS = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1)),
                (Fraction(-3, 10), Fraction(7, 10))]
PLANAR_WEIGHTS = [0.4, 0.3, 0.2, 0.1]

CHERNOFF_MODELS = {
    "iid": (fresh_biased3, 9),
    "markov": (fresh_doeblin, 11),
    "product": (lambda: product_of_marginals(fresh_doeblin(), 2), 8),
    "conditioned": (lambda: conditioned(fresh_biased3(), 3, [0, 2]), 7),
    "affine": (lambda: affine_image(fresh_rademacher(), [[2.5]], [0.3]), 10),
    "planar": (lambda: iid_field(PLANAR_ATOMS, PLANAR_WEIGHTS), 6),
    "box-2d": (lambda: iid_field([Fraction(-1), Fraction(0), Fraction(1)],
                                 [0.2, 0.3, 0.5], dim=2), 4),
}


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _chernoff_grids(k):
    """A plain grid with 0 and grids that tie: repeated tilts, both signs
    of zero, and only zeros."""
    axis = np.linspace(-2.5, 2.5, 11)
    repeated = np.array([0.7, -0.0, -1.3, 0.0, 0.7, -1.3, 2.2, 2.2])
    zeros = np.array([0.0, -0.0, 0.0])
    if k == 1:
        return [axis, repeated, zeros]
    plane = np.array([(a, b) for a in axis[::2] for b in axis[::2]])
    return [plane, np.column_stack([repeated, repeated[::-1]]),
            np.column_stack([zeros, zeros[::-1]])]


def _chernoff_events(k):
    box = ConvexNbhd((0.15,) * k, BoxShape((0.4,) * k))
    far = ConvexNbhd((0.9,) * k, BoxShape((0.25,) * k))
    events = [box, box.shrunk(0.3), far, far.shrunk(0.6)]
    if k == 2:
        ball = ConvexNbhd((0.3, 0.1), BallShape(0.35, 2))
        events += [ball, ball.shrunk(0.5)]
    return events


@pytest.mark.parametrize("kind", sorted(CHERNOFF_MODELS))
def test_chernoff_grid_pass_matches_per_tilt_scan(kind):
    build, n = CHERNOFF_MODELS[kind]
    model = build()
    for grid in _chernoff_grids(model.k):
        for event in _chernoff_events(model.k):
            report = chebyshev_upper_check(model, event, n, grid)
            bound_log, log_p, best_tilt = chernoff_scan(model, event, n, grid)
            d = report.details
            assert _bits(d["bound_log"]) == _bits(bound_log)
            assert _bits(d["event_log_prob"]) == _bits(log_p)
            assert _bits(d["best_tilt"]) == _bits(best_tilt)


def test_chernoff_keeps_the_first_of_tied_maxima():
    # one atom at 0 and the box (0, 1): every tilt >= 0 has exponent
    # exactly 0, so the first nonnegative tilt of the grid is the best
    point = iid_field([Fraction(0)], [1.0])
    event = ConvexNbhd((0.5,), BoxShape((0.5,)))
    report = chebyshev_upper_check(point, event, 5,
                                   np.array([-1.0, 2.0, 0.5, 0.0, 3.0]))
    assert report.details["best_tilt"] == [2.0]
    assert report.details["bound_log"] == 0.0
    assert report.details["empty_event"] is True

