"""Weak-entropy estimates and the comparison inequalities behind them.

The entropy proxy at a point x is the normalized log probability that the
empirical mean over the side-n box lands in a small convex neighborhood of
x; it is nonpositive by construction and monotone diagnostics track how it
settles as n grows.  The module also checks the finite-volume inequalities
that drive the theory: the tiling comparison between scales m and n, the
midpoint concavity bound, and the exponential Chebyshev upper bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convexsets import BallShape, BoxShape, ConvexNbhd, gauge
from .lattice import make_box, tile
from .models import FieldModel, sample_sums
from .numerics import NEG_INF, logsumexp
from .pressure import pressure_finite_grid
from .reports import VerificationReport


def _clamp_log_prob(v: float) -> float:
    """Probabilities never exceed 1; shave float dust above log 1 = 0."""
    return min(float(v), 0.0)


def _event_log_prob(model: FieldModel, nbhd: ConvexNbhd, n: int) -> float:
    law = model.sum_law(n)
    mask = nbhd.member_mask(law.means())
    if not np.any(mask):
        return NEG_INF
    return _clamp_log_prob(logsumexp(law.logp[mask]))


@dataclass
class EntropyEstimate:
    """Normalized small-ball log probabilities along a volume schedule."""

    center: np.ndarray
    shape: object
    n_list: tuple
    values: np.ndarray
    mode: str

    @property
    def s_est(self) -> float:
        return float(self.values[-1])

    @property
    def liminf_proxy(self) -> float:
        """Min over the second half of the schedule; guards against a lucky
        final volume."""
        half = self.values[len(self.values) // 2:]
        return float(np.min(half))

    @property
    def is_null(self) -> bool:
        return bool(np.all(np.isneginf(self.values)))


def entropy_estimate(model: FieldModel, x, shape, n_list, *,
                     mode: str = "exact", samples: int = 4000,
                     seed=0) -> EntropyEstimate:
    """Estimate the weak entropy at x with the neighborhood x + shape.

    Exact mode evaluates the mean law; mc mode counts sampled boxes whose
    empirical mean lands in the neighborhood (zero hits give -inf).
    """
    center = np.atleast_1d(np.asarray(x, dtype=float))
    if center.shape != (model.k,):
        raise ValueError(f"center must have shape ({model.k},)")
    nbhd = ConvexNbhd(tuple(center), shape)
    n_list = tuple(int(n) for n in n_list)
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("need a schedule of positive volume sides")
    values = np.empty(len(n_list))
    if mode == "exact":
        for i, n in enumerate(n_list):
            v = _event_log_prob(model, nbhd, n)
            values[i] = v / n ** model.dim if v > NEG_INF else NEG_INF
    elif mode == "mc":
        rng = np.random.default_rng(seed)
        for i, n in enumerate(n_list):
            box = make_box((0,) * model.dim, n, model.dim)
            means = sample_sums(model, box, samples, rng) / box.size
            hits = int(np.count_nonzero(nbhd.member_mask(means)))
            values[i] = (math.log(hits / samples) / n ** model.dim
                         if hits else NEG_INF)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EntropyEstimate(center=center, shape=shape, n_list=n_list,
                           values=values, mode=mode)


# ---------------------------------------------------------------------------
# tiling comparison between two scales


def subadditive_lemma_check(model: FieldModel, nbhd: ConvexNbhd, eps: float,
                            m: int, n: int, *, delta=None, t=None,
                            alpha=None,
                            tolerance: float = 1e-9) -> VerificationReport:
    """Two-scale comparison for small-ball probabilities.

    With C = y + V and the shrunk target C(y, eps) = y + (1 - eps) V,

      (1/n^d) log P(mean_n in C)
          >= (1/m^d) log P(mean_m in C(y, eps)) - c(m)/m^d + rho log alpha,

    where rho is the margin density of the side-m tiling of the side-n box
    and (t, alpha) a local-control certificate for V.  When delta is given
    the details also record whether the coarse form
    lhs >= inner - delta held.  The report notes whether the sufficient
    inclusion condition rho (t + gauge(V, -y)) < eps was met; outside it the
    refined inequality is still evaluated as stated.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    center = np.asarray(nbhd.center, dtype=float)
    shape = nbhd.shape
    target = nbhd.shrunk(eps)
    if t is None or alpha is None:
        cert = model.local_control_certificate(shape)
        t = cert.t if t is None else t
        alpha = cert.alpha if alpha is None else alpha
    g = int(math.floor(model.decoupling.g(m)))
    tiling = tile(n, m, g, model.invariance_step, model.dim)
    rho = float(tiling.rho)
    vol_m = m ** model.dim
    vol_n = n ** model.dim
    lhs_log = _event_log_prob(model, nbhd, n)
    inner_log = _event_log_prob(model, target, m)
    lhs = lhs_log / vol_n if lhs_log > NEG_INF else NEG_INF
    if inner_log == NEG_INF:
        inner = NEG_INF
        rhs = NEG_INF
        slack = math.inf
    else:
        inner = inner_log / vol_m
        rhs = (inner - model.decoupling.c(m) / vol_m
               + rho * math.log(alpha))
        slack = lhs - rhs
    condition = rho * (t + gauge(shape, -center)) < eps
    details = {
        "model": model.describe(), "m": m, "n": n, "rho": rho,
        "eps": eps, "t": t, "alpha": alpha,
        "lhs_per_site": lhs, "rhs_per_site": rhs,
        "inclusion_condition_held": bool(condition),
    }
    if delta is not None:
        details["delta"] = float(delta)
        details["coarse_form_held"] = bool(
            inner == NEG_INF or lhs - (inner - float(delta)) >= -tolerance)
    return VerificationReport.from_slacks(
        "two-scale-subadditivity", [slack], tolerance, details=details)


def _auto_scale_even_tiles(model: FieldModel, n: int) -> int:
    """Largest m <= n//8 whose tiling of n has an even tile count >= 2."""
    g_of = model.decoupling.g
    for m in range(max(2, n // 8), 0, -1):
        g = int(math.floor(g_of(m)))
        period = m + g + model.invariance_step
        k = n // period
        if k >= 2 and (k ** model.dim) % 2 == 0:
            return m
    raise ValueError(f"no scale with an even tile count for n = {n}")


def concavity_check(model: FieldModel, x1, x2, shape, n: int, eps: float, *,
                    m=None, t=None, alpha=None,
                    tolerance: float = 1e-9) -> VerificationReport:
    """Midpoint concavity of small-ball exponents via a half-and-half tiling.

    Half the tiles aim the empirical mean at x1, half at x2; the mixture
    lands the big-box mean near the midpoint, giving

      (1/n^d) log P(mean_n in mid + V)
          >= (1 - rho)(v1 + v2)/2 - c(m)/m^d + rho log alpha,

    with v_i = (1/m^d) log P(mean_m in x_i + (1-eps) V).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    a = np.atleast_1d(np.asarray(x1, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    mid = (a + b) / 2.0
    if m is None:
        m = _auto_scale_even_tiles(model, n)
    if t is None or alpha is None:
        cert = model.local_control_certificate(shape)
        t = cert.t if t is None else t
        alpha = cert.alpha if alpha is None else alpha
    g = int(math.floor(model.decoupling.g(m)))
    tiling = tile(n, m, g, model.invariance_step, model.dim)
    k_total = len(tiling.sub_boxes)
    if k_total % 2 or k_total < 2:
        raise ValueError(f"need an even tile count >= 2, got {k_total}")
    rho = float(tiling.rho)
    vol_m = m ** model.dim
    lhs_log = _event_log_prob(model, ConvexNbhd(tuple(mid), shape), n)
    lhs = lhs_log / n ** model.dim if lhs_log > NEG_INF else NEG_INF
    vs = []
    for c in (a, b):
        inner = _event_log_prob(
            model, ConvexNbhd(tuple(c), shape).shrunk(eps), m)
        vs.append(inner / vol_m if inner > NEG_INF else NEG_INF)
    if NEG_INF in vs:
        slack = math.inf
        rhs = NEG_INF
    else:
        rhs = ((1.0 - rho) * (vs[0] + vs[1]) / 2.0
               - model.decoupling.c(m) / vol_m + rho * math.log(alpha))
        slack = lhs - rhs
    condition = rho * (t + gauge(shape, -mid)) < eps
    details = {
        "model": model.describe(), "m": m, "n": n, "rho": rho,
        "tiles": k_total, "eps": eps,
        "v1_per_site": vs[0], "v2_per_site": vs[1],
        "lhs_per_site": lhs, "rhs_per_site": rhs,
        "inclusion_condition_held": bool(condition),
    }
    return VerificationReport.from_slacks(
        "midpoint-concavity", [slack], tolerance, details=details)


# ---------------------------------------------------------------------------
# exponential Chebyshev upper bound


def chebyshev_upper_check(model: FieldModel, nbhd: ConvexNbhd, n: int,
                          lam_grid, *, tolerance: float = 0.0
                          ) -> VerificationReport:
    """P(mean_n in A) <= exp(-n^d sup_lam [inf_A <lam, x> - p_n(lam)]).

    The supremum runs over the supplied tilt grid only, which keeps the
    bound valid (a grid sup never exceeds the true sup).  The slack is the
    log gap between the bound and the exact event probability; it is
    nonnegative for every event by the termwise Chernoff argument.
    """
    grid = np.asarray(lam_grid, dtype=float)
    pts = grid if grid.ndim > 1 else grid[:, None]
    if pts.shape[1] != model.k:
        raise ValueError(f"tilt grid must have {model.k} columns")
    vol = n ** model.dim
    # zero tilts are exactly 0, never a signed zero from support_inf
    exponents = np.where(np.any(pts, axis=1),
                         nbhd.support_inf(pts)
                         - pressure_finite_grid(model, n, pts), 0.0)
    best = int(np.argmax(exponents))          # the first maximiser
    bound_log = -vol * float(exponents[best])
    log_p = _event_log_prob(model, nbhd, n)
    slack = math.inf if log_p == NEG_INF else bound_log - log_p
    details = {
        "model": model.describe(), "n": n,
        "bound_log": bound_log, "event_log_prob": log_p,
        "best_tilt": [float(v) for v in pts[best]],
        "empty_event": log_p == NEG_INF,
    }
    return VerificationReport.from_slacks(
        "chebyshev-upper", [slack], tolerance, details=details)


def random_convex_event(rng, k: int, *, center_scale: float = 1.2,
                        min_radius: float = 0.05,
                        max_radius: float = 1.0) -> ConvexNbhd:
    """Random box or ball neighborhood for stress tests."""
    center = tuple(float(c) for c in
                   rng.uniform(-center_scale, center_scale, size=k))
    if k == 1 or rng.random() < 0.5:
        radii = tuple(float(r) for r in
                      rng.uniform(min_radius, max_radius, size=k))
        shape = BoxShape(radii)
    else:
        shape = BallShape(float(rng.uniform(min_radius, max_radius)), k)
    return ConvexNbhd(center, shape)

