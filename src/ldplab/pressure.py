"""Finite-volume and limit pressures, with structural checks.

The pressure of a model at tilt lam over the side-n box is

    (1 / n^d) log E[ exp <lam, sum of site values> ],

computed exactly from the model's sum law in log space.  Limit pressures
are read off the model's transfer record (one site's log moment for
independent sites, the Perron root of the tilted transfer matrix for
chains, one block's log moment for blocks).  At lam = 0 every pressure
is exactly 0 and the code returns that value without touching floating
point sums.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .lattice import make_box, tile
from .models import DEFAULT_LAW_BUDGET, FieldModel, sample_sums, scalarize
from .numerics import logsumexp, pairings
from .reports import VerificationReport


# Cells of the (tilts x support) or (tilts x samples) temporary one block
# of a grid pass may hold: as many as the support of a sum law within the
# default budget can have, so one tilt of any such law fits in a block.
# A block holds at least one tilt, so a law under a larger budget still
# runs, one tilt at a time.
GRID_BLOCK_CELLS = DEFAULT_LAW_BUDGET

BOOTSTRAP_DRAWS = 200


def _as_tilt(model: FieldModel, lam) -> np.ndarray:
    v = np.atleast_1d(np.asarray(lam, dtype=float))
    if v.shape != (model.k,):
        raise ValueError(f"tilt must have shape ({model.k},), got {v.shape}")
    return v


def _as_tilts(model: FieldModel, lams) -> np.ndarray:
    """(G, k) tilt grid; a 1-D grid lists scalar tilts."""
    pts = np.asarray(lams, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != model.k:
        raise ValueError(f"tilt grid must have {model.k} columns, got shape "
                         f"{np.shape(lams)}")
    return pts


def _row_blocks(rows, width: int):
    """Consecutive chunks of ``rows`` holding at most GRID_BLOCK_CELLS
    cells of the given width (at least one row each)."""
    step = max(1, GRID_BLOCK_CELLS // max(1, width))
    for start in range(0, len(rows), step):
        yield rows[start:start + step]


def pressure_finite_grid(model: FieldModel, n: int, lams) -> np.ndarray:
    """Exact pressure over the side-n box at every tilt of a grid.

    One row-wise logsumexp of log p + <lam, sum> over the sum law, in row
    blocks of at most GRID_BLOCK_CELLS cells.  Zero tilts give exactly 0.
    """
    pts = _as_tilts(model, lams)
    out = np.zeros(len(pts))
    live = np.flatnonzero(np.any(pts, axis=1))
    if not live.size:
        return out
    law = model.sum_law(n)
    for rows in _row_blocks(live, len(law.logp)):
        out[rows] = logsumexp(law.logp + pairings(pts[rows], law.sums()),
                              axis=1)
    return out / law.count


def pressure_finite(model: FieldModel, n: int, lam) -> float:
    """Exact pressure over the side-n box."""
    return float(pressure_finite_grid(model, n, _as_tilt(model, lam)[None])[0])


def _pressure_mc_grid(model: FieldModel, n: int, lams, samples: int, seed,
                      ci_boot: int):
    """Monte Carlo pressure at every tilt of a grid, from one set of draws.

    Returns (estimates (G,), intervals (G, 2)).  The boxes are drawn once
    and the bootstrap picks after them, in the order a single tilt draws
    them, so each row equals its one-tilt estimate.
    """
    pts = _as_tilts(model, lams)
    rng = np.random.default_rng(seed)
    box = make_box((0,) * model.dim, n, model.dim)
    count = box.size
    totals = sample_sums(model, box, samples, rng)
    after_draws = rng.bit_generator.state
    log_samples = math.log(samples)
    est = np.empty(len(pts))
    ci = np.empty((len(pts), 2))
    for rows in _row_blocks(np.arange(len(pts)), samples):
        vals = pairings(pts[rows], totals)
        est[rows] = (logsumexp(vals, axis=1) - log_samples) / count
        # each block replays the same picks rather than holding all of them
        rng.bit_generator.state = after_draws
        boots = np.empty((len(rows), ci_boot))
        for b in range(ci_boot):
            pick = rng.integers(samples, size=samples)
            # take() keeps each resampled row contiguous, so its sum runs
            # in the same pairwise order as the one-tilt sum
            boots[:, b] = (logsumexp(vals.take(pick, axis=1), axis=1)
                           - log_samples) / count
        ci[rows] = np.percentile(boots, [2.5, 97.5], axis=1).T
    return est, ci


def pressure_mc(model: FieldModel, n: int, lam, *, samples: int = 2000,
                seed=0, ci_boot: int = BOOTSTRAP_DRAWS):
    """Monte Carlo pressure over the side-n box with a bootstrap interval.

    Returns (estimate, ci_low, ci_high).  The estimate is the log of the
    empirical exponential moment divided by the volume; intervals are
    percentile bootstrap over the sampled tilted weights.
    """
    est, ci = _pressure_mc_grid(model, n, _as_tilt(model, lam)[None],
                                samples, seed, ci_boot)
    return float(est[0]), float(ci[0, 0]), float(ci[0, 1])


# ---------------------------------------------------------------------------
# limit pressure


def _perron_log_root(M: np.ndarray, rel_tol: float = 1e-12,
                     max_iter: int = 10_000) -> float:
    """log of the Perron root of a strictly positive matrix."""
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    prev = None
    hits = 0
    for _ in range(max_iter):
        w = M @ v
        r = w.sum()
        v = w / r
        if prev is not None and abs(r - prev) <= rel_tol * abs(r):
            hits += 1
            if hits >= 2:
                return math.log(r)
        else:
            hits = 0
        prev = r
    raise ConvergenceError(
        f"power iteration did not stabilize in {max_iter} steps")


def pressure_limit(model: FieldModel, lam) -> float:
    """Infinite-volume pressure, exact, from the model's transfer record.

    Period 1: the log moment of one site; a chain: the log Perron root of
    T e^tilt; period j: one forward pass over j sites, divided by j.  The
    tilt pairs lam with the model's own atoms, so an affine image, which
    shares its base's record, needs no rule of its own.
    """
    v = _as_tilt(model, lam)
    if not np.any(v):
        return 0.0
    rec = model.transfer
    tilt = (model.atoms @ v)[rec.keep]
    if rec.period == 1:
        return float(logsumexp(rec.log_start + tilt)) - rec.log_norm
    if rec.period is None:
        shift = float(np.max(tilt))
        M = rec.T * np.exp(tilt - shift)[None, :]
        return _perron_log_root(M) + shift
    return (rec.forward(rec.period, tilt) - rec.log_norm) / rec.period


# ---------------------------------------------------------------------------
# curves


@dataclass
class PressureCurve:
    """Pressure sampled on a tilt grid (limit or fixed finite volume)."""

    lams: np.ndarray          # (N,) for k=1 or (N, 2) for k=2
    values: np.ndarray        # (N,)
    mode: str                 # "exact" or "mc"
    model: str
    n: int = 0                # 0 marks the infinite-volume limit
    ci: np.ndarray = None     # (N, 2) for mc mode

    @property
    def k(self) -> int:
        return 1 if self.lams.ndim == 1 else self.lams.shape[1]

    def convexity_check(self, tolerance: float = 1e-9) -> VerificationReport:
        """Weighted midpoint convexity along a 1-D tilt grid."""
        if self.k != 1:
            raise ValueError("convexity check expects a 1-D tilt grid")
        x, y = self.lams, self.values
        slacks = []
        for i in range(1, len(x) - 1):
            span = x[i + 1] - x[i - 1]
            interp = ((x[i + 1] - x[i]) * y[i - 1]
                      + (x[i] - x[i - 1]) * y[i + 1]) / span
            slacks.append(float(interp - y[i]))
        return VerificationReport.from_slacks(
            "pressure-convexity", slacks, tolerance,
            details={"model": self.model, "points": len(x)})

    def rows(self):
        out = []
        for i in range(len(self.values)):
            lam = (self.lams[i],) if self.k == 1 else tuple(self.lams[i])
            ci = ("", "") if self.ci is None else tuple(self.ci[i])
            out.append(tuple(lam) + (self.values[i], self.mode) + ci)
        return out

    def header(self):
        lam_cols = (("lambda_1",) if self.k == 1
                    else ("lambda_1", "lambda_2"))
        return lam_cols + ("value", "mode", "ci_low", "ci_high")


def compute_pressure_curve(model: FieldModel, lams, *, n: int = 0,
                           mode: str = "exact", samples: int = 2000,
                           seed=0) -> PressureCurve:
    """Evaluate the pressure on a grid of tilts.

    n = 0 requests the infinite-volume limit (exact mode only); n >= 1 the
    finite-volume pressure, exactly or by Monte Carlo.
    """
    lams = np.asarray(lams, dtype=float)
    pts = lams if lams.ndim > 1 else lams[:, None]
    ci = None
    if mode == "exact" and n == 0:
        values = np.array([pressure_limit(model, lam) for lam in pts])
    elif mode == "exact":
        values = pressure_finite_grid(model, n, pts)
    elif mode == "mc":
        if n == 0:
            raise ValueError("Monte Carlo mode needs a finite volume side")
        values, ci = _pressure_mc_grid(model, n, pts, samples, seed,
                                       BOOTSTRAP_DRAWS)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PressureCurve(lams=lams, values=values, mode=mode,
                         model=model.describe(), n=n, ci=ci)


def write_curve_csv(path, curve: PressureCurve):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(curve.header())
        w.writerows(curve.rows())


# ---------------------------------------------------------------------------
# structural checks


def block_pressure_identity_check(model: FieldModel, lam_grid, *,
                                  j=None, ks=(2, 3),
                                  tolerance: float = 1e-10) -> VerificationReport:
    """Pressure over k*j sites equals pressure over j sites for block models."""
    j = model.block if j is None else j
    if j != model.block:
        raise ValueError("identity holds at the model's own block side")
    lams = _as_tilts(model, lam_grid)
    p_j = pressure_finite_grid(model, j, lams)
    slacks = -np.abs(np.stack([pressure_finite_grid(model, k * j, lams)
                               for k in ks], axis=1) - p_j[:, None])
    at, which = np.unravel_index(np.argmin(slacks), slacks.shape)
    details = {"model": model.describe(), "j": j, "ks": list(ks),
               "worst_at": {"lambda": float(lams[at, 0]), "k": ks[which]}}
    return VerificationReport.from_slacks(
        "block-pressure-identity", slacks.ravel().tolist(), tolerance,
        details=details)


def pressure_subadditivity_check(model: FieldModel, lam, m: int, n: int, *,
                                 t=None, alpha=None,
                                 tolerance: float = 1e-9) -> VerificationReport:
    """Finite-volume pressure bound from tiling plus local control.

    p_n(lam) >= (1 - rho) p_m(lam) - c(m)/m^d - rho (t(V1) - log alpha(V1))

    where rho is the margin density of the side-m tiling of the side-n box
    and (t, alpha) certify local control of the scalar field <lam, sigma>
    for the open unit interval V1.  The defaults use that field's covering
    certificate, for which the bound holds for every strictly positive
    model and all m <= n that admit at least one tile.
    """
    from .convexsets import BoxShape
    v = _as_tilt(model, lam)
    if t is None or alpha is None:
        unit = BoxShape((1.0,))
        cert = scalarize(model, v).local_control_certificate(unit)
        t = cert.t if t is None else t
        alpha = cert.alpha if alpha is None else alpha
    g = int(math.floor(model.decoupling.g(m)))
    tiling = tile(n, m, g, model.invariance_step, model.dim)
    rho = float(tiling.rho)
    c_m = model.decoupling.c(m) / (m ** model.dim)
    p_n = pressure_finite(model, n, v)
    p_m = pressure_finite(model, m, v)
    rhs = (1.0 - rho) * p_m - c_m - rho * (t - math.log(alpha))
    slack = p_n - rhs
    details = {"model": model.describe(), "m": m, "n": n, "rho": rho,
               "gap": g, "cost_per_site": c_m, "t": t, "alpha": alpha,
               "p_n": p_n, "p_m": p_m}
    return VerificationReport.from_slacks(
        "pressure-subadditivity", [slack], tolerance, details=details)


def residual_beta_check(model: FieldModel, sites=None, t=None, alpha=None, *,
                        assignment_budget: int = 400, seed=0,
                        tolerance: float = 1e-9) -> VerificationReport:
    """Conditional exponential moments stay above beta = exp(-t) alpha.

    For a scalar field eta (build one with affine_image or scalarize) and
    any conditioning F on the given site set,  E[exp eta(0) | F] >= beta
    with (t, alpha) a local-control certificate of eta for the open unit
    interval.  Assignments of the conditioning sites are enumerated
    exhaustively when few enough, otherwise sampled from the model itself;
    zero-mass assignments are skipped and an all-skipped run is reported
    as inconclusive.
    """
    from .convexsets import BoxShape
    if model.k != 1:
        raise ValueError("residual bound concerns scalar fields; apply "
                         "scalarize or affine_image first")
    if t is None or alpha is None:
        cert = model.local_control_certificate(BoxShape((1.0,)))
        t = cert.t if t is None else t
        alpha = cert.alpha if alpha is None else alpha
    floor = math.log(alpha) - t
    support = model.support_indices()
    origin = (0,) * model.dim
    if sites is None:
        sites = ([(i,) for i in range(-3, 4) if i != 0] if model.dim == 1
                 else [(i, j) for i in range(-2, 3) for j in range(-2, 3)
                       if (i, j) != (0, 0)])
    sites = [s for s in sites if tuple(s) != origin]
    values = model.atoms[:, 0]
    total = len(support) ** len(sites)
    if total <= assignment_budget:
        import itertools
        rows = itertools.product(support, repeat=len(sites))
        coverage = f"all {total} assignments on {len(sites)} sites"
    else:
        lo = min(min(s) for s in sites)
        hi = max(max(s) for s in sites)
        box = make_box((lo,) * model.dim, hi - lo + 1, model.dim)
        column = {site: i for i, site in enumerate(box.sites())}
        draws = model.sample_box(box, np.random.default_rng(seed),
                                 assignment_budget)
        rows = draws[:, [column[tuple(s)] for s in sites]].tolist()
        coverage = (f"{assignment_budget} model-sampled assignments "
                    f"on {len(sites)} sites; not exhaustive")
    slacks = []
    skipped = 0
    for row in rows:
        cons = {s: frozenset((i,)) for s, i in zip(sites, row)}
        log_f = model.cylinder_log_prob(cons)
        if log_f == -math.inf:
            skipped += 1
            continue
        terms = []
        for i in support:
            joint = dict(cons)
            joint[origin] = frozenset((i,))
            terms.append(values[i] + model.cylinder_log_prob(joint))
        log_moment = float(logsumexp(np.array(terms))) - log_f
        slacks.append(log_moment - floor)
    details = {"model": model.describe(), "t": t, "alpha": alpha,
               "log_beta": floor, "assignments": coverage,
               "zero_mass_skipped": skipped}
    return VerificationReport.from_slacks(
        "residual-beta", slacks, tolerance, details=details,
        inconclusive=not slacks)

