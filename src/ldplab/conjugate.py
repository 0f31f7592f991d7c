"""Discrete Legendre-Fenchel transforms and Mosco diagnostics on grids.

Conjugates are exact grid suprema: f*(x) = max over grid points lam of
<lam, x> - f(lam), computed by the monotone-slope (lower hull plus ordered
two-pointer) algorithm in one dimension and the exact iterated reduction

    f*(y1, y2) = sup_l1 [ l1 y1 - ( - sup_l2 ( l2 y2 - f(l1, l2) ) ) ]

in two.  Grid suprema never exceed the true supremum, which keeps every
bound built on them sound.  Values may be +infinity (absent constraints);
-infinity inputs are rejected as improper.  Ties in the maximizer are
broken toward the smaller argument, so outputs are deterministic.

Mosco diagnostics replace liminf/limsup over the family index by tail
minima/maxima over the last half of the computed range, with shrinking
grid windows standing in for convergent argument sequences.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImproperFunctionError
from .reports import VerificationReport, combine_status

INF = math.inf


def _check_axis(grid: np.ndarray, label: str):
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError(f"{label} must be a 1-D grid with >= 2 points")
    steps = np.diff(grid)
    if np.any(steps <= 0):
        raise ValueError(f"{label} must be strictly increasing")
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError(f"{label} must be uniform")


@dataclass(frozen=True)
class GridFunction:
    """Extended-real function tabulated on a uniform grid (k = 1 or 2)."""

    grids: tuple
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        grids = tuple(np.asarray(g, dtype=float) for g in self.grids)
        if len(grids) not in (1, 2):
            raise ValueError("one or two grid axes supported")
        for i, g in enumerate(grids):
            _check_axis(g, f"axis {i}")
        values = np.asarray(self.values, dtype=float)
        expect = tuple(len(g) for g in grids)
        if values.shape != expect:
            raise ValueError(f"values shape {values.shape} != grid {expect}")
        if np.any(np.isnan(values)) or np.any(np.isneginf(values)):
            raise ImproperFunctionError(
                "grid function values must be > -infinity and not NaN")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return len(self.grids)

    @property
    def proper(self) -> bool:
        return bool(np.any(np.isfinite(self.values)))

    @property
    def step(self) -> float:
        return max(float(g[1] - g[0]) for g in self.grids)

    def max_finite_slope(self) -> float:
        """Largest |difference quotient| between adjacent finite values."""
        best = 0.0
        if self.k == 1:
            axes = [(self.grids[0], self.values)]
        else:
            axes = [(self.grids[1], row) for row in self.values]
            axes += [(self.grids[0], col) for col in self.values.T]
        for g, v in axes:
            h = g[1] - g[0]
            for i in range(len(v) - 1):
                if np.isfinite(v[i]) and np.isfinite(v[i + 1]):
                    best = max(best, abs(v[i + 1] - v[i]) / h)
        return best


def _lower_hull(xs: np.ndarray, ys: np.ndarray):
    """Indices of the lower convex hull, keeping on-segment points."""
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = ((ys[b] - ys[a]) * (xs[i] - xs[a])
                     - (ys[i] - ys[a]) * (xs[b] - xs[a]))
            if cross > 0:          # b strictly above segment a-i: drop it
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _lft_1d(lams: np.ndarray, vals: np.ndarray,
            targets: np.ndarray) -> np.ndarray:
    """max over grid lams of lam*x - f(lam), per target x.

    Linear-time: prune to the lower hull of (lam, f), then march one
    pointer over the sorted targets (the maximizer index is monotone).
    Advancing only on strict improvement breaks ties toward smaller lam.
    Rows with no finite value yield -inf at every target.
    """
    finite = np.isfinite(vals)
    if not np.any(finite):
        return np.full(len(targets), -INF)
    ls = lams[finite]
    fs = vals[finite]
    hull = _lower_hull(ls, fs)
    hl = ls[hull]
    hf = fs[hull]
    out = np.empty(len(targets))
    j = 0
    last = len(hull) - 1
    for i, x in enumerate(targets):
        while j < last and hl[j + 1] * x - hf[j + 1] > hl[j] * x - hf[j]:
            j += 1
        out[i] = hl[j] * x - hf[j]
    return out


def lft(fn: GridFunction, target_grids, name: str = "") -> GridFunction:
    """Legendre-Fenchel conjugate of fn, tabulated on the target grid(s)."""
    if not fn.proper:
        raise ImproperFunctionError(
            f"cannot conjugate {fn.name or 'grid function'}: no finite value")
    if isinstance(target_grids, np.ndarray) or not isinstance(
            target_grids, (tuple, list)):
        target_grids = (target_grids,)
    elif target_grids and np.isscalar(target_grids[0]):
        target_grids = (target_grids,)
    targets = tuple(np.asarray(g, dtype=float) for g in target_grids)
    if len(targets) != fn.k:
        raise ValueError(f"need {fn.k} target grids, got {len(targets)}")
    if fn.k == 1:
        values = _lft_1d(fn.grids[0], fn.values, targets[0])
        return GridFunction(targets, values, name or f"{fn.name}*")
    l1, l2 = fn.grids
    x1, x2 = targets
    inner = np.empty((len(l1), len(x2)))
    for i in range(len(l1)):
        inner[i] = _lft_1d(l2, fn.values[i], x2)
    out = np.empty((len(x1), len(x2)))
    for j in range(len(x2)):
        col = -inner[:, j]          # -inf rows become +inf and drop out
        out[:, j] = _lft_1d(l1, col, x1)
    return GridFunction(targets, out, name or f"{fn.name}*")


def lft_at(fn: GridFunction, points) -> np.ndarray:
    """Conjugate values f*(x) at scattered points (1-D functions only).

    Same hull-and-pointer maximizer as ``lft``, minus the uniform-grid
    packaging, so callers may evaluate at arbitrary unordered x values.
    """
    if fn.k != 1:
        raise ValueError("lft_at evaluates 1-D functions only")
    if not fn.proper:
        raise ImproperFunctionError(
            f"cannot conjugate {fn.name or 'grid function'}: no finite value")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    order = np.argsort(pts, kind="stable")
    sorted_vals = _lft_1d(fn.grids[0], fn.values, pts[order])
    out = np.empty_like(sorted_vals)
    out[order] = sorted_vals
    return out


def biconjugate(fn: GridFunction, mid_grids=None) -> GridFunction:
    """lft applied twice; the convex lower envelope on the grid."""
    if mid_grids is None:
        mid_grids = fn.grids
    star = lft(fn, mid_grids, name=f"{fn.name}*")
    return lft(star, fn.grids, name=f"{fn.name}**")


# ---------------------------------------------------------------------------
# conjugation property checks


def fenchel_young_check(fn: GridFunction, conj: GridFunction, *,
                        tolerance: float = 0.0) -> VerificationReport:
    """f(lam) + f*(x) >= lam x at every grid pair (1-D).

    The slack at (i, j) is computed as f*(x_j) - (lam_i x_j - f(lam_i))
    with the same float expression the transform maximized, so a correct
    conjugate passes at zero tolerance.
    """
    if fn.k != 1 or conj.k != 1:
        raise ValueError("pairwise check implemented for 1-D grids")
    lams = fn.grids[0]
    xs = conj.grids[0]
    cand = lams[:, None] * xs[None, :] - fn.values[:, None]
    cand = np.where(np.isfinite(fn.values)[:, None], cand, -INF)
    slacks = conj.values[None, :] - cand
    worst = float(np.min(slacks))
    flat = int(np.argmin(slacks))
    i, j = np.unravel_index(flat, slacks.shape)
    details = {"f": fn.name, "conjugate": conj.name,
               "pairs": int(slacks.size),
               "worst_at": {"lambda": float(lams[i]), "x": float(xs[j])}}
    return VerificationReport.from_slacks(
        "fenchel-young", [worst], tolerance, details=details)


def order_reversal_check(f: GridFunction, g: GridFunction, target_grid, *,
                         tolerance: float = 1e-12) -> VerificationReport:
    """f <= g pointwise implies f* >= g* pointwise."""
    if f.k != 1 or g.k != 1:
        raise ValueError("implemented for 1-D grids")
    if len(f.grids[0]) != len(g.grids[0]) or np.any(f.grids[0] != g.grids[0]):
        raise ValueError("functions must share a grid")
    if np.any(f.values > g.values):
        raise ValueError("premise f <= g does not hold on the grid")
    targets = np.asarray(target_grid, dtype=float)
    fstar = lft(f, targets).values
    gstar = lft(g, targets).values
    diff = fstar - gstar
    slacks = diff[np.isfinite(diff)]
    if not len(slacks):
        slacks = [math.inf]
    details = {"f": f.name, "g": g.name, "targets": len(targets)}
    return VerificationReport.from_slacks(
        "conjugate-order-reversal", list(slacks), tolerance, details=details)


def biconjugation_check(fn: GridFunction, mid_grids=None, *,
                        factor: float = 2.0,
                        tolerance: float = 1e-12) -> VerificationReport:
    """For convex fn: |fn - lft(lft(fn))| <= factor * step * max slope."""
    second = biconjugate(fn, mid_grids)
    if mid_grids is None:
        h = fn.step
    else:
        mids = (mid_grids,) if not isinstance(mid_grids, (tuple, list)) \
            else tuple(mid_grids)
        h = max(fn.step, max(float(np.asarray(g)[1] - np.asarray(g)[0])
                             for g in mids))
    bound = factor * h * fn.max_finite_slope()
    finite = np.isfinite(fn.values)
    diff = fn.values[finite] - second.values[finite]
    slacks = list(bound - np.abs(diff))
    details = {"f": fn.name, "bound": bound,
               "max_error": float(np.max(np.abs(diff))) if len(diff) else 0.0,
               "envelope_below_by": float(np.min(diff)) if len(diff) else 0.0}
    return VerificationReport.from_slacks(
        "biconjugation-envelope", slacks, tolerance, details=details)


# ---------------------------------------------------------------------------
# Mosco diagnostics


@dataclass
class MoscoReport:
    """Bundle of Mosco diagnostics; sections are filled by their checks."""

    reports: list = field(default_factory=list)
    m2: dict = None
    m1: dict = None
    properness: dict = None
    mass_schedule: dict = None

    @property
    def status(self) -> str:
        return combine_status([r.status for r in self.reports])

    def merge(self, other: "MoscoReport") -> "MoscoReport":
        self.reports.extend(other.reports)
        for key in ("m2", "m1", "properness", "mass_schedule"):
            if getattr(other, key) is not None:
                setattr(self, key, getattr(other, key))
        return self

    def to_dict(self) -> dict:
        out = {"status": self.status,
               "reports": [r.to_dict() for r in self.reports]}
        for key in ("m2", "m1", "properness", "mass_schedule"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


def default_windows(count: int, window0: float = 1.0,
                    decay: float = 0.5) -> np.ndarray:
    """Shrinking search radii w_m = window0 * decay^m, m = 1..count."""
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    return window0 * decay ** np.arange(1, count + 1)


def _tail_start(count: int, tail_fraction: float) -> int:
    """First 1-based index of the tail suffix [ceil(count*fraction), count]."""
    return max(1, math.ceil(count * tail_fraction))


def _common_grid(family, limit):
    grid = limit.grids[0]
    for i, fm in enumerate(family):
        if fm.k != 1 or len(fm.grids[0]) != len(grid) \
                or np.any(fm.grids[0] != grid):
            raise ValueError(f"family member {i + 1} is not on the "
                             "limit function's grid")
    return grid


def mosco_m2_check(family, limit: GridFunction, *, windows=None,
                   adversary_budget=None, tail_fraction: float = 0.5,
                   tolerance: float = 1e-6) -> MoscoReport:
    """Liminf half of Mosco convergence, on grids.

    For each grid point lam, an adversary picks lam_m inside the shrinking
    window |lam_m - lam| <= w_m to minimize f_m; the margin at lam is the
    tail minimum (over m in the last-half suffix) of those values minus
    f(lam).  Pass iff every margin >= -tolerance.
    """
    grid = _common_grid(family, limit)
    M = len(family)
    w = (default_windows(M) if windows is None
         else np.asarray(windows, dtype=float))
    start = _tail_start(M, tail_fraction)
    h = limit.step
    margins = np.empty(len(grid))
    witnesses = []
    for i, lam in enumerate(grid):
        tail_min = INF
        seq = []
        for m in range(1, M + 1):
            reach = int(math.floor(w[m - 1] / h + 1e-12))
            if adversary_budget is not None:
                reach = min(reach, int(adversary_budget))
            lo = max(0, i - reach)
            hi = min(len(grid), i + reach + 1)
            vals = family[m - 1].values[lo:hi]
            j = int(np.argmin(vals)) + lo
            seq.append(float(grid[j]))
            if m >= start:
                tail_min = min(tail_min, float(family[m - 1].values[j]))
        margins[i] = tail_min - limit.values[i]
        witnesses.append(seq)
    report = VerificationReport.from_slacks(
        "mosco-m2", list(margins), tolerance,
        details={"family_size": M, "tail_start": start,
                 "grid_points": len(grid)})
    payload = {
        "grid": [float(v) for v in grid],
        "margins": [float(v) for v in margins],
        "tail_start": start,
        "windows": [float(v) for v in w],
        "witness_sequences": witnesses,
    }
    return MoscoReport(reports=[report], m2=payload)


def mosco_m1_check(family, limit: GridFunction, x_grid, *, windows=None,
                   tail_fraction: float = 0.5, interior_margin: int = 1,
                   tolerance: float = 1e-4) -> MoscoReport:
    """Recovery half of Mosco convergence, via conjugates on a common x-grid.

    For each target x, greedily pick y_m in the shrinking window around x
    minimizing f_m*(y_m); the limsup proxy is the tail maximum of those
    values, and the check passes iff it stays within tolerance above f*(x)
    at every interior target (the outermost interior_margin points on each
    side are reported but not gated).
    """
    grid = _common_grid(family, limit)
    del grid
    xs = np.asarray(x_grid, dtype=float)
    M = len(family)
    w = (default_windows(M) if windows is None
         else np.asarray(windows, dtype=float))
    start = _tail_start(M, tail_fraction)
    fstar = lft(limit, xs, name="limit*").values
    fmstar = [lft(fm, xs, name=f"f{m + 1}*").values
              for m, fm in enumerate(family)]
    h = float(xs[1] - xs[0])
    slacks_all = np.empty(len(xs))
    witnesses = []
    limsups = np.empty(len(xs))
    for i, x in enumerate(xs):
        tail_max = -INF
        seq = []
        for m in range(1, M + 1):
            reach = int(math.floor(w[m - 1] / h + 1e-12))
            lo = max(0, i - reach)
            hi = min(len(xs), i + reach + 1)
            vals = fmstar[m - 1][lo:hi]
            j = int(np.argmin(vals)) + lo
            seq.append(float(xs[j]))
            if m >= start:
                tail_max = max(tail_max, float(fmstar[m - 1][j]))
        limsups[i] = tail_max
        slacks_all[i] = fstar[i] - tail_max
        witnesses.append(seq)
    interior = slice(interior_margin, len(xs) - interior_margin)
    report = VerificationReport.from_slacks(
        "mosco-m1", list(slacks_all[interior]), tolerance,
        details={"family_size": M, "tail_start": start,
                 "interior_margin": interior_margin,
                 "targets": len(xs)})
    payload = {
        "targets": [float(v) for v in xs],
        "limsup_proxy": [float(v) for v in limsups],
        "conjugate_of_limit": [float(v) for v in fstar],
        "recovery_slack": [float(v) for v in slacks_all],
        "tail_start": start,
        "witness_sequences": witnesses,
    }
    return MoscoReport(reports=[report], m1=payload)


def uniform_properness_check(family, *, zero_tol: float = 1e-12
                             ) -> MoscoReport:
    """Find one bounded argument sequence: sup_m f_m(lam_m) < infinity.

    Pressure families admit the constant witness lam_m = 0 since their
    value at 0 is 0; otherwise the best constant grid witness is used.
    """
    if not family:
        raise ValueError("empty family")
    grid = family[0].grids[0]
    for fm in family[1:]:
        if np.any(fm.grids[0] != grid):
            raise ValueError("family members must share a grid")
    stack = np.stack([fm.values for fm in family])
    zero_idx = int(np.argmin(np.abs(grid)))
    found = False
    witness_value = None
    sup_value = INF
    if abs(grid[zero_idx]) <= zero_tol and \
            np.all(np.abs(stack[:, zero_idx]) <= zero_tol):
        found = True
        witness_value = float(grid[zero_idx])
        sup_value = float(np.max(stack[:, zero_idx]))
    else:
        sups = stack.max(axis=0)
        best = int(np.argmin(sups))
        if np.isfinite(sups[best]):
            found = True
            witness_value = float(grid[best])
            sup_value = float(sups[best])
    report = VerificationReport.from_slacks(
        "uniform-properness", [0.0 if found else -INF], 0.0,
        details={"witness": witness_value, "sup_value": sup_value,
                 "family_size": len(family)})
    payload = {"found": found, "witness_constant": witness_value,
               "sup_value": sup_value,
               "witness_sequence": [witness_value] * len(family)}
    return MoscoReport(reports=[report], properness=payload)


# ---------------------------------------------------------------------------
# CSV interchange


def write_grid_csv(path, fn: GridFunction):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if fn.k == 1:
            w.writerow(("x_or_lambda", "value"))
            for x, v in zip(fn.grids[0], fn.values):
                w.writerow((x, v))
        else:
            w.writerow(("x_or_lambda", "second_coordinate", "value"))
            for i, a in enumerate(fn.grids[0]):
                for j, b in enumerate(fn.grids[1]):
                    w.writerow((a, b, fn.values[i, j]))


def read_grid_csv(path, name: str = "") -> GridFunction:
    """Read a GridFunction CSV, accepting pressure-curve CSVs as well."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValueError(f"{path}: empty grid file")
    header = [c.strip().lower() for c in rows[0]]
    value_col = None
    for key in ("value", "pressure"):
        if key in header:
            value_col = header.index(key)
            break
    if value_col is None:
        raise ValueError(f"{path}: no value/pressure column")
    coord_cols = [i for i in range(value_col)
                  if header[i] not in ("mode", "ci_low", "ci_high")]
    if len(coord_cols) not in (1, 2):
        raise ValueError(f"{path}: need 1 or 2 coordinate columns")
    data = []
    for r in rows[1:]:
        if not r or not r[0].strip():
            continue
        coords = tuple(float(r[i]) for i in coord_cols)
        data.append((coords, float(r[value_col])))
    if len(coord_cols) == 1:
        data.sort()
        grid = np.array([c[0] for c, _ in data])
        values = np.array([v for _, v in data])
        return GridFunction((grid,), values, name)
    a = np.array(sorted({c[0] for c, _ in data}))
    b = np.array(sorted({c[1] for c, _ in data}))
    values = np.full((len(a), len(b)), INF)
    ia = {v: i for i, v in enumerate(a)}
    ib = {v: i for i, v in enumerate(b)}
    for (x, y), v in data:
        values[ia[x], ib[y]] = v
    return GridFunction((a, b), values, name)
