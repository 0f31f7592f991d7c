"""End-to-end pipelines behind the CLI subcommands.

Every pipeline builds its objects from one ExperimentConfig, writes CSV and
JSON artifacts into the configured output directory, and returns a RunResult
whose status the CLI turns into an exit code.  All iteration orders are
fixed, so identical (config, seed) pairs produce byte-identical artifacts in
exact mode.
"""

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import ExperimentConfig
from .conjugate import (GridFunction, MoscoReport, default_windows,
                        fenchel_young_check, lft, lft_at, mosco_m1_check,
                        mosco_m2_check, read_grid_csv,
                        uniform_properness_check, write_grid_csv)
from .convexsets import BoxShape, ConvexNbhd
from .entropy import (chebyshev_upper_check, entropy_estimate,
                      random_convex_event, subadditive_lemma_check)
from .errors import ConfigError, ImproperFunctionError
from .hypotheses import (check_decoupling, check_local_control,
                         doeblin_decoupling_certificate)
from .lattice import box_distance, rho_limit_check, tile
from .models import BlockField, MarkovField, conditioned, iid_field
from .pressure import (block_pressure_identity_check, compute_pressure_curve,
                       pressure_limit, pressure_subadditivity_check,
                       write_curve_csv)
from .reports import (PASS, VerificationReport, combine_status, write_csv,
                      write_report_json)


@dataclass
class RunResult:
    """Reports plus the artifact paths a pipeline wrote."""

    reports: list
    artifacts: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return combine_status([r.status for r in self.reports])


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_json(cfg: ExperimentConfig, path, reports, extra=None):
    # every sidecar records seed and mode so any run can be replayed
    payload = {"seed": cfg.seed, "mode": cfg.mode}
    if extra:
        payload.update(extra)
    write_report_json(path, reports, extra=payload)


def _require_scalar(cfg: ExperimentConfig, model, pipeline: str):
    if model.k != 1:
        raise ConfigError(
            f"[model] atoms: the {pipeline} pipeline needs scalar site "
            f"values, got k = {model.k}")


def _slope_bound(cfg: ExperimentConfig, model) -> float:
    if cfg.has("verify", "slope_bound"):
        return cfg.get_float("verify", "slope_bound")
    return float(np.max(np.abs(model.atoms)))


# ---------------------------------------------------------------------------
# duality verification


def verify_duality(cfg: ExperimentConfig) -> RunResult:
    """Pressure limit on the tilt grid, conjugate, entropy at each x, and
    the two-sided comparison between them.

    Check (a): every finite-volume estimate stays below -p* plus the grid
    margin.  Check (b): the final estimate matches -p* within the configured
    gap tolerance at the finest volume.
    """
    model = cfg.build_model()
    _require_scalar(cfg, model, "duality")
    lam_grid = cfg.lambda_grid()
    curve = compute_pressure_curve(model, lam_grid, n=0, mode="exact")
    p_fn = GridFunction((lam_grid,), curve.values, name="pressure")
    reports = [curve.convexity_check()]

    x_values = cfg.get_floats("verify", "x_values")
    radius = cfg.get_positive_float("verify", "radius")
    gap_tol = cfg.get_float("verify", "gap_tolerance")
    margin = (cfg.get_float("verify", "upper_margin_factor") * p_fn.step
              * _slope_bound(cfg, model))
    n_list = cfg.volumes()
    pstars = lft_at(p_fn, x_values)

    upper_slacks = []
    gap_slacks = []
    rows = []
    per_x = []
    unresolved = 0
    for x, pstar in zip(x_values, pstars):
        est = entropy_estimate(model, x, BoxShape((radius,)), n_list,
                               mode=cfg.mode, samples=cfg.samples,
                               seed=cfg.seed)
        x_upper = [math.inf if v == -math.inf else (-pstar + margin) - v
                   for v in est.values]
        upper_slacks.extend(x_upper)
        gap = est.s_est - (-pstar)
        if est.s_est == -math.inf and cfg.mode == "mc":
            # zero sampled hits say the probability is below resolution,
            # not that the estimate contradicts the conjugate
            unresolved += 1
            gap_slack = -math.inf
            status = "inconclusive"
        else:
            gap_slack = gap_tol - abs(gap)
            status = PASS if (min(x_upper) >= 0 and gap_slack >= 0) else "fail"
        gap_slacks.append(gap_slack)
        rows.append((x, est.s_est, -pstar, gap, gap_tol, status))
        per_x.append({"x": x, "s_est": est.s_est, "minus_pstar": -pstar,
                      "values": [float(v) for v in est.values],
                      "liminf_proxy": est.liminf_proxy})

    reports.append(VerificationReport.from_slacks(
        "duality-upper-bound", upper_slacks, 0.0, mode=cfg.mode,
        details={"margin": margin, "radius": radius, "per_x": per_x}))
    reports.append(VerificationReport.from_slacks(
        "duality-gap", gap_slacks, 0.0, mode=cfg.mode,
        inconclusive=unresolved > 0,
        details={"gap_tolerance": gap_tol, "radius": radius,
                 "volumes": list(n_list), "unresolved_x": unresolved}))

    curve_path = _out_path(cfg, "pressure_limit.csv")
    write_curve_csv(curve_path, curve)
    csv_path = _out_path(cfg, "duality.csv")
    write_csv(csv_path, ("x", "s_est", "minus_pstar", "gap", "tolerance",
                         "status"), rows)
    json_path = _out_path(cfg, "verify.json")
    _write_json(cfg, json_path, reports)
    return RunResult(reports, [curve_path, csv_path, json_path])


# ---------------------------------------------------------------------------
# Mosco pipeline


def _mosco_schedule(cfg: ExperimentConfig):
    count = cfg.get_int("mosco", "count")
    atom_count = cfg.get_int("mosco", "atom_count")
    ratio = cfg.get_float("mosco", "weight_ratio")
    if count < 2:
        raise ConfigError("[mosco] count: need at least two stages")
    if atom_count < 2:
        raise ConfigError("[mosco] atom_count: need at least two atoms")
    if not 0 < ratio < 1:
        raise ConfigError(f"[mosco] weight_ratio: must lie in (0, 1), "
                          f"got {ratio}")
    atoms = [Fraction(i, atom_count - 1) for i in range(atom_count)]
    raw = np.array([ratio ** i for i in range(atom_count)])
    weights = raw / raw.sum()
    return count, atoms, weights


def run_mosco_pipeline(cfg: ExperimentConfig) -> RunResult:
    """Truncation family of conditioned block models against its limit.

    Stage m conditions a block of side m + 1 (gap 0, alignment 1) on the
    first min(A, m + 2) atoms.  The conditioning event must carry mass at
    least 1 - 1/(m * block volume); otherwise the configuration is rejected
    with the measured masses.
    """
    count, atoms, weights = _mosco_schedule(cfg)
    base = iid_field(atoms, weights)
    lam_grid = cfg.lambda_grid()

    schedule = []
    violations = []
    for m in range(1, count + 1):
        block = m + 1
        kept = min(len(atoms), m + 2)
        nu = float(np.sum(weights[:kept]))
        block_mass = nu ** block
        required = 1.0 - 1.0 / (m * block)
        schedule.append({"stage": m, "block": block, "kept_atoms": kept,
                         "conditioning_mass": block_mass,
                         "required_mass": required})
        if block_mass < required:
            violations.append((m, block_mass, required))
    if violations:
        listing = "; ".join(f"stage {m}: mass {bm:.6g} < required {rq:.6g}"
                            for m, bm, rq in violations)
        raise ConfigError(f"[mosco] weight_ratio: conditioning masses fall "
                          f"below the volume-oblivious schedule ({listing})")

    family = []
    for entry in schedule:
        model_m = conditioned(base, entry["block"],
                              range(entry["kept_atoms"]))
        values = np.array([pressure_limit(model_m, lam) for lam in lam_grid])
        family.append(GridFunction((lam_grid,), values,
                                   name=f"stage{entry['stage']}"))
    limit_vals = np.array([pressure_limit(base, lam) for lam in lam_grid])
    limit = GridFunction((lam_grid,), limit_vals, name="limit")

    windows = default_windows(count, cfg.get_float("mosco", "window0"),
                              cfg.get_float("mosco", "window_decay"))
    tail_fraction = cfg.get_float("mosco", "tail_fraction")
    budget = (cfg.get_int("mosco", "adversary_budget")
              if cfg.has("mosco", "adversary_budget") else None)
    x_grid = np.linspace(cfg.get_float("mosco", "x_min"),
                         cfg.get_float("mosco", "x_max"),
                         cfg.get_int("mosco", "x_points"))

    bundle = MoscoReport(mass_schedule={"stages": schedule})
    bundle.merge(uniform_properness_check(family))
    bundle.merge(mosco_m2_check(
        family, limit, windows=windows, adversary_budget=budget,
        tail_fraction=tail_fraction,
        tolerance=cfg.get_float("mosco", "m2_tolerance")))
    bundle.merge(mosco_m1_check(
        family, limit, x_grid, windows=windows, tail_fraction=tail_fraction,
        tolerance=cfg.get_float("mosco", "m1_tolerance")))

    # structural sanity on one family member: block pressure identity
    sanity_model = conditioned(base, schedule[1]["block"],
                               range(schedule[1]["kept_atoms"]))
    bundle.reports.append(block_pressure_identity_check(
        sanity_model, lam_grid[::20]))

    limit_path = _out_path(cfg, "mosco_limit.csv")
    write_grid_csv(limit_path, limit)
    json_path = _out_path(cfg, "mosco.json")
    _write_json(cfg, json_path, bundle.reports,
                extra={"mosco": {k: v for k, v in bundle.to_dict().items()
                                 if k != "reports"}})
    return RunResult(bundle.reports, [limit_path, json_path],
                     extra={"bundle": bundle})


# ---------------------------------------------------------------------------
# smaller pipelines


def run_tiling(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    ell = model.invariance_step
    m_values = cfg.get_ints("subadditive", "m_values")
    n_values = cfg.get_ints("subadditive", "n_values")
    pairs = (list(zip(m_values, n_values)) if len(m_values) == len(n_values)
             else [(m, max(n_values)) for m in m_values])

    rows = []
    partition_slacks = []
    gap_slacks = []
    align_slacks = []
    for m, n in pairs:
        g = int(model.decoupling.g(m))
        t = tile(n, m, g, ell, model.dim)
        covered = t.k ** model.dim * m ** model.dim + len(t.margin)
        partition_slacks.append(0.0 if covered == n ** model.dim
                                else -math.inf)
        dists = [box_distance(a, b) for i, a in enumerate(t.sub_boxes)
                 for b in t.sub_boxes[i + 1:]]
        gap_slacks.append(min(d - g - 1 for d in dists) if dists
                          else math.inf)
        aligned = all(c % ell == 0 for b in t.sub_boxes for c in b.corner)
        align_slacks.append(0.0 if aligned else -math.inf)
        rows.append((m, n, g, ell, t.k, t.remainder, len(t.margin),
                     float(t.rho)))

    def worst_at(slacks):
        # the (m, n) pair of the first worst slack, the report's witness
        if not slacks:
            return None
        m, n = pairs[slacks.index(min(slacks))]
        return {"m": m, "n": n}

    reports = [
        VerificationReport.from_slacks(
            "tiling-partition", partition_slacks, 0.0,
            details={"pairs": pairs, "worst_at": worst_at(partition_slacks)}),
        VerificationReport.from_slacks(
            "tiling-gap-separation", gap_slacks, 0.0,
            details={"pairs": pairs, "worst_at": worst_at(gap_slacks)}),
        VerificationReport.from_slacks(
            "tiling-sublattice-alignment", align_slacks, 0.0,
            details={"step": ell, "worst_at": worst_at(align_slacks)}),
    ]
    if len(m_values) == len(n_values):
        reports.append(rho_limit_check(
            m_values, dict(pairs).__getitem__,
            lambda m: int(model.decoupling.g(m)), ell, model.dim))

    csv_path = _out_path(cfg, "tiling.csv")
    write_csv(csv_path, ("m", "n", "g", "ell", "k", "remainder",
                         "margin_sites", "rho"), rows)
    json_path = _out_path(cfg, "tiling.json")
    _write_json(cfg, json_path, reports)
    return RunResult(reports, [csv_path, json_path])


def run_hypotheses(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    m_sites = cfg.get_int("hypotheses", "m_sites")
    box_side = cfg.get_int("hypotheses", "box_side")
    events = cfg.get_int("hypotheses", "events")
    window = cfg.get_int("hypotheses", "window")
    shape_radius = cfg.get_positive_float("hypotheses", "shape_radius",
                                          "1.0")
    t = cfg.get_float("hypotheses", "t") if cfg.has("hypotheses", "t") else None
    alpha = (cfg.get_float("hypotheses", "alpha")
             if cfg.has("hypotheses", "alpha") else None)

    reports = [
        check_decoupling(model, m_sites, box_side, event_budget=events,
                         seed=cfg.seed),
        check_local_control(model, BoxShape((shape_radius,) * model.k),
                            t, alpha, event_budget=events,
                            seed=cfg.seed + 1, window=window),
    ]
    extra = {"decoupling_ratios":
             model.decoupling.ratios(cfg.volumes(), model.dim)}
    if isinstance(model, MarkovField):
        cert = doeblin_decoupling_certificate(
            model, max_gap=cfg.get_int("hypotheses", "max_gap"))
        extra["chain_certificate"] = {
            "gap": cert.gap, "cost": cert.cost,
            "cost_default": cert.cost_default,
            "kappa_by_gap": cert.kappa_by_gap,
        }
    json_path = _out_path(cfg, "hypotheses.json")
    _write_json(cfg, json_path, reports, extra=extra)
    return RunResult(reports, [json_path], extra=extra)


def run_pressure(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    _require_scalar(cfg, model, "pressure")
    lam_grid = cfg.lambda_grid()
    limit = compute_pressure_curve(model, lam_grid, n=0, mode="exact")
    reports = [limit.convexity_check()]
    artifacts = []

    limit_path = _out_path(cfg, "pressure_limit.csv")
    write_curve_csv(limit_path, limit)
    artifacts.append(limit_path)

    n_top = cfg.volumes()[-1]
    finite = compute_pressure_curve(model, lam_grid, n=n_top, mode=cfg.mode,
                                    samples=cfg.samples, seed=cfg.seed)
    finite_path = _out_path(cfg, f"pressure_n{n_top}.csv")
    write_curve_csv(finite_path, finite)
    artifacts.append(finite_path)

    if isinstance(model, BlockField):
        reports.append(block_pressure_identity_check(model, lam_grid[::10]))

    json_path = _out_path(cfg, "pressure.json")
    _write_json(cfg, json_path, reports, extra={"finite_volume": n_top})
    artifacts.append(json_path)
    return RunResult(reports, artifacts)


def run_entropy(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    _require_scalar(cfg, model, "entropy")
    x_values = cfg.get_floats("verify", "x_values")
    radii = cfg.entropy_radii()
    n_list = cfg.volumes()

    rows = []
    mono_slacks = []
    summary = []
    for x in x_values:
        by_radius = []
        for r in sorted(radii):
            est = entropy_estimate(model, x, BoxShape((r,)), n_list,
                                   mode=cfg.mode, samples=cfg.samples,
                                   seed=cfg.seed)
            by_radius.append((r, est))
            for n, v in zip(n_list, est.values):
                rows.append((x, r, n, v, cfg.mode))
            summary.append({"x": x, "radius": r, "s_est": est.s_est,
                            "liminf_proxy": est.liminf_proxy,
                            "is_null": est.is_null})
        if cfg.mode == "exact":
            # nested neighborhoods: larger radius never loses probability
            for (r1, e1), (r2, e2) in zip(by_radius, by_radius[1:]):
                for v1, v2 in zip(e1.values, e2.values):
                    if v1 == -math.inf:
                        mono_slacks.append(math.inf if v2 > -math.inf
                                           else 0.0)
                    else:
                        mono_slacks.append(v2 - v1)

    reports = []
    if cfg.mode == "exact":
        reports.append(VerificationReport.from_slacks(
            "entropy-radius-monotonicity", mono_slacks, 1e-12,
            details={"x_values": x_values, "radii": sorted(radii)}))

    csv_path = _out_path(cfg, "entropy.csv")
    write_csv(csv_path, ("x", "radius", "n", "log_prob_over_volume", "mode"),
              rows)
    json_path = _out_path(cfg, "entropy.json")
    _write_json(cfg, json_path, reports, extra={"estimates": summary})
    return RunResult(reports, [csv_path, json_path],
                     extra={"estimates": summary})


def run_chebyshev(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    events = cfg.get_int("chebyshev", "events")
    max_n = cfg.get_int("chebyshev", "max_n")
    if events < 1:
        raise ConfigError(f"[chebyshev] events: need at least one event, "
                          f"got {events}")
    if max_n < 1:
        raise ConfigError(f"[chebyshev] max_n: need a positive volume "
                          f"side, got {max_n}")
    rng = np.random.default_rng(cfg.seed)
    if model.k == 1:
        lam_grid = cfg.lambda_grid()
    else:
        axis = cfg.lambda_grid()[::10]
        lam_grid = np.array([(a, b) for a in axis for b in axis])

    slacks = []
    rows = []
    worst = None
    for i in range(events):
        n = int(rng.integers(1, max_n + 1))
        nbhd = random_convex_event(rng, model.k)
        rep = chebyshev_upper_check(model, nbhd, n, lam_grid)
        slack = rep.worst_slack
        slacks.append(slack)
        shape_kind = type(nbhd.shape).__name__
        rows.append((i, n, shape_kind) + nbhd.center
                    + (rep.details["bound_log"],
                       rep.details["event_log_prob"], slack, rep.status))
        if worst is None or slack < worst[1]:
            worst = (i, slack, rep.details)

    report = VerificationReport.from_slacks(
        "chebyshev-upper", slacks, 0.0,
        details={"events": events, "max_n": max_n,
                 "violations": sum(1 for s in slacks if s < 0),
                 "worst_event": {"index": worst[0], **worst[2]}})
    center_cols = tuple(f"center_{j + 1}" for j in range(model.k))
    csv_path = _out_path(cfg, "chebyshev.csv")
    write_csv(csv_path, ("event", "n", "shape") + center_cols
              + ("bound_log", "event_log_prob", "slack", "status"), rows)
    json_path = _out_path(cfg, "chebyshev.json")
    _write_json(cfg, json_path, [report])
    return RunResult([report], [csv_path, json_path])


def run_subadditive(cfg: ExperimentConfig) -> RunResult:
    model = cfg.build_model()
    _require_scalar(cfg, model, "subadditive")
    center = cfg.get_float("subadditive", "center")
    radius = cfg.get_positive_float("subadditive", "radius")
    eps = cfg.get_float("subadditive", "epsilon")
    delta = cfg.delta()
    nbhd = ConvexNbhd((center,), BoxShape((radius,)))
    m_values = cfg.get_ints("subadditive", "m_values")
    n_values = cfg.get_ints("subadditive", "n_values")
    lam_values = cfg.get_floats("subadditive", "lambda_values")

    reports = []
    rows = []
    skipped = []
    for m in m_values:
        g = int(model.decoupling.g(m))
        period = m + g + model.invariance_step
        for n in n_values:
            if n < period:
                skipped.append({"m": m, "n": n, "cell": period})
                continue
            rep = subadditive_lemma_check(model, nbhd, eps, m, n,
                                          delta=delta)
            reports.append(rep)
            rows.append(("two-scale", "", m, n, rep.worst_slack, rep.status))
            for lam in lam_values:
                prep = pressure_subadditivity_check(model, lam, m, n)
                reports.append(prep)
                rows.append(("pressure", lam, m, n, prep.worst_slack,
                             prep.status))

    csv_path = _out_path(cfg, "subadditive.csv")
    write_csv(csv_path, ("kind", "lambda", "m", "n", "slack", "status"),
              rows)
    json_path = _out_path(cfg, "subadditive.json")
    _write_json(cfg, json_path, reports, extra={"skipped_pairs": skipped})
    return RunResult(reports, [csv_path, json_path],
                     extra={"skipped": skipped})


def run_lft(cfg: ExperimentConfig, input_path: str) -> RunResult:
    """Conjugate a curve file onto the configured x grid."""
    try:
        fn = read_grid_csv(input_path, name=os.path.basename(input_path))
    except ImproperFunctionError as exc:
        raise ImproperFunctionError(f"{input_path}: {exc}") from exc
    targets = (cfg.x_grid() if fn.k == 1 else (cfg.x_grid(), cfg.x_grid()))
    conj = lft(fn, targets)
    reports = []
    if fn.k == 1:
        reports.append(fenchel_young_check(fn, conj))

    out_csv = _out_path(cfg, "conjugate.csv")
    write_grid_csv(out_csv, conj)
    json_path = _out_path(cfg, "lft.json")
    _write_json(cfg, json_path, reports,
                extra={"input": input_path,
                       "points": int(conj.values.size)})
    return RunResult(reports, [out_csv, json_path])
