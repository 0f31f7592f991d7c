"""The benchmark's workloads: generated inputs, operations and their checks.

``build(name, seed, workdir)`` writes one workload's INI configs and input
files into ``workdir`` and returns its operations.  Each operation is one
pipeline call made the way a user makes it (``cli.main`` in-process, or a
public library call) and builds a fresh model.  Its ``check`` runs after the
call, outside the timed region, and compares the artifacts with
``oracles`` or with properties the method must have; it raises CheckError
on a mismatch.

Sizes (sites, tilts, events, samples) are fixed per workload; the seed only
draws values (weights, transitions, centers, event streams).  Those values
still move the cost: a conditioned block's rejection rate, the volumes of
random events.  So ``build`` draws VARIANTS instances of the workload from
one seed, and a run cycles through them one round at a time: its figures
average several draws instead of resting on one.

A workload joins two operation groups.  It runs all six timed pipelines:
the ones neither group runs are fixed-size ``side`` operations, so that
each pipeline metric is measured on every workload; see README.md for
their sizes.
"""

import csv
import json
import math
import os
from fractions import Fraction as F

import numpy as np

import oracles as O

WORKLOADS = ("exact-laws", "mc-certificates")

VARIANTS = 8        # instances drawn per seed; a run cycles through them
TOL = 1e-8          # relative tolerance of exact comparisons
EXP_DELTA = 1e-12   # failure probability of each statistical bound



class CheckError(Exception):
    """An operation's output disagrees with the reference."""


def need(cond, msg):
    if not cond:
        raise CheckError(msg)


def close(a, b, tol=TOL):
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


class Op:
    """One pipeline call.  ``run(out_dir)`` returns an exit code (CLI
    operations) or the library result; ``check(out_dir, result)`` raises
    CheckError when the output is wrong.  ``known_fault`` is (exit code,
    reason) for an operation that fails that way because of a documented
    fault in ldplab: it counts as failed, not as wrong output."""

    def __init__(self, name, pipeline, run, check, expect=None,
                 known_fault=None):
        self.name = name
        self.pipeline = pipeline
        self.run = run
        self.check = check
        self.expect = expect
        self.known_fault = known_fault


# ---------------------------------------------------------------------------
# generated inputs


def _row(rng, A, floor):
    w = floor + (1.0 - A * floor) * rng.dirichlet(np.ones(A))
    head = [round(float(x), 6) for x in w[:-1]]
    return head + [round(1.0 - sum(head), 6)]


def iid_spec(rng, atoms, floor=0.1):
    return {"kind": "iid", "atoms": [F(a) for a in atoms],
            "weights": _row(rng, len(atoms), floor)}


def markov_spec(rng, atoms, floor=0.12):
    return {"kind": "markov", "atoms": [F(a) for a in atoms],
            "transition": [_row(rng, len(atoms), floor) for _ in atoms]}


def biased_chain(rng):
    """Two-state chain on -1, 1 whose rows both step up with probability
    0.6-0.8: its stationary mean lies in [0.2, 0.6], so p(lam) and
    p(-lam) differ by more than a Monte Carlo interval's width."""
    up = [round(float(u), 6) for u in rng.uniform(0.6, 0.8, size=2)]
    return {"kind": "markov", "atoms": [F(-1), F(1)],
            "transition": [[round(1.0 - u, 6), u] for u in up]}


def block_spec(base, block, keep=None):
    spec = dict(base, kind="conditioned" if keep else "product",
                base=base["kind"], block=block)
    if keep:
        spec["keep"] = list(keep)
    return spec


def _atom_text(a):
    return f"({a[0]}, {a[1]})" if isinstance(a, tuple) else str(a)


def model_ini(spec):
    lines = ["[model]", f"kind = {spec['kind']}"]
    if spec["kind"] in ("product", "conditioned"):
        lines += [f"base = {spec['base']}", f"block = {spec['block']}"]
        if "keep" in spec:
            lines.append("keep = " + ", ".join(map(str, spec["keep"])))
    sep = "; " if isinstance(spec["atoms"][0], tuple) else ", "
    lines.append("atoms = " + sep.join(_atom_text(a) for a in spec["atoms"]))
    if "weights" in spec:
        lines.append("weights = " + ", ".join(map(repr, spec["weights"])))
    if "transition" in spec:
        lines.append("transition = " + "; ".join(
            ", ".join(map(repr, r)) for r in spec["transition"]))
    for key in ("scale", "offset", "budget"):
        if key in spec:
            lines.append(f"{key} = {spec[key]!r}")
    return "\n".join(lines) + "\n"


def write_config(path, spec, sections):
    text = model_ini(spec)
    for section, keys in sections.items():
        text += f"\n[{section}]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items())
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _join(values):
    return ", ".join(repr(v) for v in values)


def mean_of(spec):
    """Stationary mean of the site value (d = 1 scalar specs)."""
    eps = 1e-6
    p = O.limit_pressure(spec, [-eps, eps])
    return float(p[1] - p[0]) / (2 * eps)


def pick_x(rng, spec, count, spread):
    """Seeded window centers around the mean, inside the support."""
    vals = sorted(float(a) for a in spec["atoms"])
    lo, hi = vals[0], vals[-1]
    if "scale" in spec:
        lo, hi = sorted((spec["scale"] * lo + spec["offset"],
                         spec["scale"] * hi + spec["offset"]))
    pad = 0.15 * (hi - lo)
    mu = mean_of(spec)
    xs = mu + rng.uniform(-spread, spread, size=count)
    return [round(float(np.clip(x, lo + pad, hi - pad)), 3) for x in xs]


# ---------------------------------------------------------------------------
# reading artifacts


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reports(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        data = json.load(fh)
    return data, {r["inequality"]: r for r in data["reports"]}


def require_pass(by_name, names):
    for name in names:
        need(name in by_name, f"report {name} missing")
        need(by_name[name]["status"] == "pass",
             f"{name} is {by_name[name]['status']}")


def check_curve(path, spec, n, mode="exact", samples=None):
    """A pressure curve CSV against the oracle (n = 0: limit)."""
    rows = read_csv(path)
    lams = np.array([float(r["lambda_1"]) for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    need(all(r["mode"] == mode for r in rows), f"{path}: mode column")
    if mode == "exact":
        ref = (O.limit_pressure(spec, lams) if n == 0
               else O.finite_pressure(spec, lams, n))
        for lam, v, r in zip(lams, vals, ref):
            need(close(v, r), f"{os.path.basename(path)} at lambda={lam}: "
                 f"{v!r} != oracle {r!r}")
        return
    m1 = O.log_mgf(spec, lams, n)
    m2 = O.log_mgf(spec, 2 * lams, n)
    for i, lam in enumerate(lams):
        lo, hi = O.mc_pressure_interval(
            n, m1[i], m2[i], O.max_tilted_sum(spec, lam, n), samples,
            EXP_DELTA)
        need(lo - 1e-12 <= vals[i] <= hi + 1e-12,
             f"mc pressure at lambda={lam}: {vals[i]!r} outside "
             f"[{lo:.6g}, {hi:.6g}]")
        need(float(rows[i]["ci_low"]) <= float(rows[i]["ci_high"]),
             f"mc interval inverted at lambda={lam}")


class Laws:
    """Oracle sum laws of one spec, computed once per check."""

    def __init__(self, spec):
        self.spec = spec
        self._laws = {}

    def law(self, n):
        if n not in self._laws:
            self._laws[n] = (O.multinomial_law(self.spec, n)
                             if isinstance(self.spec["atoms"][0], tuple)
                             else O.sum_law(self.spec, n))
        return self._laws[n]

    def window(self, n, center, radius, shape="box"):
        c = np.atleast_1d(center)
        r = radius if shape == "ball" else np.atleast_1d(radius)
        return O.window_log_prob(self.law(n), n, c, shape, r)


def check_window(laws, n, x, radius, value, mode, samples=None):
    """One normalized window log-probability against the oracle."""
    ref = laws.window(n, x, radius)
    if mode == "exact":
        expect = ref / n if ref > -math.inf else -math.inf
        need(close(value, expect),
             f"window x={x} r={radius} n={n}: {value!r} != oracle {expect!r}")
        return
    hits = 0 if value == -math.inf else round(math.exp(value * n) * samples)
    need(O.hits_within(hits, samples, math.exp(ref), EXP_DELTA),
         f"mc window x={x} r={radius} n={n}: {hits} hits of {samples}, "
         f"oracle p={math.exp(ref):.6g}")


# ---------------------------------------------------------------------------
# operations


class Workload:
    def __init__(self, name, seed, workdir):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.seed = seed
        self.dir = workdir
        self.ops = []
        os.makedirs(workdir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def cli(self, name, pipeline, argv, check, expect=0, known_fault=None):
        def run(out):
            from ldplab import cli
            return cli.main(argv + ["--out", out, "--quiet"])
        self.ops.append(Op(name, pipeline, run, check, expect, known_fault))

    def config(self, name, spec, **sections):
        return write_config(self.path(name + ".ini"), spec, sections)

    # -- duality pipelines ------------------------------------------------

    def verify(self, name, spec, n_list, xs, radius, mode="exact",
               samples=None):
        sections = {
            "volumes": {"n_list": _join(n_list)},
            "verify": {"x_values": _join(xs), "radius": repr(radius),
                       "gap_tolerance": "1.0",
                       "upper_margin_factor": "10.0"},
            "run": {"seed": str(self.seed), "mode": mode,
                    "samples": str(samples or 4000)},
        }
        cfg = self.config(name, spec, **sections)
        laws = Laws(spec)
        pick = np.random.default_rng([self.seed, 7, len(self.ops)])

        def check(out, code):
            data, by = reports(out, "verify.json")
            require_pass(by, ["pressure-convexity", "duality-upper-bound",
                              "duality-gap"])
            check_curve(os.path.join(out, "pressure_limit.csv"), spec, 0)
            lams = np.linspace(-5.0, 5.0, 201)
            pstar = O.conjugate_1d(lams, O.limit_pressure(spec, lams), xs)
            rows = read_csv(os.path.join(out, "duality.csv"))
            need(len(rows) == len(xs), "duality.csv row count")
            for row, x, ps in zip(rows, xs, pstar):
                need(close(float(row["minus_pstar"]), -ps, 1e-9),
                     f"-p*({x}) = {row['minus_pstar']} != oracle {-ps!r}")
                check_window(laws, n_list[-1], x, radius, float(row["s_est"]),
                             mode, samples)
            per_x = by["duality-upper-bound"]["details"]["per_x"]
            i = int(pick.integers(len(xs)))
            j = int(pick.integers(len(n_list)))
            v = per_x[i]["values"][j]
            check_window(laws, n_list[j], xs[i], radius,
                         -math.inf if v == "-inf" else float(v), mode,
                         samples)

        argv = ["verify", "--config", cfg]
        self.cli(name, "verify", argv, check)

    def entropy(self, name, spec, n_list, xs, radii, mode="exact",
                samples=None):
        sections = {
            "volumes": {"n_list": _join(n_list)},
            "verify": {"x_values": _join(xs)},
            "entropy": {"radii": _join(radii)},
            "run": {"seed": str(self.seed), "mode": mode,
                    "samples": str(samples or 4000)},
        }
        cfg = self.config(name, spec, **sections)
        laws = Laws(spec)
        pick = np.random.default_rng([self.seed, 11, len(self.ops)])

        def check(out, code):
            data, by = reports(out, "entropy.json")
            if mode == "exact":
                require_pass(by, ["entropy-radius-monotonicity"])
            rows = read_csv(os.path.join(out, "entropy.csv"))
            need(len(rows) == len(xs) * len(radii) * len(n_list),
                 "entropy.csv row count")
            chosen = (rows if mode == "mc" else
                      [rows[i] for i in pick.choice(len(rows), 4,
                                                    replace=False)])
            for r in chosen:
                check_window(laws, int(r["n"]), float(r["x"]),
                             float(r["radius"]),
                             float(r["log_prob_over_volume"]), mode, samples)

        # mc mode has no verdict to report, and a run without reports is
        # inconclusive by the CLI's exit-code policy
        self.cli(name, "entropy", ["entropy", "--config", cfg], check,
                 expect=0 if mode == "exact" else 2)

    def pressure(self, name, spec, n_top, mode="exact", samples=None,
                 lam_range=(-5.0, 5.0, 201)):
        sections = {
            "volumes": {"n_list": str(n_top)},
            "grids": {"lambda_min": repr(lam_range[0]),
                      "lambda_max": repr(lam_range[1]),
                      "lambda_points": str(lam_range[2])},
            "run": {"seed": str(self.seed), "mode": mode,
                    "samples": str(samples or 4000)},
        }
        cfg = self.config(name, spec, **sections)
        names = ["pressure-convexity"]
        if spec["kind"] in ("product", "conditioned"):
            names.append("block-pressure-identity")

        def check(out, code):
            data, by = reports(out, "pressure.json")
            require_pass(by, names)
            check_curve(os.path.join(out, "pressure_limit.csv"), spec, 0)
            check_curve(os.path.join(out, f"pressure_n{n_top}.csv"), spec,
                        n_top, mode, samples)

        self.cli(name, "pressure", ["pressure", "--config", cfg], check)

    # -- Chernoff and subadditivity -----------------------------------------

    def chebyshev(self, name, spec, events, max_n):
        cfg = self.config(name, spec,
                          chebyshev={"events": str(events),
                                     "max_n": str(max_n)},
                          run={"seed": str(self.seed)})
        planar = isinstance(spec["atoms"][0], tuple)
        k = 2 if planar else 1
        axis = np.linspace(-5.0, 5.0, 201)
        grid = (np.array([(a, b) for a in axis[::10] for b in axis[::10]])
                if planar else axis[:, None])
        laws = Laws(spec)
        pick = np.random.default_rng([self.seed, 13, len(self.ops)])

        def pressure_n(n):
            if planar:
                return O.planar_log_mgf(spec, grid)
            return O.finite_pressure(spec, grid[:, 0], n)

        def check(out, code):
            data, by = reports(out, "chebyshev.json")
            require_pass(by, ["chebyshev-upper"])
            need(by["chebyshev-upper"]["events"] == events, "event count")
            rows = read_csv(os.path.join(out, "chebyshev.csv"))
            need(len(rows) == events, "chebyshev.csv row count")
            # the event stream is numpy's default_rng(seed), drawn in the
            # documented order: n, center, then shape
            rng = np.random.default_rng(self.seed)
            stream = []
            for row in rows:
                n = int(rng.integers(1, max_n + 1))
                center = rng.uniform(-1.2, 1.2, size=k)
                if k == 1 or rng.random() < 0.5:
                    shape, radius = "box", rng.uniform(0.05, 1.0, size=k)
                else:
                    shape, radius = "ball", float(rng.uniform(0.05, 1.0))
                need(int(row["n"]) == n and all(
                    float(row[f"center_{i + 1}"]) == center[i]
                    for i in range(k)), f"event {row['event']} stream")
                need(row["shape"] == ("BoxShape" if shape == "box"
                                      else "BallShape"), "event shape")
                need(float(row["bound_log"]) >= float(row["event_log_prob"]),
                     f"event {row['event']}: Chernoff bound below P")
                stream.append((n, center, shape, radius))
            for i in pick.choice(events, min(5, events), replace=False):
                n, center, shape, radius = stream[i]
                row = rows[i]
                ref = laws.window(n, center, radius, shape)
                need(close(float(row["event_log_prob"]), ref),
                     f"event {i}: log P {row['event_log_prob']} != {ref!r}")
                spread = (np.abs(grid) @ radius if shape == "box"
                          else np.linalg.norm(grid, axis=1) * radius)
                expo = grid @ center - spread - pressure_n(n)
                expo[~np.any(grid, axis=1)] = 0.0
                bound = -n * float(np.max(expo))
                need(close(float(row["bound_log"]), bound),
                     f"event {i}: bound {row['bound_log']} != {bound!r}")

        self.cli(name, "chebyshev", ["chebyshev", "--config", cfg], check)

    def subadditive(self, name, spec):
        cfg = self.config(name, spec, run={"seed": str(self.seed)})
        laws = Laws(spec)

        def check(out, code):
            data, by = reports(out, "subadditive.json")
            need(data["reports"], "no subadditive reports")
            lam = iter(())
            for rep in data["reports"]:
                d = rep["details"]
                need(rep["status"] == "pass", f"{rep['inequality']} "
                     f"m={d['m']} n={d['n']} is {rep['status']}")
                if rep["inequality"] == "two-scale-subadditivity":
                    # each two-scale report is followed by one pressure
                    # report per [subadditive] lambda_values entry
                    lam = iter((-1.0, 0.5, 1.0))
                    ref = laws.window(d["n"], 0.0, 0.75)
                    need(close(d["lhs_per_site"], ref / d["n"]),
                         f"two-scale lhs at n={d['n']}")
                    continue
                t = next(lam)
                for key, size in (("p_n", d["n"]), ("p_m", d["m"])):
                    ref = float(O.finite_pressure(spec, t, size)[0])
                    need(close(d[key], ref),
                         f"{key} at lambda={t} m={d['m']} n={d['n']}")

        self.cli(name, "subadditive", ["subadditive", "--config", cfg],
                 check)

    # -- hypotheses, Mosco, conjugates ---------------------------------------

    def hypotheses(self, name, spec, events, independent):
        cfg = self.config(name, spec, hypotheses={"events": str(events)},
                          run={"seed": str(self.seed)})

        def check(out, code):
            data, by = reports(out, "hypotheses.json")
            require_pass(by, ["asymptotic-decoupling", "local-control"])
            # the covering certificate keeps every atom, so the joint
            # event equals the conditioning event: slack 0 on every event
            need(abs(by["local-control"]["worst_slack"]) <= 1e-9,
                 "local-control slack under the covering certificate")
            if independent:
                need(abs(by["asymptotic-decoupling"]["worst_slack"]) <= 1e-9,
                     "independent sites decouple at zero cost")
            if spec["kind"] == "markov" and "scale" not in spec:
                P = O.transition(spec)
                pi = O.stationary(P)
                cert = data["chain_certificate"]
                for h, kappa in cert["kappa_by_gap"].items():
                    ref = float(np.min(np.linalg.matrix_power(P, int(h))
                                       / pi[None, :]))
                    need(close(kappa, ref, 1e-9), f"kappa({h})")

        self.cli(name, "hypotheses", ["check-hypotheses", "--config", cfg],
                 check)

    def mosco(self, name, count, lam_points):
        atom_count, ratio = 10, 0.05
        spec = {"kind": "iid", "atoms": [F(i, 9) for i in range(10)],
                "weights": [ratio ** i for i in range(10)]}
        cfg = self.config(name, spec,
                          grids={"lambda_points": str(lam_points)},
                          mosco={"count": str(count),
                                 "atom_count": str(atom_count),
                                 "weight_ratio": repr(ratio)},
                          run={"seed": str(self.seed)})

        def check(out, code):
            data, by = reports(out, "mosco.json")
            # properness: every pressure vanishes at lam = 0; the block
            # identity is exact for block models; m1/m2: the truncation
            # family converges to its limit under this mass schedule
            require_pass(by, ["uniform-properness", "block-pressure-identity",
                              "mosco-m1", "mosco-m2"])
            rows = read_csv(os.path.join(out, "mosco_limit.csv"))
            lams = np.array([float(r["x_or_lambda"]) for r in rows])
            ref = O.limit_pressure(spec, lams)
            for lam, r, v in zip(lams, rows, ref):
                need(close(float(r["value"]), v), f"mosco limit at {lam}")

        self.cli(name, "mosco", ["mosco", "--config", cfg], check)

    def lft2d(self, name, side, x_points):
        rng = self.rng
        l1 = np.linspace(-2.0, 2.0, side)
        l2 = np.linspace(-1.5, 1.5, side)
        a, b = rng.uniform(0.5, 2.0, size=2)
        vals = (a * l1[:, None] ** 2 + b * l2[None, :] ** 2
                + 0.3 * rng.random((side, side)))
        src = self.path(name + "_input.csv")
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("x_or_lambda", "second_coordinate", "value"))
            for i, u in enumerate(l1):
                for j, v in enumerate(l2):
                    w.writerow((repr(float(u)), repr(float(v)),
                                repr(float(vals[i, j]))))
        cfg = self.config(name, {"kind": "iid", "atoms": [F(-1), F(1)],
                                 "weights": [0.5, 0.5]},
                          grids={"x_min": "-3.0", "x_max": "3.0",
                                 "x_points": str(x_points)})
        xs = np.linspace(-3.0, 3.0, x_points)

        def check(out, code):
            ref = O.conjugate_2d(l1, l2, vals, xs, xs)
            rows = read_csv(os.path.join(out, "conjugate.csv"))
            need(len(rows) == x_points ** 2, "conjugate.csv size")
            got = np.array([float(r["value"]) for r in rows]).reshape(
                x_points, x_points)
            err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
            need(err <= 1e-12, f"2-D conjugate off brute force by {err:.3g}")

        # a 2-D conjugate carries no property check, so the run reports no
        # verdict and exits 2 (inconclusive) by the CLI's exit-code policy
        self.cli(name, "lft", ["lft", "--config", cfg, src], check, expect=2)

    # -- library calls ------------------------------------------------------

    def library(self, name, pipeline, run, check):
        self.ops.append(Op(name, pipeline, lambda out: run(), check))

    def d2_box(self, spec, side, xs, radius):
        """entropy_estimate and a finite pressure curve on a d = 2 box."""
        n_list = (side // 2, side - 2, side)
        laws = Laws(spec)
        lams = np.linspace(-5.0, 5.0, 201)

        def model():
            from ldplab import iid_field
            return iid_field([float(a) for a in spec["atoms"]],
                             O.weights(spec), dim=2)

        def run_entropy():
            from ldplab import convexsets, entropy
            m = model()
            return [entropy.entropy_estimate(
                m, x, convexsets.BoxShape((radius,)), n_list).values
                for x in xs]

        def check_entropy(out, values):
            for x, vals in zip(xs, values):
                for n, v in zip(n_list, vals):
                    ref = laws.window(n * n, x, radius)
                    ref = ref / (n * n) if ref > -math.inf else ref
                    need(close(v, ref), f"d=2 window x={x} n={n}")

        def run_pressure():
            from ldplab import pressure
            return pressure.compute_pressure_curve(model(), lams,
                                                   n=side).values

        def check_pressure(out, values):
            ref = O.finite_pressure(spec, lams, 1)
            for lam, v, r in zip(lams, values, ref):
                need(close(v, r), f"d=2 pressure at {lam}")

        self.library("d2-entropy", "entropy", run_entropy, check_entropy)
        self.library("d2-pressure", "pressure", run_pressure, check_pressure)

    def residual(self, name, spec, direction, independent):
        """residual_beta_check on a scalarized model."""

        def run():
            from ldplab import config, models, pressure
            path = self.path(name + ".ini")
            base = config.load_config(path).build_model()
            return pressure.residual_beta_check(
                models.scalarize(base, direction), seed=self.seed)

        write_config(self.path(name + ".ini"), spec, {})
        values = O.atom_array(spec) @ np.atleast_1d(direction)

        def check(out, rep):
            need(rep.status == "pass", f"residual-beta is {rep.status}")
            floor = rep.details["log_beta"]
            need(floor <= float(values.min()) + 1e-12,
                 "covering certificate floor above the smallest value")
            moment = rep.worst_slack + floor
            if independent:
                # independent sites: the conditional moment ignores F
                ref = float(O.lse(np.log(O.weights(spec)) + values))
                need(close(moment, ref), f"log moment {moment!r} != {ref!r}")
            else:
                need(values.min() - 1e-9 <= moment <= values.max() + 1e-9,
                     "log moment outside the value range")

        self.library(name, "hypotheses", run, check)

    def budget_under_scale(self):
        """pressure with [model] budget below the support, under scale.

        The same config without ``scale`` exits 2 (budget exceeded); the
        affine wrapper must enforce the same budget.
        """
        spec = {"kind": "iid", "atoms": [F(-1), F(0), F(1)],
                "weights": [0.3, 0.4, 0.3], "budget": 10, "scale": 2.0}
        cfg = self.config("budget-under-scale", spec,
                          volumes={"n_list": "6, 12"})

        self.cli("budget-under-scale", "pressure",
                 ["pressure", "--config", cfg], lambda out, code: None,
                 expect=2, known_fault=(0, "budget ignored under scale"))

    # -- side operations ------------------------------------------------------

    def side(self, pipelines):
        """Fixed-size runs of the pipelines neither group of a workload
        runs.

        Each takes most of a second: a side operation of a fifth of a
        second varied by a quarter from call to call on a shared 2-vCPU
        host, and its metric spread past the bound from run to run.  Their cost barely
        depends on the seed: the Chernoff events keep n small, where a
        tilt's cost is per-call overhead, not law size, and 1500 random
        hypothesis events average out the seed's draws.
        """
        spec = iid_spec(self.rng, (-1, 0, 1))
        if "chebyshev" in pipelines:
            self.chebyshev("side-chebyshev", spec, 80, 4)
        if "hypotheses" in pipelines:
            self.hypotheses("side-hypotheses", spec, 1500, independent=True)
        if "mosco" in pipelines:
            self.mosco("side-mosco", count=40, lam_points=201)


# ---------------------------------------------------------------------------
# operation groups and the two workloads


def sum_law_ops(b):
    """Exact verify, entropy and pressure on wide-support sum laws."""
    rng = b.rng
    r = float(rng.uniform(0.25, 0.4))
    geo = {"kind": "iid", "atoms": [F(i, 9) for i in range(10)],
           "weights": [r ** i for i in range(10)]}
    mk3 = markov_spec(rng, (-1, 0, 1))
    cond = block_spec(markov_spec(rng, (-1, 0, 1, 2)), 3, keep=(0, 1, 3))
    aff = dict(iid_spec(rng, (-1, 0, 1, 2)), scale=0.5, offset=0.25)
    for name, spec, n_list, radius in (
            ("geo10", geo, (15, 30, 45), 0.025),
            ("markov3", mk3, (15, 30, 45), 0.05),
            ("cond-block", cond, (30, 60, 90), 0.05),
            ("affine", aff, (15, 30, 45), 0.05)):
        xs = pick_x(rng, spec, 3, 0.3)
        b.verify(f"{name}-verify", spec, n_list, xs, radius)
        b.entropy(f"{name}-entropy", spec, n_list, xs, (0.2, 0.1, 0.05))
        b.pressure(f"{name}-pressure", spec, n_list[-1])
    box = iid_spec(rng, (-1, 0, 1))
    b.d2_box(box, 8, pick_x(rng, box, 2, 0.3), 0.1)
    b.budget_under_scale()


def chernoff_ops(b):
    """Chernoff events and subadditivity over small, re-requested laws."""
    rng = b.rng
    fair = {"kind": "iid", "atoms": [F(-1), F(1)], "weights": [0.5, 0.5]}
    mk2 = markov_spec(rng, (-1, 1), floor=0.15)
    planar = {"kind": "iid", "atoms": [(F(0), F(0)), (F(1), F(0)),
                                       (F(0), F(1))],
              "weights": _row(rng, 3, 0.15)}
    b.chebyshev("fair-chebyshev", fair, 30, 24)
    b.chebyshev("biased-chebyshev", iid_spec(rng, (-1, 0, 1)), 25, 24)
    b.chebyshev("markov2-chebyshev", mk2, 25, 24)
    b.chebyshev("product-chebyshev", block_spec(mk2, 3), 25, 24)
    b.chebyshev("planar-chebyshev", planar, 6, 12)
    b.subadditive("fair-subadditive", fair)
    b.subadditive("markov2-subadditive", mk2)


def mc_ops(b):
    """Monte Carlo verify, entropy and pressure: the sampler's work."""
    # Sized so that every statistical check can fail (README.md, "What each
    # operation checks"): with 1000 samples a hit count may stray from its
    # mean by at most 0.14 of the samples, and at n = 4 the pressure
    # interval excludes 0 at tilt -1 or 1 of each model (the grid is -1, 0,
    # 1: convexity needs three points).
    rng = b.rng
    fair = {"kind": "iid", "atoms": [F(-1), F(1)], "weights": [0.5, 0.5]}
    mk2 = biased_chain(rng)
    cond = block_spec(markov_spec(rng, (-1, 0, 1)), 4, keep=(0, 2))
    samples = 1000
    for name, spec in (("fair", fair), ("markov2", mk2), ("cond-block", cond)):
        x = pick_x(rng, spec, 1, 0.05)
        b.verify(f"{name}-verify-mc", spec, (8,), x, 0.15, "mc", samples)
        b.entropy(f"{name}-entropy-mc", spec, (8,), x, (0.3, 0.15), "mc",
                  samples)
        b.pressure(f"{name}-pressure-mc", spec, 4, "mc", samples,
                   (-1.0, 1.0, 3))


def cylinder_ops(b):
    """Hypothesis checks, residual bounds, Mosco and a 2-D conjugate."""
    rng = b.rng
    mk2 = markov_spec(rng, (-1, 1), floor=0.15)
    prod = block_spec(iid_spec(rng, (-1, 0, 1)), 3)
    cond = block_spec(markov_spec(rng, (-1, 0, 1)), 4, keep=(0, 2))
    aff = dict(markov_spec(rng, (-1, 0, 1)), scale=1.5, offset=-0.5)
    b.hypotheses("markov2-hypotheses", mk2, 250, independent=False)
    b.hypotheses("product-hypotheses", prod, 250, independent=True)
    b.hypotheses("cond-block-hypotheses", cond, 250, independent=False)
    b.hypotheses("affine-hypotheses", aff, 250, independent=False)
    planar = {"kind": "iid", "atoms": [(F(0), F(0)), (F(1), F(0)),
                                       (F(0), F(1))],
              "weights": _row(rng, 3, 0.15)}
    b.residual("planar-residual", planar, (0.6, -0.8), independent=True)
    b.residual("markov2-residual", mk2, (0.5,), independent=False)
    b.residual("product-residual", block_spec(iid_spec(rng, (-1, 1)), 3),
               (-0.7,), independent=True)
    b.mosco("mosco", count=40, lam_points=301)
    b.lft2d("lft-2d", 31, 41)


# Two workloads, not one per operation group: the benchmark's time budget
# allows four 25-second workloads or two 55-second ones, and on a shared
# host the longer runs spread less (README.md, Steadiness).  Each pipeline
# metric still falls to one group per workload.


def exact_laws(b):
    sum_law_ops(b)
    chernoff_ops(b)
    b.side(("hypotheses", "mosco"))


def mc_certificates(b):
    mc_ops(b)
    cylinder_ops(b)
    b.side(("chebyshev",))


COMPOSE = {"exact-laws": exact_laws, "mc-certificates": mc_certificates}


def build(name, seed, workdir):
    """VARIANTS operation lists, each a whole round of the workload drawn
    from its own sub-seed; the sub-seeds of distinct seeds never meet."""
    variants = []
    for i in range(VARIANTS):
        b = Workload(name, seed * VARIANTS + i,
                     os.path.join(workdir, f"v{i}"))
        COMPOSE[name](b)
        variants.append(b.ops)
    return variants
