"""Verifiers for the decoupling and local-control hypotheses.

Both checks are exact on sampled cylinder events: probabilities come from
the model's cylinder calculus (no Monte Carlo), the events are drawn at
random.  A pass therefore certifies the inequality on the sampled events
only; the reports say so explicitly.  For strictly positive chains the
module also computes honest certificates (decoupling cost from the
minorization ratio, local-control alpha from exact boundary conditionals)
instead of trusting the claimed constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import (FieldModel, LocalControlParams, MarkovField,
                     _stationary_distribution)
from .numerics import NEG_INF
from .reports import VerificationReport


def _random_constraints(sites, support, rng, p_skip=0.35):
    """Random cylinder event: per-site non-empty allowed atom subsets."""
    out = {}
    for s in sites:
        if rng.random() < p_skip:
            continue
        size = 1 + int(rng.integers(len(support)))
        pick = rng.choice(len(support), size=size, replace=False)
        out[s] = frozenset(int(support[i]) for i in pick)
    return out


def _coverage_note(n_events):
    return (f"exact probabilities on {n_events} sampled cylinder events; "
            "the universal quantifier over events is not certified")


def check_decoupling(model: FieldModel, m: int, n: int, *, event_budget=100,
                     seed=0, c_claimed=None, g_claimed=None,
                     tolerance=1e-9) -> VerificationReport:
    """Test  log P(C and D) >= log P(C) + log P(D) - c(n)  on random events.

    C is a cylinder on a set S of m sites, D a cylinder supported in a box
    of side n, with dist(S, box) > g(n).  S is placed immediately to the
    left of the box at the smallest admissible distance, which is the
    hardest placement for a claimed gap.
    """
    if model.dim != 1:
        raise ValueError("decoupling check is implemented for d = 1 models")
    g = model.decoupling.g(n) if g_claimed is None else float(g_claimed)
    c = model.decoupling.c(n) if c_claimed is None else float(c_claimed)
    gap = int(math.floor(g)) + 1          # smallest integer distance > g
    s_sites = tuple((-gap - i,) for i in range(m))
    rng = np.random.default_rng(seed)
    support = model.support_indices()
    slacks = []
    for _ in range(event_budget):
        d_count = 1 + int(rng.integers(min(n, 6)))
        d_positions = rng.choice(n, size=d_count, replace=False)
        cons_c = _random_constraints(s_sites, support, rng)
        cons_d = _random_constraints(
            tuple((int(p),) for p in sorted(d_positions)), support, rng)
        log_c = model.cylinder_log_prob(cons_c)
        log_d = model.cylinder_log_prob(cons_d)
        joint = dict(cons_c)
        joint.update(cons_d)
        log_joint = model.cylinder_log_prob(joint)
        slacks.append(log_joint - log_c - log_d + c)
    details = {
        "model": model.describe(),
        "m_sites": m,
        "box_side": n,
        "gap_claimed": g,
        "separation_used": gap,
        "cost_claimed": c,
        "events": _coverage_note(event_budget),
    }
    return VerificationReport.from_slacks(
        "asymptotic-decoupling", slacks, tolerance, details=details)


def check_local_control(model: FieldModel, shape, t=None, alpha=None, *,
                        event_budget=100, seed=0, window=4,
                        tolerance=1e-9) -> VerificationReport:
    """Test  P(site value in t*V; D) >= alpha * P(D)  on random events D.

    D is a cylinder on sites around the origin but excluding it, within the
    given window radius.  Defaults (t, alpha) come from the model's covering
    certificate, for which the inequality holds for every conditioning.
    """
    if t is None or alpha is None:
        cert = model.local_control_certificate(shape)
        t = cert.t if t is None else t
        alpha = cert.alpha if alpha is None else alpha
    params = LocalControlParams(t=float(t), alpha=float(alpha))
    allowed = model.allowed_in_scaled(shape, params.t)
    rng = np.random.default_rng(seed)
    support = model.support_indices()
    origin = (0,) * model.dim
    if model.dim == 1:
        nbrs = [(i,) for i in range(-window, window + 1) if i != 0]
    else:
        nbrs = [(i, j) for i in range(-window, window + 1)
                for j in range(-window, window + 1) if (i, j) != origin]
    log_alpha = math.log(params.alpha)
    slacks = []
    for _ in range(event_budget):
        cons_d = _random_constraints(nbrs, support, rng, p_skip=0.7)
        log_d = model.cylinder_log_prob(cons_d)
        if not allowed:
            slacks.append(NEG_INF)
            continue
        joint = dict(cons_d)
        joint[origin] = allowed
        log_joint = model.cylinder_log_prob(joint)
        slacks.append(log_joint - log_d - log_alpha)
    details = {
        "model": model.describe(),
        "t": params.t,
        "alpha": params.alpha,
        "atoms_in_scaled_set": sorted(allowed),
        "window": window,
        "events": _coverage_note(event_budget),
    }
    return VerificationReport.from_slacks(
        "local-control", slacks, tolerance, details=details)


# ---------------------------------------------------------------------------
# honest certificates for strictly positive chains


@dataclass(frozen=True)
class ChainDecouplingCertificate:
    """Minorization-based decoupling cost for a strictly positive chain.

    kappa(h) = min_{a,b} P^h(a,b) / pi(b) satisfies
    P(C and D) >= kappa(h) P(C) P(D) for cylinder events separated by h
    steps, so cost(g) = -log min_{h > g} kappa(h) decouples at gap g.
    kappa is monotone in h for the checked range; the certified cost uses
    the minimum over h in [g+1, max_gap] and is valid for events whose
    separation falls in that range.
    """

    gap: float
    cost: float
    cost_default: float
    kappa_by_gap: dict


def doeblin_decoupling_certificate(model: MarkovField, gap: float = 1.0,
                                   max_gap: int = 12) -> ChainDecouplingCertificate:
    P = model.transition
    pi = _stationary_distribution(P)
    kappa = {}
    Ph = np.linalg.matrix_power(P, int(gap) + 1)
    for h in range(int(gap) + 1, max_gap + 1):
        kappa[h] = float(np.min(Ph / pi[None, :]))
        Ph = Ph @ P
    worst = min(kappa.values())
    return ChainDecouplingCertificate(
        gap=gap,
        cost=-math.log(worst),
        cost_default=-2.0 * math.log(model.doeblin_delta),
        kappa_by_gap=kappa,
    )


def doeblin_local_alpha(model: MarkovField, shape, t: float,
                        max_gap: int = 12) -> float:
    """Exact worst-case conditional mass of t*V for a strictly positive chain.

    Minimizes P(X_0 in t*V | boundary) over no conditioning, one-sided
    conditionings at distances 1..max_gap (either side), and two-sided
    conditionings with both distances up to max_gap.  The result is a valid
    alpha for cylinder events whose constrained sites keep at least distance
    1 from the controlled site and lie within max_gap of it; by the Markov
    property only the two nearest constrained sites matter, so this covers
    every cylinder the checker can build with window <= max_gap.
    """
    T = sorted(model.allowed_in_scaled(shape, t))
    if not T:
        return 0.0
    P = model.transition
    pi = _stationary_distribution(P)
    powers = [np.eye(P.shape[0])]
    for _ in range(2 * max_gap):
        powers.append(powers[-1] @ P)
    best = float(pi[T].sum())
    for h in range(1, max_gap + 1):
        left = powers[h][:, T].sum(axis=1)          # given X_{-h} = a
        best = min(best, float(left.min()))
        joint = pi[:, None] * powers[h]             # (x, b): pi(x) P^h(x,b)
        right = joint[T, :].sum(axis=0) / pi        # given X_{+h} = b
        best = min(best, float(right.min()))
    for h1 in range(1, max_gap + 1):
        for h2 in range(1, max_gap + 1):
            num = powers[h1][:, T] @ powers[h2][T, :]   # (a, b)
            den = powers[h1 + h2]
            best = min(best, float((num / den).min()))
    return best
