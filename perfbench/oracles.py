"""Slow reference computations, written apart from ldplab.

Nothing here imports ldplab or the repository's tests.  Every function works
from a model *spec* (the plain dict the benchmark also turns into an INI
file) and plain numpy, so a check that compares an ldplab artifact with one
of these values compares two independent computations.

A spec has the keys ``kind`` (iid, markov, product, conditioned), ``atoms``
(Fractions, or pairs of Fractions for planar models), ``weights`` or
``transition``, and for block kinds ``base``, ``block`` and ``keep``.  The
optional ``scale`` and ``offset`` describe the image ``scale*sigma+offset``.

Sum laws are returned as ``(keys, den, logp)``: integer keys equal to the
site sum times ``den``, one row per support point.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

NEG_INF = float("-inf")


def lse(a, axis=None):
    """log(sum(exp(a))) that keeps all -inf slices at -inf."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return NEG_INF
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


# ---------------------------------------------------------------------------
# model parameters


def weights(spec):
    ws = [float(w) for w in spec["weights"]]
    total = sum(ws)
    w = np.array([x / total for x in ws])
    return w / w.sum()


def transition(spec):
    P = np.array(spec["transition"], dtype=float)
    return P / P.sum(axis=1, keepdims=True)


def stationary(P):
    """Left Perron vector of a stochastic matrix, from an eigensolver."""
    vals, vecs = np.linalg.eig(P.T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    v = np.abs(v)
    return v / v.sum()


def atom_array(spec):
    """(A, k) float array of the base atoms."""
    return np.array([[float(c) for c in (a if isinstance(a, tuple) else (a,))]
                     for a in spec["atoms"]])


def _den(fracs):
    return math.lcm(*[f.denominator for f in fracs]) if fracs else 1


def _flat(atoms):
    return [c for a in atoms for c in (a if isinstance(a, tuple) else (a,))]


# ---------------------------------------------------------------------------
# pressures


def block_paths(spec):
    """Per-block path enumeration: (paths, log masses).

    Masses are conditioned on every block site lying in ``keep`` (all
    atoms for a product block), so they sum to one.
    """
    j = spec["block"]
    keep = spec.get("keep") or range(len(spec["atoms"]))
    if spec["base"] == "iid":
        lw = np.log(weights(spec))
        logs = lambda path: sum(lw[a] for a in path)  # noqa: E731
    else:
        P = transition(spec)
        lP, ls = np.log(P), np.log(stationary(P))
        logs = lambda path: ls[path[0]] + sum(  # noqa: E731
            lP[a, b] for a, b in zip(path, path[1:]))
    paths = list(itertools.product(list(keep), repeat=j))
    logp = np.array([logs(p) for p in paths])
    return paths, logp - lse(logp)


def _block_parts(spec, n):
    """(q, full-block sums, prefix sums of s sites, log masses), n = qj+s."""
    q, s = divmod(n, spec["block"])
    paths, logp = block_paths(spec)
    atoms = spec["atoms"]
    full = [sum(atoms[a] for a in p) for p in paths]
    prefix = [sum(atoms[a] for a in p[:s]) for p in paths]
    return q, full, prefix, logp


def _scalar_lams(lams):
    return np.atleast_1d(np.asarray(lams, dtype=float)).reshape(-1)


def log_mgf(spec, lams, n):
    """log E exp(lam S_n) over the side-n box, for each scalar lam."""
    lams = _scalar_lams(lams)
    scale = spec.get("scale", 1.0)
    offset = spec.get("offset", 0.0)
    if scale != 1.0 or offset != 0.0:
        inner = dict(spec, scale=1.0, offset=0.0)
        return log_mgf(inner, lams * scale, n) + n * offset * lams
    kind = spec["kind"]
    atoms = atom_array(spec)[:, 0]
    if kind == "iid":
        return n * lse(np.log(weights(spec))[:, None]
                       + atoms[:, None] * lams[None, :], axis=0)
    if kind == "markov":
        P = transition(spec)
        d = np.exp(lams[:, None] * atoms[None, :])
        w = stationary(P)[None, :] * d
        acc = np.zeros(len(lams))
        for _ in range(n - 1):
            s = w.sum(axis=1)
            acc += np.log(s)
            w = (w / s[:, None]) @ P * d
        return acc + np.log(w.sum(axis=1))
    q, full, prefix, logp = _block_parts(spec, n)
    full = np.array([float(x) for x in full])
    prefix = np.array([float(x) for x in prefix])
    return (q * lse(logp[:, None] + full[:, None] * lams[None, :], axis=0)
            + lse(logp[:, None] + prefix[:, None] * lams[None, :], axis=0))


def finite_pressure(spec, lams, n):
    return log_mgf(spec, lams, n) / n


def limit_pressure(spec, lams):
    """Infinite-volume pressure of a d = 1 scalar spec, per lam."""
    lams = _scalar_lams(lams)
    scale = spec.get("scale", 1.0)
    offset = spec.get("offset", 0.0)
    if scale != 1.0 or offset != 0.0:
        inner = dict(spec, scale=1.0, offset=0.0)
        return limit_pressure(inner, lams * scale) + offset * lams
    kind = spec["kind"]
    if kind == "iid":
        return log_mgf(spec, lams, 1)
    if kind == "markov":
        atoms = atom_array(spec)[:, 0]
        P = transition(spec)
        return np.array([math.log(float(np.max(np.real(np.linalg.eigvals(
            P * np.exp(lam * atoms)[None, :]))))) for lam in lams])
    return log_mgf(spec, lams, spec["block"]) / spec["block"]


def planar_log_mgf(spec, lams):
    """Per-site log-MGF of an iid spec with planar atoms, lams (N, 2)."""
    return lse(np.log(weights(spec))[:, None]
               + atom_array(spec) @ np.asarray(lams, dtype=float).T, axis=0)


def max_tilted_sum(spec, lam, n):
    """max over the support of lam * S_n (d = 1 scalar specs)."""
    if spec.get("scale", 1.0) != 1.0 or spec.get("offset", 0.0) != 0.0:
        inner = dict(spec, scale=1.0, offset=0.0)
        return (max_tilted_sum(inner, lam * spec.get("scale", 1.0), n)
                + n * spec.get("offset", 0.0) * lam)
    if spec["kind"] in ("product", "conditioned"):
        q, full, prefix, _ = _block_parts(spec, n)
        return (q * max(lam * float(x) for x in full)
                + max(lam * float(x) for x in prefix))
    return n * max(lam * float(a) for a in spec["atoms"])


# ---------------------------------------------------------------------------
# sum laws


def _dense_sum(parts):
    """Law of the sum of independent integer-keyed laws (dense DP).

    ``parts`` is a list of (keys, logp) pairs, one per summand.
    """
    lo_total = 0
    cur = np.zeros(1)
    for keys, logp in parts:
        keys = np.asarray(keys, dtype=np.int64)
        lo = int(keys.min())
        new = np.full(len(cur) + int(keys.max()) - lo, NEG_INF)
        for key, lp in zip(keys - lo, logp):
            seg = new[key:key + len(cur)]
            np.logaddexp(seg, cur + lp, out=seg)
        cur = new
        lo_total += lo
    keep = np.isfinite(cur)
    return np.nonzero(keep)[0] + lo_total, cur[keep]


def multinomial_law(spec, n):
    """Log-space multinomial over atom counts (iid, small atom sets).

    Works for scalar and planar atoms; keys are (count, k) int arrays.
    """
    atoms = spec["atoms"]
    den = _den(_flat(atoms))
    pts = np.array([[int(c * den) for c in (a if isinstance(a, tuple)
                                            else (a,))] for a in atoms])
    lw = np.log(weights(spec))
    A = len(atoms)
    acc = {}
    lfn = math.lgamma(n + 1)
    for cut in itertools.combinations(range(n + A - 1), A - 1):
        counts = np.diff((-1,) + cut + (n + A - 1,)) - 1
        lp = lfn - sum(math.lgamma(c + 1) for c in counts) + float(counts @ lw)
        key = tuple(int(v) for v in counts @ pts)
        acc.setdefault(key, []).append(lp)
    keys = sorted(acc)
    return np.array(keys), den, np.array([lse(acc[k]) for k in keys])


def markov_law(spec, n):
    """Path DP over (sum, last state) for a chain with scalar atoms."""
    den = _den(spec["atoms"])
    keys = np.array([int(a * den) for a in spec["atoms"]])
    P = transition(spec)
    lP = np.log(P)
    lo = int(keys.min())
    span = int(keys.max()) - lo
    sh = keys - lo
    A = len(keys)
    dp = np.full((span + 1, A), NEG_INF)
    dp[sh, np.arange(A)] = np.log(stationary(P))
    for _ in range(n - 1):
        step = lse(dp[:, :, None] + lP[None, :, :], axis=1)
        new = np.full((len(dp) + span, A), NEG_INF)
        for b in range(A):
            new[sh[b]:sh[b] + len(dp), b] = step[:, b]
        dp = new
    tot = lse(dp, axis=1)
    keep = np.isfinite(tot)
    return (np.nonzero(keep)[0] + n * lo)[:, None], den, tot[keep]


def sum_law(spec, n):
    """Exact sum law over the side-n box of a d = 1 scalar spec."""
    scale = Fraction(spec.get("scale", 1.0))
    offset = Fraction(spec.get("offset", 0.0))
    if scale != 1 or offset != 0:
        keys, den, logp = sum_law(dict(spec, scale=1.0, offset=0.0), n)
        img = [scale * Fraction(int(k), den) + n * offset for k in keys[:, 0]]
        iden = _den(img)
        return (np.array([[int(f * iden)] for f in img]), iden, logp)
    kind = spec["kind"]
    if kind == "iid":
        if len(spec["atoms"]) <= 3:
            return multinomial_law(spec, n)
        den = _den(spec["atoms"])
        keys = [int(a * den) for a in spec["atoms"]]
        k, lp = _dense_sum([(keys, np.log(weights(spec)))] * n)
        return k[:, None], den, lp
    if kind == "markov":
        return markov_law(spec, n)
    q, full, prefix, logp = _block_parts(spec, n)
    den = _den(full + prefix)
    k, lp = _dense_sum([([int(x * den) for x in full], logp)] * q
                       + [([int(x * den) for x in prefix], logp)])
    return k[:, None], den, lp


def window_log_prob(law, count, center, shape, radius, shrink=0.0):
    """log P(empirical mean in the open neighborhood center + (1-shrink)V).

    Means and gauges use the same float expressions as a reader of the
    CSV would: sum = key/den, mean = sum/count.  Result clamped at 0.
    """
    keys, den, logp = law
    means = (np.asarray(keys, dtype=float) / den) / count
    pts = means - np.asarray(center, dtype=float)[None, :]
    if shape == "box":
        g = np.max(np.abs(pts) / np.asarray(radius, dtype=float)[None, :],
                   axis=1)
    else:
        g = np.linalg.norm(pts, axis=1) / float(radius)
    mask = g < 1.0 - shrink
    if not np.any(mask):
        return NEG_INF
    return min(lse(logp[mask]), 0.0)


# ---------------------------------------------------------------------------
# conjugates


def conjugate_1d(lams, vals, xs):
    """Brute-force grid max of lam*x - f(lam)."""
    lams, vals = np.asarray(lams), np.asarray(vals)
    return np.max(lams[:, None] * np.asarray(xs)[None, :] - vals[:, None],
                  axis=0)


def conjugate_2d(l1, l2, F, x1, x2):
    """Brute-force grid max of l1*x1 + l2*x2 - F(l1, l2)."""
    out = np.full((len(x1), len(x2)), NEG_INF)
    for a, u in enumerate(l1):
        cand = (u * np.asarray(x1)[:, None, None]
                + np.asarray(l2)[None, None, :] * np.asarray(x2)[None, :, None]
                - F[a][None, None, :])
        np.maximum(out, cand.max(axis=2), out=out)
    return out


# ---------------------------------------------------------------------------
# statistical bounds that fail with probability below delta


def hits_within(hits, samples, p, delta=1e-12):
    """Bernstein bound on a Binomial(samples, p) count."""
    L = math.log(2.0 / delta)
    t = math.sqrt(2.0 * samples * p * (1.0 - p) * L) + 2.0 * L / 3.0
    return abs(hits - samples * p) <= t


def mc_pressure_interval(n, log_m1, log_m2, log_ymax, samples, delta=1e-12):
    """Interval for (1/n) log(mean of exp(lam S_n)) over `samples` draws.

    Y = exp(lam S)/E exp(lam S) has mean 1, second moment m2 and lies in
    [0, b].  Upper side: Bernstein.  Lower side: the sub-Gaussian lower
    tail of nonnegative variables with variance proxy m2.
    """
    L = math.log(2.0 / delta)
    m2 = math.exp(log_m2 - 2.0 * log_m1)
    b = math.exp(log_ymax - log_m1)
    var = max(m2 - 1.0, 0.0)
    up = math.sqrt(2.0 * var * L / samples) + 2.0 * b * L / (3.0 * samples)
    down = math.sqrt(2.0 * m2 * L / samples)
    p_n = log_m1 / n
    lo = p_n + math.log(1.0 - down) / n if down < 1.0 else NEG_INF
    return lo, p_n + math.log1p(up) / n
