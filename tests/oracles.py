"""Reference computations the tests pin expected values against.

Everything here is built from first principles with stdlib arithmetic:
binomial and multinomial coefficients, explicit path enumeration, exact
Fraction bookkeeping, closed-form eigenvalues, and dict-keyed dynamic
programs for sum laws.  None of it shares code with the package's transfer
recurrence or hull machinery, so an agreement between the two is evidence,
not tautology.

Window membership deliberately mirrors the package's float predicate
(|delta| / radius < 1) so that boundary atoms land on the same side in both
computations; the probability arithmetic is what stays independent.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def in_window(mean: float, x: float, radius: float) -> bool:
    """Same float membership rule as the box gauge with one radius."""
    return abs(mean - x) / radius < 1.0


# ---------------------------------------------------------------------------
# IID laws by combinatorics


def rademacher_sum_law(n: int):
    """{sum: probability} for n fair steps valued -1/+1, exact Fractions."""
    return {2 * j - n: Fraction(math.comb(n, j), 2 ** n)
            for j in range(n + 1)}


def rademacher_window_log_prob(n: int, x: float, radius: float) -> float:
    """log P(empirical mean within the open window), float predicate."""
    total = Fraction(0)
    for s, p in rademacher_sum_law(n).items():
        if in_window((float(s) / 1.0) / n, x, radius):
            total += p
    return math.log(total) if total else -math.inf


def iid_sum_law(atom_probs, n: int):
    """{scaled sum: prob} for n iid draws; atoms and probs are Fractions.

    atom_probs is a list of (Fraction atom, Fraction prob).  Returns keys
    scaled by the lcm of atom denominators, matching integer bookkeeping
    without sharing any code with it.
    """
    den = 1
    for a, _ in atom_probs:
        den = den * a.denominator // math.gcd(den, a.denominator)
    scaled = [(int(a * den), p) for a, p in atom_probs]
    law = {0: Fraction(1)}
    for _ in range(n):
        new = {}
        for key, p in law.items():
            for step, q in scaled:
                new[key + step] = new.get(key + step, Fraction(0)) + p * q
        law = new
    return den, law


def multinomial_three_atom_law(w_minus, w_zero, w_plus, n: int):
    """{sum: prob} for iid draws from {-1, 0, +1} by the multinomial formula."""
    law = {}
    for a in range(n + 1):          # count of -1
        for b in range(n - a + 1):  # count of 0
            c = n - a - b
            coef = Fraction(math.factorial(n),
                            math.factorial(a) * math.factorial(b)
                            * math.factorial(c))
            p = coef * w_minus ** a * w_zero ** b * w_plus ** c
            key = c - a
            law[key] = law.get(key, Fraction(0)) + p
    return law


# ---------------------------------------------------------------------------
# chains by path enumeration


def markov_path_law(P, atoms, start, n: int):
    """{sum value: probability} over all length-n paths, plain floats."""
    A = len(atoms)
    law = {}
    for path in itertools.product(range(A), repeat=n):
        p = start[path[0]]
        for u, v in zip(path, path[1:]):
            p *= P[u][v]
        s = sum(atoms[i] for i in path)
        law[s] = law.get(s, 0.0) + p
    return law


def markov_cylinder_prob(P, start, constraints: dict, n: int) -> float:
    """P(site i has an allowed state for every constrained i in [0, n))."""
    total = 0.0
    A = len(P)
    for path in itertools.product(range(A), repeat=n):
        if any(path[i] not in allowed for i, allowed in constraints.items()):
            continue
        p = start[path[0]]
        for u, v in zip(path, path[1:]):
            p *= P[u][v]
        total += p
    return total


def cylinder_prob(model, constraints) -> float:
    """P(every constrained site takes one of its allowed atoms), enumerated.

    Reads only plain parameters: weights, transition, start, block, keep,
    and an affine image's base (the map leaves the atom indices alone).
    IID sites multiply their allowed weights.  A chain starts from
    ``start`` at its first constrained site; the allowed atoms of the
    constrained sites are enumerated and joined by powers of the transition
    matrix.  A block model enumerates every atom path of each block it
    touches and divides the allowed paths' weight by the weight of the
    paths that stay in ``keep``.
    """
    if model.kind == "affine":
        return cylinder_prob(model.base, constraints)
    items = sorted(((s,) if isinstance(s, int) else tuple(s), sorted(a))
                   for s, a in constraints.items())
    if model.kind == "iid":
        p = 1.0
        for _, allowed in items:
            p *= sum(model.weights[a] for a in allowed)
        return p
    if model.kind == "markov":
        if not items:
            return 1.0
        P = np.asarray(model.transition)
        sites = [x for (x,), _ in items]
        steps = [np.linalg.matrix_power(P, b - a)
                 for a, b in zip(sites, sites[1:])]
        total = 0.0
        for path in itertools.product(*[allowed for _, allowed in items]):
            p = model.start[path[0]]
            for M, u, v in zip(steps, path, path[1:]):
                p *= M[u, v]
            total += p
        return total
    if model.kind == "block":
        base, j = model.base, model.block
        keep = set(range(model.n_atoms)) if model.keep is None else model.keep
        blocks = {}
        for (x,), allowed in items:
            blocks.setdefault(x // j, {})[x % j] = set(allowed)
        p = 1.0
        for cons in blocks.values():
            hit = kept = 0.0
            for path in itertools.product(sorted(keep), repeat=j):
                if base.kind == "iid":
                    w = math.prod(base.weights[a] for a in path)
                else:
                    w = base.start[path[0]] * math.prod(
                        base.transition[u][v] for u, v in zip(path, path[1:]))
                kept += w
                if all(path[pos] in allowed for pos, allowed in cons.items()):
                    hit += w
            p *= hit / kept
        return p
    raise ValueError(f"no cylinder oracle for kind {model.kind!r}")


def stationary_2x2(P):
    """pi = (P[1][0], P[0][1]) / (P[1][0] + P[0][1])."""
    denom = P[1][0] + P[0][1]
    return [P[1][0] / denom, P[0][1] / denom]


def perron_root_2x2(M):
    """Largest eigenvalue of a positive 2x2 matrix, closed form."""
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0


def tilted_chain_pressure(P, atoms, lam: float) -> float:
    """log of the Perron root of P[a][b] * exp(lam * atoms[b]) (2 states)."""
    M = [[P[a][b] * math.exp(lam * atoms[b]) for b in range(2)]
         for a in range(2)]
    return math.log(perron_root_2x2(M))


# ---------------------------------------------------------------------------
# sum laws by dict dynamic programs (large-n reference)
#
# Sparse {integer key tuple: log mass} laws, advanced by scalar log-adds one
# key at a time; they read only a model's plain parameters (atom keys, log
# weights, transition, start, block, keep set, affine map).  Chain states
# ride along as per-key numpy vectors.  Keys every path reaches with zero
# mass stay in these dicts with mass -inf.


def _logadd(a, b):
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _lse(v, axis=None):
    v = np.asarray(v, dtype=float)
    m = np.max(v, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(v - safe), axis=axis, keepdims=True)) + safe
    out = np.where(np.isfinite(m), out, m)
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


def dict_convolve(a: dict, b: dict) -> dict:
    out = {}
    for ka, la in a.items():
        for kb, lb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            s = la + lb
            prev = out.get(key)
            out[key] = s if prev is None else _logadd(prev, s)
    return out


def dict_power(site: dict, q: int) -> dict:
    law = {(0,) * len(next(iter(site))): 0.0}
    for _ in range(q):
        law = dict_convolve(law, site)
    return law


def dict_chain_paths(keys, log_start, log_T, states, s: int) -> dict:
    """{key: per-last-state log masses} over chain paths of s sites that
    only visit ``states``."""
    A = len(keys)
    dp = {}
    for a in states:
        vec = dp.setdefault(keys[a], np.full(A, -math.inf))
        vec[a] = log_start[a]
    for _ in range(s - 1):
        new = {}
        for key, vec in dp.items():
            contrib = _lse(vec[:, None] + log_T, axis=0)
            for b in states:
                k2 = tuple(x + y for x, y in zip(key, keys[b]))
                arr = new.setdefault(k2, np.full(A, -math.inf))
                arr[b] = _logadd(arr[b], contrib[b])
        dp = new
    return dp


def dict_sum_law(model, n: int) -> dict:
    """{integer key tuple: log mass} of the side-n box sum of ``model``."""
    if model.kind == "iid":
        site = dict(zip(model.atom_keys, model.log_w))
        return dict_power(site, n ** model.dim)
    if model.kind == "markov":
        dp = dict_chain_paths(model.atom_keys, model.log_start, model.log_T,
                              range(model.n_atoms), n)
        return {key: _lse(vec) for key, vec in dp.items()}
    if model.kind == "block":
        base, keep, j = model.base, model.support_indices(), model.block
        q, s = divmod(n, j)
        if base.kind == "iid":
            nu = _lse(base.log_w[list(keep)])
            site = {model.atom_keys[i]: base.log_w[i] - nu for i in keep}
            return dict_power(site, n)
        A = model.n_atoms
        keep_cols = np.full((A, A), -math.inf)
        keep_cols[:, keep] = base.log_T[:, keep]
        law = {(0,): 0.0}
        for sites, count in ((j, q), (s, 1 if s else 0)):
            tail = np.zeros(A)
            for _ in range(j - sites):
                tail = _lse(keep_cols + tail[None, :], axis=1)
            dp = dict_chain_paths(model.atom_keys, base.log_start, base.log_T,
                                  keep, sites) if count else {}
            part = {key: _lse(vec + tail) - model.log_mass
                    for key, vec in dp.items()}
            for _ in range(count):
                law = dict_convolve(law, part)
        return law
    if model.kind == "affine":
        base = model.base
        base_law = dict_sum_law(base, n)
        count = n ** base.dim
        A = [[Fraction(x) for x in row] for row in model.matrix]
        y0 = [Fraction(v) for v in model.offset]
        out = {}
        for key, lp in base_law.items():
            s = [Fraction(x, base.den) for x in key]
            img = [sum(a * x for a, x in zip(row, s)) - count * y
                   for row, y in zip(A, y0)]
            assert all((f * model.den).denominator == 1 for f in img)
            ikey = tuple(int(f * model.den) for f in img)
            prev = out.get(ikey)
            out[ikey] = lp if prev is None else _logadd(prev, lp)
        return out
    raise ValueError(f"no dict oracle for kind {model.kind!r}")


# ---------------------------------------------------------------------------
# block measures by direct enumeration


def conditioned_block_site_law(base_probs, keep):
    """Renormalized single-block site law {atom index: Fraction prob}."""
    kept = {i: base_probs[i] for i in keep}
    total = sum(kept.values())
    return {i: p / total for i, p in kept.items()}


def conditioned_box_sum_law(atoms, base_probs, block: int, keep, n: int):
    """{sum value: Fraction} for a side-n box of iid conditioned blocks.

    Full blocks are independent; the trailing partial block contributes its
    first n mod block coordinates.  Enumerates block assignments directly,
    so feasible only for small block and n.
    """
    site = conditioned_block_site_law(base_probs, keep)
    q, r = divmod(n, block)
    block_law = {}
    for assign in itertools.product(sorted(site), repeat=block):
        p = Fraction(1)
        for i in assign:
            p *= site[i]
        s = sum(atoms[i] for i in assign)
        block_law[s] = block_law.get(s, Fraction(0)) + p
    law = {Fraction(0): Fraction(1)}
    for _ in range(q):
        new = {}
        for k1, p1 in law.items():
            for k2, p2 in block_law.items():
                new[k1 + k2] = new.get(k1 + k2, Fraction(0)) + p1 * p2
        law = new
    if r:
        prefix = {}
        for assign in itertools.product(sorted(site), repeat=r):
            p = Fraction(1)
            for i in assign:
                p *= site[i]
            s = sum(atoms[i] for i in assign)
            prefix[s] = prefix.get(s, Fraction(0)) + p
        new = {}
        for k1, p1 in law.items():
            for k2, p2 in prefix.items():
                new[k1 + k2] = new.get(k1 + k2, Fraction(0)) + p1 * p2
        law = new
    return law


def iid_block_pressure(atoms, base_probs, block: int, keep, lam: float):
    """(1/j) log E[exp(lam * block sum)] for one conditioned block."""
    site = conditioned_block_site_law(base_probs, keep)
    total = 0.0
    for assign in itertools.product(sorted(site), repeat=block):
        p = 1.0
        s = 0.0
        for i in assign:
            p *= float(site[i])
            s += float(atoms[i])
        total += p * math.exp(lam * s)
    return math.log(total) / block


# ---------------------------------------------------------------------------
# convex analysis


def rate_function_pm1(x: float) -> float:
    """Closed-form conjugate of log cosh: the two-point entropy on [-1, 1]."""
    if abs(x) > 1.0:
        return math.inf
    if abs(x) == 1.0:
        return math.log(2.0)
    return ((1.0 + x) / 2.0 * math.log1p(x)
            + (1.0 - x) / 2.0 * math.log1p(-x))


def conjugate_brute(lams, vals, xs):
    """Direct quadratic supremum, plain python loops."""
    out = []
    for x in xs:
        best = -math.inf
        for lam, f in zip(lams, vals):
            if math.isfinite(f):
                best = max(best, lam * x - f)
        out.append(best)
    return np.array(out)


def lft_brute(fn, target_grids) -> np.ndarray:
    """Quadratic-time direct grid supremum of a GridFunction's conjugate;
    oracle for the package's hull-and-pointer ``lft``."""
    if fn.k == 1:
        g = np.asarray(target_grids if not isinstance(target_grids, tuple)
                       else target_grids[0], dtype=float)
        cand = np.where(np.isfinite(fn.values)[:, None],
                        fn.grids[0][:, None] * g[None, :]
                        - fn.values[:, None], -math.inf)
        return cand.max(axis=0)
    x1, x2 = (np.asarray(g, dtype=float) for g in target_grids)
    l1, l2 = fn.grids
    out = np.full((len(x1), len(x2)), -math.inf)
    for a, u in enumerate(l1):
        for b, v in enumerate(l2):
            if np.isfinite(fn.values[a, b]):
                cand = (u * x1[:, None] + v * x2[None, :]
                        - fn.values[a, b])
                np.maximum(out, cand, out=out)
    return out


def gauge_bisect(contains_unit, y, hi: float = 1e9, iters: int = 200) -> float:
    """inf{t > 0 : y in t*V} by bisection on a unit-set membership oracle."""
    if all(abs(c) == 0.0 for c in np.atleast_1d(y)):
        return 0.0
    lo, hi_t = 0.0, float(hi)
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    for _ in range(iters):
        mid = 0.5 * (lo + hi_t)
        if mid == lo or mid == hi_t:
            break
        if contains_unit(arr / mid):
            hi_t = mid
        else:
            lo = mid
    return hi_t


# ---------------------------------------------------------------------------
# tiling by direct recount


def recount_tiling(n, m, g, ell, dim, sub_boxes, margin):
    """Recheck a tiling by sets: partition, alignment, pairwise distance."""
    all_sites = set(itertools.product(range(n), repeat=dim))
    covered = set()
    for corner, side in sub_boxes:
        box_sites = set(itertools.product(
            *[range(c, c + side) for c in corner]))
        if covered & box_sites:
            return False, "sub-boxes overlap"
        if any(c % ell for c in corner):
            return False, "corner off the sublattice"
        covered |= box_sites
    if covered | set(margin) != all_sites or covered & set(margin):
        return False, "margin does not complement the sub-boxes"
    boxes = list(sub_boxes)
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            d = _site_set_distance(boxes[i], boxes[j])
            if d <= g:
                return False, f"boxes {i},{j} at distance {d} <= g={g}"
    return True, "ok"


def _site_set_distance(a, b):
    """Smallest sup-norm distance over every pair of sites, one from each
    box: the sites are listed and all pairs compared by broadcasting."""
    (ca, sa), (cb, sb) = a, b
    p = np.array(list(itertools.product(*[range(c, c + sa) for c in ca])))
    q = np.array(list(itertools.product(*[range(c, c + sb) for c in cb])))
    return int(np.abs(p[:, None, :] - q[None, :, :]).max(axis=2).min())


# ---------------------------------------------------------------------------
# Chernoff bound, one tilt at a time


def finite_pressure_per_tilt(law, lam) -> float:
    """log E exp <lam, S> / count straight from a sum law, one tilt.

    Products are taken coordinate by coordinate and added in coordinate
    order, as the package's grid pass does, so the two agree bit for bit.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.any(lam):
        return 0.0
    sums = law.sums()
    tilt = sums[:, 0] * lam[0]
    for j in range(1, len(lam)):
        tilt = tilt + sums[:, j] * lam[j]
    return _lse(law.logp + tilt) / law.count


def chernoff_scan(model, nbhd, n: int, lam_grid):
    """(bound_log, event_log_prob, best_tilt) of the Chernoff bound, scanned
    one tilt at a time with the scalar ``support_inf`` and
    ``pressure_finite``: zero tilts count as exactly 0 and the first tilt
    with a strictly larger exponent wins.  This is the loop the package ran
    before it evaluated the whole grid in one pass; it shares the one-tilt
    arithmetic with the package and checks the grid, block and tie logic.
    """
    from ldplab import pressure_finite
    grid = np.asarray(lam_grid, dtype=float)
    pts = grid if grid.ndim > 1 else grid[:, None]
    best, best_lam = -math.inf, None
    for lam in pts:
        if not np.any(lam):
            exponent = 0.0
        else:
            exponent = nbhd.support_inf(lam) - pressure_finite(model, n, lam)
        if exponent > best:
            best, best_lam = exponent, lam
    law = model.sum_law(n)
    mask = nbhd.member_mask(law.means())
    log_p = min(_lse(law.logp[mask]), 0.0) if mask.any() else -math.inf
    return -(n ** model.dim) * best, log_p, [float(v) for v in best_lam]
