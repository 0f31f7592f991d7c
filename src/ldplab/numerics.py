"""Log-space numerics shared by the law, pressure, and entropy computations.

Everything probabilistic in this package is carried in log space so that
desk-scale volumes (a few hundred sites) stay well inside float range even
when individual configuration masses are as small as exp(-1000).
"""

import math

import numpy as np

NEG_INF = float("-inf")


def logsumexp(values, axis=None):
    """log(sum(exp(values))) with max-subtraction; empty input gives -inf."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        if axis is None:
            return NEG_INF
        shape = list(a.shape)
        del shape[axis]
        return np.full(shape, NEG_INF)
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis, keepdims=True)) + safe
    out = np.where(np.isfinite(m), out, m)  # all -inf slices stay -inf
    if axis is None:
        return float(out.item())
    return np.squeeze(out, axis=axis)


def pairings(lams, points) -> np.ndarray:
    """(G, S) array of <lams[g], points[s]> for (G, k) and (S, k) arrays.

    Summed coordinate by coordinate with plain products, not by a BLAS
    call: BLAS kernels fuse multiply-adds differently for one row than for
    many, and here every entry is the same float whether its row is
    computed alone or inside a block.
    """
    lams = np.asarray(lams, dtype=float)
    points = np.asarray(points, dtype=float)
    out = lams[:, :1] * points[:, 0]
    for j in range(1, lams.shape[1]):
        out += lams[:, j:j + 1] * points[:, j]
    return out


def logadd(a: float, b: float) -> float:
    """log(e^a + e^b) for two scalars, tolerant of -inf."""
    if a < b:
        a, b = b, a
    if b == NEG_INF:
        return a
    return a + math.log1p(math.exp(b - a))
