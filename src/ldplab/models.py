"""Concrete lattice-field laws with exact finite-volume computations.

All models live on Z^d (d = 1 or 2) with a finite set of atoms in R^k
(k = 1 or 2) as single-site values.  Every model shares one atom index
space: value constraints are expressed as per-site sets of allowed atom
indices, sums are tracked on the exact integer lattice generated by the
atoms (coordinates scaled by a common denominator), and all masses are kept
in log space.

Model kinds
-----------
IIDField              independent identical sites
MarkovField           stationary chain on Z (d = 1), strictly positive rows
BlockField            i.i.d. blocks of side j carrying the base law
                      restricted to one block, optionally conditioned on a
                      subset of atoms at every block site
AffineImageField      sitewise image  sigma -> A sigma - y0  of a base model

BlockField realizes both the plain block-product construction and its
conditioned variant (keep=None vs an atom index subset).  Block models and
Markov chains are implemented for lattice dimension 1; IID models (and their
affine images) also support d = 2.

Sum laws
--------
Every exact sum law comes from one recurrence, the tilted transfer
recurrence of Dembo & Zeitouni (Large Deviations Techniques and
Applications, 3.1) at zero tilt: a dense log-mass array over (sum lattice x
chain state) is advanced one site at a time by shifting each atom's slice by
the atom's key and combining with logaddexp.  The sum lattice is compressed
by the gcd of the atom-key differences per coordinate.  Each kind only
states its transfer data: IID sites (and IID-based blocks) restart from the
atom weights at every site and keep no state; a chain restarts from its
start law once; chain-based blocks restart every block.  Affine images map
their base law's keys exactly.  The budget rule lives in the recurrence:
the stored (sum, state) entries may not exceed ``budget``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, ModelError
from .lattice import Box
from .convexsets import gauge
from .numerics import NEG_INF, logadd, logsumexp

DEFAULT_LAW_BUDGET = 500_000


# ---------------------------------------------------------------------------
# parameter tables


@dataclass(frozen=True)
class ParamTable:
    """Integer-keyed step table; lookups use the largest key <= n."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(sorted((int(k), float(v)) for k, v in self.entries))
        if not entries:
            raise ValueError("empty parameter table")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def constant(cls, value: float) -> "ParamTable":
        return cls(((1, float(value)),))

    def __call__(self, n: int) -> float:
        value = self.entries[0][1]
        for key, val in self.entries:
            if key <= n:
                value = val
            else:
                break
        return value


@dataclass(frozen=True)
class DecouplingParams:
    """Claimed decoupling certificate: gap g(n) and cost c(n) tables."""

    g: ParamTable
    c: ParamTable

    @classmethod
    def independent(cls) -> "DecouplingParams":
        return cls(ParamTable.constant(0.0), ParamTable.constant(0.0))

    def ratios(self, sides, dim: int = 1):
        """Diagnostic: g(n)/n and c(n)/n^d along a side schedule."""
        return {
            "g_over_n": [self.g(n) / n for n in sides],
            "c_over_volume": [self.c(n) / n ** dim for n in sides],
        }


@dataclass(frozen=True)
class LocalControlParams:
    """Claimed local-control certificate for one neighborhood shape."""

    t: float
    alpha: float

    def __post_init__(self):
        if not (self.t > 0 and 0 < self.alpha <= 1):
            raise ValueError(f"need t > 0 and alpha in (0, 1], got {self}")

    @property
    def log_beta(self) -> float:
        """log of the residual bound beta = exp(-t) * alpha."""
        return -self.t + math.log(self.alpha)


# ---------------------------------------------------------------------------
# value space


def _to_fraction(a) -> Fraction:
    """Exact atom coordinate.  A float reads as its shortest decimal form,
    as a config value does: 0.1 is 1/10, not the nearest binary fraction,
    whose denominator 2^55 would make the sum lattice too wide to store."""
    if isinstance(a, (float, np.floating)):
        return Fraction(str(float(a)))
    return Fraction(a)


def _to_fraction_point(atom, k: int):
    if np.isscalar(atom):
        atom = (atom,)
    pt = tuple(_to_fraction(a) for a in atom)
    if len(pt) != k:
        raise ValueError(f"atom {atom} does not have dimension {k}")
    return pt


@dataclass(frozen=True)
class ValueSpace:
    """Finite single-site value space: distinct atoms in R^k, k in {1, 2}."""

    points: tuple
    labels: tuple

    @classmethod
    def from_atoms(cls, atoms, labels=None) -> "ValueSpace":
        atoms = list(atoms)
        if not atoms:
            raise ValueError("value space needs at least one atom")
        k = 1 if np.isscalar(atoms[0]) else len(atoms[0])
        if k not in (1, 2):
            raise ValueError(f"value dimension must be 1 or 2, got {k}")
        points = tuple(_to_fraction_point(a, k) for a in atoms)
        if len(set(points)) != len(points):
            raise ValueError("atoms must be distinct")
        if labels is None:
            labels = tuple(str(i) for i in range(len(points)))
        return cls(points, tuple(labels))

    @property
    def k(self) -> int:
        return len(self.points[0])

    def array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points])


# ---------------------------------------------------------------------------
# exact sum laws (log masses on scaled integer keys)


@dataclass(frozen=True)
class FiniteLaw:
    """Distribution of a site sum over a box; exact support, log masses."""

    keys: tuple          # integer tuples: sum * den
    den: int
    logp: np.ndarray
    count: int           # number of sites summed

    def sums(self) -> np.ndarray:
        """(S, k) float sums, built once per law and read-only."""
        return self._sums

    def means(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("empty box has no empirical mean")
        return self._sums / self.count

    @cached_property
    def _sums(self) -> np.ndarray:
        sums = np.array(self.keys, dtype=float) / self.den
        sums.flags.writeable = False
        return sums

    def total(self) -> float:
        """logsumexp of all masses; 0 up to float accumulation."""
        return logsumexp(self.logp)


# ---------------------------------------------------------------------------
# base class


class FieldModel:
    """Shared surface of the concrete lattice-field laws."""

    kind = "abstract"

    def __init__(self, space: ValueSpace, dim: int, invariance_step: int,
                 decoupling: DecouplingParams, budget: int = DEFAULT_LAW_BUDGET):
        if dim not in (1, 2):
            raise ValueError(f"lattice dimension must be 1 or 2, got {dim}")
        self.space = space
        self.dim = dim
        self.invariance_step = invariance_step
        self.decoupling = decoupling
        self.budget = budget
        self.atoms = space.array()               # (A, k) float
        self.atom_fracs = space.points
        dens = [f.denominator for p in space.points for f in p]
        self.den = math.lcm(*dens) if dens else 1
        self.atom_keys = tuple(
            tuple(int(f * self.den) for f in p) for p in space.points)
        self._laws = {}

    @property
    def k(self) -> int:
        return self.space.k

    @property
    def n_atoms(self) -> int:
        return len(self.atom_fracs)

    def support_indices(self):
        return tuple(range(self.n_atoms))

    def allowed_in_scaled(self, shape, t: float):
        """Atom indices with gauge strictly below t (membership in t*V)."""
        return frozenset(
            i for i in self.support_indices()
            if gauge(shape, self.atoms[i]) < t)

    # interface implemented by subclasses
    def cylinder_log_prob(self, constraints) -> float:
        raise NotImplementedError

    def sum_law(self, n: int) -> FiniteLaw:
        raise NotImplementedError

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        """(samples, box.size) atom indices of independent draws on the box,
        columns in ``box.sites()`` order."""
        raise NotImplementedError

    def _memo(self, n: int, build) -> FiniteLaw:
        """The per-n sum-law cache every kind shares; build() on a miss."""
        if n < 1:
            raise ValueError("volume side must be positive")
        law = self._laws.get(n)
        if law is None:
            law = self._laws[n] = build()
        return law

    def _transfer_law(self, count: int, keys, start, log_T=None,
                      period: int = 1, tail=None, shift: float = 0.0):
        """Exact law of the sum of ``count`` sites, by the transfer recurrence.

        ``keys`` are the integer keys of the atoms that can occur, in the
        order of the columns of ``start`` (log weights) and of the square
        ``log_T`` (log transition weights).  Sites t with t % period == 0
        restart: the chain state is summed out and ``start`` applied; the
        other sites apply ``log_T``.  With period 1 no chain state is kept.
        ``tail`` (log weights of the last state) is added at the end, the
        states are summed out, and ``shift`` is subtracted from every mass.
        Position i of the dense array stands for the key t*lo + step*i after
        t sites, per coordinate.  Sums of zero mass are not in the support.
        A step whose array would hold more than ``budget`` (sum, state)
        entries raises BudgetExceededError before it allocates.
        """
        k = len(keys[0])
        lo = [min(key[c] for key in keys) for c in range(k)]
        step = [math.gcd(*(key[c] - lo[c] for key in keys)) or 1
                for c in range(k)]
        offsets = [tuple((key[c] - lo[c]) // step[c] for c in range(k))
                   for key in keys]
        reach = [max(off[c] for off in offsets) for c in range(k)]
        states = 1 if period == 1 else len(keys)
        mass = np.zeros((1,) * k + (1,))      # sum 0 with probability one
        for t in range(count):
            shape = tuple((t + 1) * r + 1 for r in reach)
            if math.prod(shape) * states > self.budget:
                raise BudgetExceededError(
                    f"sum law over {count} sites needs {math.prod(shape)} x "
                    f"{states} entries at site {t + 1}, over budget "
                    f"{self.budget}")
            if t % period == 0:
                emit = np.logaddexp.reduce(mass, axis=-1)[..., None] + start
            else:
                emit = np.logaddexp.reduce(mass[..., None] + log_T, axis=-2)
            new = np.full(shape + (states,), NEG_INF)
            for b, off in enumerate(offsets):
                cell = new[tuple(slice(o, o + m)
                                 for o, m in zip(off, mass.shape))]
                if states == 1:
                    np.logaddexp(cell[..., 0], emit[..., b], out=cell[..., 0])
                else:
                    cell[..., b] = emit[..., b]
            mass = new
        if tail is not None:
            mass = mass + tail
        total = np.logaddexp.reduce(mass, axis=-1) - shift
        support = total > NEG_INF
        sums = tuple(tuple(count * l + g * i for l, g, i in zip(lo, step, pos))
                     for pos in np.argwhere(support).tolist())
        return FiniteLaw(sums, self.den, total[support], count)

    def local_control_certificate(self, shape) -> LocalControlParams:
        """Covering certificate: t just above the largest atom gauge, alpha 1.

        Valid for any bounded-support field: the site value always lies in
        t*V, so the conditional mass is one whatever the conditioning.
        """
        gmax = max(gauge(shape, self.atoms[i]) for i in self.support_indices())
        t = gmax * (1.0 + 1e-9) + 1e-12
        return LocalControlParams(t=t, alpha=1.0)

    def describe(self) -> str:
        raise NotImplementedError


def _normalize_site(site):
    """Accept int sites for d=1 and tuples otherwise."""
    if isinstance(site, tuple):
        return site
    return (int(site),)


# ---------------------------------------------------------------------------
# IID


class IIDField(FieldModel):
    """Product field: sites i.i.d. with the given atom weights."""

    kind = "iid"

    def __init__(self, space: ValueSpace, weights, dim: int = 1,
                 budget: int = DEFAULT_LAW_BUDGET):
        super().__init__(space, dim, 1, DecouplingParams.independent(), budget)
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n_atoms,):
            raise ValueError(f"need {self.n_atoms} weights, got shape {w.shape}")
        if np.any(w <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        self.weights = w / w.sum()
        self.log_w = np.log(self.weights)
        # the same law as a chain whose rows all equal the weights (a view)
        self.start = self.weights
        self.transition = np.broadcast_to(self.weights, (self.n_atoms,) * 2)

    def cylinder_log_prob(self, constraints) -> float:
        total = 0.0
        for _, allowed in sorted(
                (( _normalize_site(s), a) for s, a in constraints.items())):
            total += logsumexp(self.log_w[sorted(allowed)])
        return total

    def sum_law(self, n: int) -> FiniteLaw:
        return self._memo(n, lambda: self._transfer_law(
            n ** self.dim, self.atom_keys, self.log_w))

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        return rng.choice(self.n_atoms, size=(samples, box.size),
                          p=self.weights)

    def describe(self) -> str:
        return f"iid(atoms={self.n_atoms},k={self.k},d={self.dim})"


# ---------------------------------------------------------------------------
# Markov chain (d = 1)


def _stationary_distribution(P: np.ndarray) -> np.ndarray:
    A = P.shape[0]
    M = np.vstack([P.T - np.eye(A), np.ones((1, A))])
    b = np.zeros(A + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(M, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _chain_paths(rng, count: int, length: int, start, T) -> np.ndarray:
    """(count, length) paths drawn with probability proportional to
    start[x(0)] T[x(0), x(1)] ... T[x(length - 2), x(length - 1)].

    Zeroed weights condition the chain; the backward filter draws site t
    from row x(t-1) of T times h, where h(b) is the total weight of the
    continuations from x(t) = b.  Each site is drawn by inverse CDF for
    all paths at once.
    """
    h = np.ones(len(start))
    steps = []
    for _ in range(length - 1):
        K = T * h[None, :]
        steps.append(K)
        h = K.sum(axis=1)
        h = h / h.max()
    steps.append((start * h)[None, :])   # site 0: one row, picked by x = 0
    paths = np.empty((count, length), dtype=np.intp)
    x = np.zeros(count, dtype=np.intp)
    for t, K in enumerate(reversed(steps)):
        cdf = np.cumsum(K / K.sum(axis=1, keepdims=True), axis=1)
        # +inf from each row's last positive weight on, so that u in [0, 1)
        # never picks a zero weight, however the cumulative sum rounds
        last = K.shape[1] - 1 - np.argmax(K[:, ::-1] > 0, axis=1)
        cdf[np.arange(K.shape[1]) >= last[:, None]] = np.inf
        x = (cdf[x] <= rng.random(count)[:, None]).sum(axis=1)
        paths[:, t] = x
    return paths


class MarkovField(FieldModel):
    """Stationary finite chain on Z with strictly positive transition rows.

    The minimal transition entry delta is recorded; the default claimed
    decoupling certificate is gap 1 with constant cost -2*log(delta), and it
    is validated against matrix oracles in the verifiers rather than assumed.
    A non-stationary start is allowed for sampling demonstrations; law
    computations anchor the chain at the left edge of the requested box.
    """

    kind = "markov"

    def __init__(self, space: ValueSpace, transition, start=None,
                 budget: int = DEFAULT_LAW_BUDGET):
        P = np.asarray(transition, dtype=float)
        A = len(space.points)
        if P.shape != (A, A):
            raise ValueError(f"transition must be {A}x{A}, got {P.shape}")
        if np.any(P <= 0):
            raise ValueError("transition entries must be strictly positive "
                             "(Doeblin minorization)")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1")
        self.transition = P / P.sum(axis=1, keepdims=True)
        self.doeblin_delta = float(np.min(self.transition))
        delta_cost = -2.0 * math.log(self.doeblin_delta)
        super().__init__(space, 1, 1,
                         DecouplingParams(ParamTable.constant(1.0),
                                          ParamTable.constant(delta_cost)),
                         budget)
        self.stationary_start = start is None
        self.start = (_stationary_distribution(self.transition)
                      if start is None else np.asarray(start, dtype=float))
        if abs(self.start.sum() - 1.0) > 1e-9 or np.any(self.start < 0):
            raise ValueError("start distribution must be a probability vector")
        with np.errstate(divide="ignore"):
            self.log_T = np.log(self.transition)
            self.log_start = np.log(self.start)

    def _log_matvec(self, v: np.ndarray) -> np.ndarray:
        """One chain step in log space: v'(b) = logsumexp_a v(a) + log P(a,b)."""
        return logsumexp(v[:, None] + self.log_T, axis=0)

    def cylinder_log_prob(self, constraints) -> float:
        items = sorted((_normalize_site(s)[0], frozenset(a))
                       for s, a in constraints.items())
        if not items:
            return 0.0
        masks = []
        for _, allowed in items:
            m = np.full(self.n_atoms, NEG_INF)
            m[sorted(allowed)] = 0.0
            masks.append(m)
        v = self.log_start + masks[0]
        prev = items[0][0]
        for (site, _), mask in zip(items[1:], masks[1:]):
            for _ in range(site - prev):
                v = self._log_matvec(v)
            v = v + mask
            prev = site
        return logsumexp(v)

    def sum_law(self, n: int) -> FiniteLaw:
        # one restart from the start law: the box is a single block
        return self._memo(n, lambda: self._transfer_law(
            n, self.atom_keys, self.log_start, self.log_T, period=n))

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        # anchored at the box's left edge, as the sum law is
        return _chain_paths(rng, samples, box.side, self.start,
                            self.transition)

    def describe(self) -> str:
        return f"markov(atoms={self.n_atoms},delta={self.doeblin_delta:.3g})"


# ---------------------------------------------------------------------------
# block product / conditioned block product (d = 1)


class BlockField(FieldModel):
    """I.i.d. blocks of side j, each carrying the base law on one block.

    keep=None gives the plain block product (the base law restricted to one
    block, tensorized over the block partition of Z).  A non-empty ``keep``
    set of atom indices conditions every block site to take values in that
    set; the conditioning event must have positive mass.  The law is
    invariant under translations by j, and the claimed decoupling and
    local-control certificates of the base are carried over unchanged.
    """

    kind = "block"

    def __init__(self, base: FieldModel, block: int, keep=None):
        if base.dim != 1:
            raise ModelError("block models are implemented for d = 1 bases")
        if not isinstance(base, (IIDField, MarkovField)):
            raise ModelError(
                "block models need an IID or Markov base; apply affine maps "
                "to the block model instead")
        if block < 1:
            raise ValueError(f"block side must be positive, got {block}")
        super().__init__(base.space, 1, block, base.decoupling, base.budget)
        self.base = base
        self.block = block
        if keep is not None:
            keep = frozenset(int(i) for i in keep)
            if not keep:
                raise ModelError("conditioning set must be non-empty")
            if not keep <= set(range(base.n_atoms)):
                raise ModelError(f"keep indices {sorted(keep)} out of range")
            if keep == set(range(base.n_atoms)):
                keep = None  # conditioning on everything is no conditioning
        self.keep = keep
        self._keep_list = (sorted(keep) if keep is not None
                           else list(range(base.n_atoms)))
        self.log_mass = self._block_mass()
        if self.log_mass == NEG_INF:
            raise ModelError("conditioning event has zero mass")

    def support_indices(self):
        return tuple(self._keep_list)

    @property
    def conditioned(self) -> bool:
        return self.keep is not None

    def _keep_mask_log(self) -> np.ndarray:
        m = np.full(self.n_atoms, NEG_INF)
        m[self._keep_list] = 0.0
        return m

    def _block_mass(self) -> float:
        if self.keep is None:
            return 0.0
        if isinstance(self.base, IIDField):
            nu = logsumexp(self.base.log_w[self._keep_list])
            return self.block * nu
        masks = [self._keep_mask_log()] * self.block
        return self._weighted_block_logsum(masks)

    def _weighted_block_logsum(self, log_weights) -> float:
        """log sum over block paths of start * transitions * per-site weights."""
        base = self.base
        v = base.log_start + log_weights[0]
        for w in log_weights[1:]:
            v = logsumexp(v[:, None] + base.log_T, axis=0) + w
        return logsumexp(v)

    def block_cylinder_log_prob(self, pos_constraints) -> float:
        """Conditional probability of per-position constraints in one block."""
        if isinstance(self.base, IIDField):
            total = 0.0
            nu = logsumexp(self.base.log_w[self._keep_list])
            for pos, allowed in sorted(pos_constraints.items()):
                inter = sorted(set(allowed) & set(self._keep_list))
                total += logsumexp(self.base.log_w[inter]) - nu
            return total
        masks = []
        for pos in range(self.block):
            allowed = pos_constraints.get(pos)
            if allowed is None:
                idx = self._keep_list
            else:
                idx = sorted(set(allowed) & set(self._keep_list))
            m = np.full(self.n_atoms, NEG_INF)
            m[idx] = 0.0
            masks.append(m)
        return self._weighted_block_logsum(masks) - self.log_mass

    def cylinder_log_prob(self, constraints) -> float:
        per_block = {}
        for site, allowed in constraints.items():
            x = _normalize_site(site)[0]
            b, pos = divmod(x, self.block)
            per_block.setdefault(b, {})[pos] = allowed
        return sum(self.block_cylinder_log_prob(c)
                   for _, c in sorted(per_block.items()))

    def sum_law(self, n: int) -> FiniteLaw:
        def build():
            keep = self._keep_list
            keys = [self.atom_keys[i] for i in keep]
            if isinstance(self.base, IIDField):
                log_w = self.base.log_w[keep]
                return self._transfer_law(n, keys, log_w - logsumexp(log_w))
            log_T = self.base.log_T[np.ix_(keep, keep)]
            # a partial last block of s sites is weighted by the probability
            # that its remaining block - s sites stay in the keep set
            s = n % self.block
            tail = np.zeros(len(keep)) if s else None
            for _ in range(self.block - s if s else 0):
                tail = logsumexp(log_T + tail[None, :], axis=1)
            blocks = -(-n // self.block)
            return self._transfer_law(
                n, keys, self.base.log_start[keep], log_T, period=self.block,
                tail=tail, shift=blocks * self.log_mass)
        return self._memo(n, build)

    def block_log_mgf(self, lam) -> float:
        """log E[exp<lam, block sum>] for one conditioned block."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        tilts = self.atoms @ lam
        if isinstance(self.base, IIDField):
            per_site = logsumexp(self.base.log_w[self._keep_list]
                                 + tilts[self._keep_list])
            nu = logsumexp(self.base.log_w[self._keep_list])
            return self.block * (per_site - nu)
        mask = self._keep_mask_log()
        weights = [mask + tilts] * self.block
        return self._weighted_block_logsum(weights) - self.log_mass

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        """Whole blocks drawn as base-chain paths that stay in the keep set,
        then cropped to the box."""
        keep = np.exp(self._keep_mask_log())
        first = box.corner[0] // self.block
        blocks = (box.corner[0] + box.side - 1) // self.block - first + 1
        paths = _chain_paths(rng, samples * blocks, self.block,
                             self.base.start * keep,
                             self.base.transition * keep)
        skip = box.corner[0] - first * self.block
        return paths.reshape(samples, -1)[:, skip:skip + box.side]

    def describe(self) -> str:
        tag = "conditioned" if self.conditioned else "product"
        extra = f",|K|={len(self._keep_list)}" if self.conditioned else ""
        return f"{tag}(base={self.base.kind},j={self.block}{extra})"


# ---------------------------------------------------------------------------
# affine image


class AffineImageField(FieldModel):
    """Sitewise affine image  sigma -> A sigma - y0  of a base model.

    The atom index structure is untouched, so cylinder probabilities and
    sampling delegate to the base; only the value geometry changes.  The
    claimed decoupling certificate is inherited unchanged.  Image atoms may
    collide when A is not injective on the base atoms; laws merge masses.
    """

    kind = "affine"

    def __init__(self, base: FieldModel, matrix, offset=None):
        A = np.atleast_2d(np.asarray(matrix, dtype=float))
        if A.shape[1] != base.k:
            raise ValueError(f"matrix columns {A.shape[1]} != base k {base.k}")
        k_new = A.shape[0]
        if k_new not in (1, 2):
            raise ValueError(f"image dimension must be 1 or 2, got {k_new}")
        if np.linalg.matrix_rank(A) < k_new:
            raise ValueError("matrix must have full row rank")
        y0 = (np.zeros(k_new) if offset is None
              else np.atleast_1d(np.asarray(offset, dtype=float)))
        if y0.shape != (k_new,):
            raise ValueError(f"offset must have shape ({k_new},)")
        self._A_frac = [[Fraction(A[i, j]) for j in range(A.shape[1])]
                        for i in range(k_new)]
        self._y0_frac = [Fraction(v) for v in y0]
        new_points = []
        for p in base.atom_fracs:
            new_points.append(tuple(
                sum(self._A_frac[i][j] * p[j] for j in range(base.k))
                - self._y0_frac[i] for i in range(k_new)))
        labels = tuple(f"f({lab})" for lab in base.space.labels)
        self.base = base
        self.matrix = A
        self.offset = y0
        # image atoms may collide, so the space skips the distinctness check
        super().__init__(ValueSpace(tuple(new_points), labels), base.dim,
                         base.invariance_step, base.decoupling, base.budget)

    @property
    def budget(self) -> int:
        """The base's budget: the base runs the recurrence this law maps."""
        return self.base.budget

    @budget.setter
    def budget(self, value: int):
        self.base.budget = value

    def support_indices(self):
        return self.base.support_indices()

    def cylinder_log_prob(self, constraints) -> float:
        return self.base.cylinder_log_prob(constraints)

    def sum_law(self, n: int) -> FiniteLaw:
        def build():
            base_law = self.base.sum_law(n)
            count = base_law.count
            out = {}
            bden = base_law.den
            for key, lp in zip(base_law.keys, base_law.logp):
                s = [Fraction(x, bden) for x in key]
                img = tuple(
                    sum(self._A_frac[i][j] * s[j] for j in range(self.base.k))
                    - count * self._y0_frac[i] for i in range(self.k))
                ikey = tuple(int(f * self.den) for f in img)
                for f, x in zip(img, ikey):
                    if f * self.den != x:
                        raise AssertionError("affine image key not integral")
                prev = out.get(ikey)
                out[ikey] = (float(lp) if prev is None
                             else logadd(prev, float(lp)))
            keys = tuple(sorted(out))
            return FiniteLaw(keys, self.den, np.array([out[k] for k in keys]),
                             count)
        return self._memo(n, build)

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        return self.base.sample_box(box, rng, samples)

    def local_control_certificate(self, shape, rule: str = "canonical"):
        """Covering certificate, or the composed linear+offset pushforward rule.

        rule="composed" uses t(V) = max base-atom gauge of the preimage values
        plus the gauge of the offset; for symmetric shapes this dominates the
        canonical covering value and keeps alpha = 1.
        """
        if rule == "canonical":
            return FieldModel.local_control_certificate(self, shape)
        if rule != "composed":
            raise ValueError(f"unknown rule {rule!r}")
        linear_images = self.atoms + self.offset[None, :]
        gmax = max(gauge(shape, v) for v in linear_images)
        t_linear = gmax * (1.0 + 1e-9) + 1e-12
        return LocalControlParams(t=t_linear + gauge(shape, self.offset),
                                  alpha=1.0)

    def describe(self) -> str:
        return f"affine(base={self.base.describe()},k={self.k})"


# ---------------------------------------------------------------------------
# factories and shared operations


def iid_field(atoms, weights, dim: int = 1, labels=None) -> IIDField:
    return IIDField(ValueSpace.from_atoms(atoms, labels), weights, dim)


def markov_field(atoms, transition, start=None, labels=None) -> MarkovField:
    return MarkovField(ValueSpace.from_atoms(atoms, labels), transition, start)


def product_of_marginals(base: FieldModel, block: int) -> BlockField:
    return BlockField(base, block, keep=None)


def conditioned(base: FieldModel, block: int, keep) -> BlockField:
    return BlockField(base, block, keep=frozenset(keep))


def affine_image(base: FieldModel, matrix, offset=None) -> AffineImageField:
    return AffineImageField(base, matrix, offset)


def scalarize(model: FieldModel, lam) -> FieldModel:
    """Scalar field <lam, sigma>; identity shortcut for k = 1, lam = 1."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if model.k == 1 and lam.shape == (1,) and lam[0] == 1.0:
        return model
    return AffineImageField(model, lam.reshape(1, -1))


def sample(model: FieldModel, box: Box, seed) -> dict:
    """Draw one configuration on the box; deterministic in (model, box, seed).

    ``seed`` may also be a Generator, which numpy's default_rng returns
    unaltered, so the draw then continues its stream.
    """
    if box.dim != model.dim:
        raise ValueError(f"box dim {box.dim} != model dim {model.dim}")
    row = model.sample_box(box, np.random.default_rng(seed), 1)[0]
    return {s: int(i) for s, i in zip(box.sites(), row)}


def sample_sums(model: FieldModel, box: Box, samples: int, rng) -> np.ndarray:
    """(samples, k) site sums of independent draws on the box, drawn in
    row blocks of at most DEFAULT_LAW_BUDGET (sample, site) cells."""
    sums = np.empty((samples, model.k))
    rows = max(1, DEFAULT_LAW_BUDGET // box.size)
    for lo in range(0, samples, rows):
        draws = model.sample_box(box, rng, min(rows, samples - lo))
        sums[lo:lo + len(draws)] = model.atoms[draws].sum(axis=1)
    return sums
