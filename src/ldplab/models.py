"""Concrete lattice-field laws with exact finite-volume computations.

All models live on Z^d (d = 1 or 2) with a finite set of atoms in R^k
(k = 1 or 2) as single-site values.  Every model shares one atom index
space: value constraints are expressed as per-site sets of allowed atom
indices, sums are tracked on the exact integer lattice generated by the
atoms (coordinates scaled by a common denominator), and all masses are kept
in log space.

Transfer records
----------------
Every exact quantity of a kind is a functional of one tilted transfer
operator (Dembo & Zeitouni, Large Deviations Techniques and Applications,
3.1).  Each kind states it once, as a ``Transfer`` record: the atoms a site
may take (``keep``), the restart weights ``start``, the transition weights
``T`` on ``keep``, the ``period`` (sites per restart: 1 for independent
sites, j for chain-based blocks of side j, None for a chain, which restarts
once) and ``log_norm``, the log mass of one restarted segment (0, or the
conditioning mass).

================  =======================================================
IIDField          start = weights, period 1
MarkovField       start, T, no period
BlockField        IID base or block side 1: period 1, base start on keep,
                  log_norm the per-site kept mass; chain base, side j > 1:
                  base start and T on keep, period j, log_norm = log_mass
AffineImageField  its base's record, with its own image atoms
================  =======================================================

``FieldModel`` derives from the record the sum law (a dense log-mass array
over sum lattice x chain state, advanced one site at a time by shift and
logaddexp on the lattice compressed by the gcd of the atom-key
differences), cylinder probabilities (one masked forward pass per restart
segment), the batched sampler, and, in ``pressure.pressure_limit``, the
limit pressure.  An affine image keeps one rule of its own: its sum law maps
the base law's keys exactly, on the base's lattice.  Block models and
Markov chains are implemented for lattice dimension 1; IID models (and
their affine images) also support d = 2.  The budget rule lives in the
recurrence: the stored (sum, state) entries may not exceed ``budget``.
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
# transfer records


class Transfer:
    """One kind's transfer operator: everything the exact computations read.

    ``keep`` lists the atom indices a site may take; ``start`` (one weight
    per kept atom) restarts a path and ``T`` (square, on ``keep``) moves it
    one site on.  Each restart covers ``period`` sites: 1 for independent
    sites (``T`` unused), j for blocks of side j, None for a chain, which
    restarts once.  ``log_norm`` is the log mass of one restarted segment:
    0, or with ``conditioned`` the mass the weights leave on ``keep``.
    """

    def __init__(self, keep, start, T=None, period=1, conditioned=False):
        self.keep = np.array(keep, dtype=np.intp)
        self.start = np.asarray(start, dtype=float)
        self.T = T
        self.period = period
        with np.errstate(divide="ignore"):
            self.log_start = np.log(self.start)
            self.log_T = None if T is None else np.log(T)
        self._column = {int(a): c for c, a in enumerate(self.keep)}
        self._kept = frozenset(self._column)
        self.log_norm = self.forward(period or 1) if conditioned else 0.0

    def columns(self, allowed) -> list:
        """Sorted positions in ``keep`` of the allowed atoms it holds."""
        return sorted(map(self._column.__getitem__,
                          self._kept.intersection(allowed)))

    def forward(self, length: int, tilt=None, only=None) -> float:
        """log total weight of the paths over ``length`` sites from one
        restart: ``start``, then ``T`` per step.  ``tilt`` (log weights on
        ``keep``) is added at every site; ``only`` maps a site t to the
        columns it may take."""
        v = self.log_start
        for t in range(length):
            if t:
                v = logsumexp(v[:, None] + self.log_T, axis=0)
            if tilt is not None:
                v = v + tilt
            if only and t in only:
                kept = np.full(len(v), NEG_INF)
                kept[only[t]] = v[only[t]]
                v = kept
        return logsumexp(v)


# ---------------------------------------------------------------------------
# base class


class FieldModel:
    """Shared surface of the concrete lattice-field laws.

    Each kind's constructor sets ``transfer``, its ``Transfer`` record; the
    sum law, cylinder probabilities and sampler below are read off it.
    """

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
        return tuple(self.transfer.keep.tolist())

    def allowed_in_scaled(self, shape, t: float):
        """Atom indices with gauge strictly below t (membership in t*V)."""
        return frozenset(
            i for i in self.support_indices()
            if gauge(shape, self.atoms[i]) < t)

    def cylinder_log_prob(self, constraints) -> float:
        """log P(each constrained site takes one of its allowed atoms).

        Independent sites contribute one logsumexp each.  The constrained
        sites of one restart segment take one masked forward pass: a block
        runs over its whole block, a chain from its first constrained
        site, where it starts from ``start``, to its last.
        """
        rec = self.transfer
        items = sorted((_normalize_site(s), rec.columns(a))
                       for s, a in constraints.items())
        total = 0.0
        if rec.period == 1:
            for _, cols in items:
                total += logsumexp(rec.log_start[cols]) - rec.log_norm
            return total
        segments = {}
        for (x, *_), cols in items:
            first = items[0][0][0] if rec.period is None else \
                x - x % rec.period
            segments.setdefault(first, {})[x - first] = cols
        for cons in segments.values():
            length = rec.period or max(cons) + 1
            total += rec.forward(length, only=cons) - rec.log_norm
        return total

    def sum_law(self, n: int) -> FiniteLaw:
        return self._memo(n, lambda: self._transfer_law(n ** self.dim))

    def _memo(self, n: int, build) -> FiniteLaw:
        """The per-n sum-law cache every kind shares; build() on a miss."""
        if n < 1:
            raise ValueError("volume side must be positive")
        law = self._laws.get(n)
        if law is None:
            law = self._laws[n] = build()
        return law

    def _transfer_law(self, count: int) -> FiniteLaw:
        """Exact law of the sum of ``count`` sites, by the transfer
        recurrence of the record.

        Sites t with t % period == 0 restart: the chain state is summed out
        and ``start`` applied; the other sites apply ``T``.  With period 1
        no chain state is kept.  A partial last segment of s sites is
        weighted by the mass of the period - s sites that would complete it,
        and every segment's ``log_norm`` is subtracted.  Position i of the
        dense array stands for the key t*lo + step*i after t sites, per
        coordinate.  Sums of zero mass are not in the support.  A step whose
        array would hold more than ``budget`` (sum, state) entries raises
        BudgetExceededError before it allocates.
        """
        rec = self.transfer
        keys = [self.atom_keys[i] for i in rec.keep]
        period = rec.period or count
        s = count % period
        tail = np.zeros(len(keys)) if s else None
        for _ in range(period - s if s else 0):
            tail = logsumexp(rec.log_T + tail[None, :], axis=1)
        shift = -(-count // period) * rec.log_norm
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
                emit = (np.logaddexp.reduce(mass, axis=-1)[..., None]
                        + rec.log_start)
            else:
                emit = np.logaddexp.reduce(mass[..., None] + rec.log_T,
                                           axis=-2)
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

    def sample_box(self, box: Box, rng, samples: int) -> np.ndarray:
        """(samples, box.size) atom indices of independent draws on the box,
        columns in ``box.sites()`` order.

        Independent sites take one ``rng.choice``.  Chains and blocks draw
        whole restart segments with ``_chain_paths`` and crop them to the
        box; a chain's one segment starts at the box's left edge, as its
        sum law does.
        """
        rec = self.transfer
        if rec.period == 1:
            p = rec.start / math.exp(rec.log_norm)
            return rec.keep[rng.choice(len(p), size=(samples, box.size), p=p)]
        j = rec.period or box.side
        skip = box.corner[0] % j if rec.period else 0
        segments = -(-(skip + box.side) // j)
        paths = _chain_paths(rng, samples * segments, j, rec.start, rec.T)
        return rec.keep[paths.reshape(samples, -1)[:, skip:skip + box.side]]

    def local_control_certificate(self, shape) -> LocalControlParams:
        """Covering certificate: t just above the largest atom gauge, alpha 1.

        Valid for any bounded-support field: the site value always lies in
        t*V, so the conditional mass is one whatever the conditioning.
        """
        gmax = max(gauge(shape, self.atoms[i]) for i in self.support_indices())
        t = gmax * (1.0 + 1e-9) + 1e-12
        return LocalControlParams(t=t, alpha=1.0)


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
        self.transfer = Transfer(range(self.n_atoms), self.weights)
        self.log_w = self.transfer.log_start

    # named here too, so that a tracer wrapping vars(cls) finds them
    sum_law = FieldModel.sum_law
    cylinder_log_prob = FieldModel.cylinder_log_prob
    sample_box = FieldModel.sample_box

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
        self.start = (_stationary_distribution(self.transition)
                      if start is None else np.asarray(start, dtype=float))
        if abs(self.start.sum() - 1.0) > 1e-9 or np.any(self.start < 0):
            raise ValueError("start distribution must be a probability vector")
        self.transfer = Transfer(range(A), self.start, self.transition,
                                 period=None)
        self.log_start = self.transfer.log_start
        self.log_T = self.transfer.log_T

    # named here too, so that a tracer wrapping vars(cls) finds them
    sum_law = FieldModel.sum_law
    cylinder_log_prob = FieldModel.cylinder_log_prob
    sample_box = FieldModel.sample_box

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
    Blocks over an IID base, or of side 1, are independent sites on the
    kept atoms; ``log_mass`` is the log mass of the conditioning event on
    one block either way.
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
        kept = sorted(keep) if keep is not None else list(range(base.n_atoms))
        src = base.transfer       # keeps every atom: columns are indices
        if block == 1 or src.period == 1:
            self.transfer = Transfer(kept, src.start[kept],
                                     conditioned=self.conditioned)
            self.log_mass = block * self.transfer.log_norm
        else:
            self.transfer = Transfer(kept, src.start[kept],
                                     src.T[np.ix_(kept, kept)], period=block,
                                     conditioned=self.conditioned)
            self.log_mass = self.transfer.log_norm
        if self.log_mass == NEG_INF:
            raise ModelError("conditioning event has zero mass")

    @property
    def conditioned(self) -> bool:
        return self.keep is not None

    # named here too, so that a tracer wrapping vars(cls) finds them
    sum_law = FieldModel.sum_law
    cylinder_log_prob = FieldModel.cylinder_log_prob
    sample_box = FieldModel.sample_box

    def describe(self) -> str:
        tag = "conditioned" if self.conditioned else "product"
        extra = (f",|K|={len(self.transfer.keep)}" if self.conditioned
                 else "")
        return f"{tag}(base={self.base.kind},j={self.block}{extra})"


# ---------------------------------------------------------------------------
# affine image


class AffineImageField(FieldModel):
    """Sitewise affine image  sigma -> A sigma - y0  of a base model.

    The atom index structure is untouched, so the transfer record is the
    base's; only the value geometry changes.  The claimed decoupling
    certificate is inherited unchanged.  Image atoms may collide when A is
    not injective on the base atoms; laws merge masses.
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
        self.transfer = base.transfer

    @property
    def budget(self) -> int:
        """The base's budget: the base runs the recurrence this law maps."""
        return self.base.budget

    @budget.setter
    def budget(self, value: int):
        self.base.budget = value

    def sum_law(self, n: int) -> FiniteLaw:
        """The base law with its keys mapped exactly.  A recurrence on the
        image keys would need a lattice as fine as the image's
        denominator; the base's lattice stays coarse."""
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

    # named here too, so that a tracer wrapping vars(cls) finds them
    cylinder_log_prob = FieldModel.cylinder_log_prob
    sample_box = FieldModel.sample_box

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
