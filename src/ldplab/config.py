"""Experiment configuration: INI files mapped to models, grids, tolerances.

One INI file describes a full experiment.  Sections are optional unless a
subcommand needs them; every key has a documented default so a minimal file
only names the model.  All parse and consistency failures raise ConfigError
with the offending section and key in the message (the CLI turns these into
exit code 3).

Recognized sections and keys::

    [model]     kind (iid|markov|product|conditioned), atoms, weights,
                transition, start, base, block, keep, scale, offset,
                g_table, c_table, budget
    [grids]     lambda_min, lambda_max, lambda_points, x_min, x_max, x_points
    [volumes]   n_list
    [entropy]   radii, epsilon, delta
    [verify]    x_values, radius, gap_tolerance, upper_margin_factor,
                slope_bound
    [subadditive] m_values, n_values, center, radius, epsilon, lambda_values
    [chebyshev] events, max_n
    [hypotheses] m_sites, box_side, events, window, t, alpha, max_gap
    [mosco]     count, atom_count, weight_ratio, window0, window_decay,
                m2_tolerance, m1_tolerance, x_min, x_max, x_points,
                tail_fraction, adversary_budget
    [run]       seed, mode (exact|mc), out, quiet, samples

Tables such as g_table accept either a single constant ("0.0") or
comma-separated threshold:value pairs ("1:2.5, 8:1.0"), looked up by the
largest threshold <= n.
"""

import configparser
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .models import (DecouplingParams, FieldModel, ParamTable, ValueSpace,
                     affine_image, conditioned, iid_field, markov_field,
                     product_of_marginals)

MODEL_KINDS = ("iid", "markov", "product", "conditioned")

_DEFAULTS = {
    ("grids", "lambda_min"): "-5.0",
    ("grids", "lambda_max"): "5.0",
    ("grids", "lambda_points"): "201",
    ("grids", "x_min"): "-1.0",
    ("grids", "x_max"): "1.0",
    ("grids", "x_points"): "201",
    ("volumes", "n_list"): "50, 100, 200, 400",
    ("entropy", "radii"): "0.2, 0.1, 0.05, 0.025",
    ("entropy", "epsilon"): "0.1",
    ("entropy", "delta"): "0.01",
    ("verify", "x_values"): "0.0, 0.3, -0.3, 0.6, -0.6",
    ("verify", "radius"): "0.025",
    ("verify", "gap_tolerance"): "0.02",
    ("verify", "upper_margin_factor"): "3.0",
    ("subadditive", "m_values"): "2, 4, 8",
    ("subadditive", "n_values"): "32, 64, 128",
    ("subadditive", "center"): "0.0",
    ("subadditive", "radius"): "0.75",
    ("subadditive", "epsilon"): "0.7",
    ("subadditive", "lambda_values"): "-1.0, 0.5, 1.0",
    ("chebyshev", "events"): "100",
    ("chebyshev", "max_n"): "200",
    ("hypotheses", "m_sites"): "3",
    ("hypotheses", "box_side"): "16",
    ("hypotheses", "events"): "200",
    ("hypotheses", "window"): "4",
    ("hypotheses", "max_gap"): "12",
    ("mosco", "count"): "12",
    ("mosco", "atom_count"): "10",
    ("mosco", "weight_ratio"): "0.05",
    ("mosco", "window0"): "1.0",
    ("mosco", "window_decay"): "0.5",
    ("mosco", "m2_tolerance"): "1e-6",
    ("mosco", "m1_tolerance"): "1e-4",
    ("mosco", "x_min"): "0.0",
    ("mosco", "x_max"): "1.0",
    ("mosco", "x_points"): "41",
    ("mosco", "tail_fraction"): "0.5",
    ("run", "seed"): "0",
    ("run", "mode"): "exact",
    ("run", "out"): "out",
    ("run", "quiet"): "false",
    ("run", "samples"): "4000",
}


def _fail(section: str, key: str, problem: str):
    raise ConfigError(f"[{section}] {key}: {problem}")


def _split(text: str, sep: str = ","):
    return [p.strip() for p in text.split(sep) if p.strip()]


class ExperimentConfig:
    """Typed view over one parsed INI file.

    Getter methods convert and validate on access, so a config that only
    exercises the pressure pipeline does not need valid entropy keys.
    """

    def __init__(self, parser: configparser.ConfigParser, path: str = "<memory>"):
        self.parser = parser
        self.path = path
        self.seed = self.get_int("run", "seed")
        self.mode = self.get_str("run", "mode")
        if self.mode not in ("exact", "mc"):
            _fail("run", "mode", f"must be 'exact' or 'mc', got {self.mode!r}")
        self.out_dir = self.get_str("run", "out")
        self.quiet = self.get_bool("run", "quiet")
        self.samples = self.get_int("run", "samples")
        if self.samples < 1:
            _fail("run", "samples", "must be positive")

    # -- raw access -------------------------------------------------------

    def _raw(self, section: str, key: str, default=None):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if default is not None:
            return default
        if (section, key) in _DEFAULTS:
            return _DEFAULTS[(section, key)]
        _fail(section, key, "missing required key")

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_option(section, key)

    def get_str(self, section: str, key: str, default=None) -> str:
        return str(self._raw(section, key, default)).strip()

    def get_int(self, section: str, key: str, default=None) -> int:
        raw = self._raw(section, key, default)
        try:
            return int(str(raw).strip())
        except ValueError:
            _fail(section, key, f"expected an integer, got {raw!r}")

    def get_float(self, section: str, key: str, default=None) -> float:
        raw = self._raw(section, key, default)
        try:
            return float(str(raw).strip())
        except ValueError:
            _fail(section, key, f"expected a number, got {raw!r}")

    def get_positive_float(self, section: str, key: str,
                           default=None) -> float:
        value = self.get_float(section, key, default)
        if not value > 0:
            _fail(section, key, f"must be positive, got {value}")
        return value

    def get_bool(self, section: str, key: str, default=None) -> bool:
        raw = str(self._raw(section, key, default)).strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        _fail(section, key, f"expected a boolean, got {raw!r}")

    def get_floats(self, section: str, key: str, default=None):
        raw = self._raw(section, key, default)
        try:
            return [float(p) for p in _split(str(raw))]
        except ValueError:
            _fail(section, key, f"expected comma-separated numbers, got {raw!r}")

    def get_ints(self, section: str, key: str, default=None):
        raw = self._raw(section, key, default)
        try:
            return [int(p) for p in _split(str(raw))]
        except ValueError:
            _fail(section, key, f"expected comma-separated integers, got {raw!r}")

    def get_table(self, section: str, key: str, default=None) -> ParamTable:
        raw = str(self._raw(section, key, default))
        try:
            if ":" not in raw:
                return ParamTable.constant(float(raw))
            entries = []
            for part in _split(raw):
                thr, val = part.split(":")
                entries.append((int(thr), float(val)))
            return ParamTable(tuple(entries))
        except ValueError:
            _fail(section, key,
                  f"expected a constant or 'n:value' pairs, got {raw!r}")

    # -- grids and schedules ------------------------------------------------

    def lambda_grid(self) -> np.ndarray:
        lo = self.get_float("grids", "lambda_min")
        hi = self.get_float("grids", "lambda_max")
        pts = self.get_int("grids", "lambda_points")
        if pts < 2 or not hi > lo:
            _fail("grids", "lambda_points",
                  f"need >= 2 points and lambda_max > lambda_min, "
                  f"got [{lo}, {hi}] with {pts}")
        return np.linspace(lo, hi, pts)

    def x_grid(self) -> np.ndarray:
        lo = self.get_float("grids", "x_min")
        hi = self.get_float("grids", "x_max")
        pts = self.get_int("grids", "x_points")
        if pts < 2 or not hi > lo:
            _fail("grids", "x_points",
                  f"need >= 2 points and x_max > x_min, got [{lo}, {hi}] "
                  f"with {pts}")
        return np.linspace(lo, hi, pts)

    def volumes(self):
        ns = self.get_ints("volumes", "n_list")
        if not ns or any(n < 1 for n in ns):
            _fail("volumes", "n_list", "need positive box sides")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            _fail("volumes", "n_list", f"must be strictly increasing, got {ns}")
        return ns

    def entropy_radii(self):
        radii = self.get_floats("entropy", "radii")
        if not radii or any(r <= 0 for r in radii):
            _fail("entropy", "radii", "need positive radii")
        return radii

    def epsilon(self) -> float:
        eps = self.get_float("entropy", "epsilon")
        if not 0.0 < eps < 1.0:
            _fail("entropy", "epsilon", f"must lie in (0, 1), got {eps}")
        return eps

    def delta(self) -> float:
        d = self.get_float("entropy", "delta")
        if not 0.0 < d < 1.0:
            _fail("entropy", "delta", f"must lie in (0, 1), got {d}")
        return d

    # -- model -------------------------------------------------------------

    def _parse_atoms(self, raw: str):
        # "a, b, c" is a list of scalar atoms; "(a, b); (c, d)" planar ones
        try:
            if "(" in raw or ";" in raw:
                atoms = []
                for part in _split(raw, ";"):
                    coords = _split(part.strip().strip("()"))
                    atoms.append(tuple(Fraction(c) for c in coords))
            else:
                atoms = [Fraction(p) for p in _split(raw)]
        except (ValueError, ZeroDivisionError):
            _fail("model", "atoms", f"cannot parse {raw!r}")
        try:
            ValueSpace.from_atoms(atoms)
        except ValueError as exc:
            _fail("model", "atoms", str(exc))
        return atoms

    def _base_model(self, kind=None) -> FieldModel:
        if kind is None:
            kind = self.get_str("model", "base", "iid")
        atoms = self._parse_atoms(self.get_str("model", "atoms", "-1, 1"))
        if kind == "iid":
            default_w = ", ".join(["1"] * len(atoms))
            weights = self.get_floats("model", "weights", default_w)
            if len(weights) != len(atoms):
                _fail("model", "weights",
                      f"{len(weights)} weights for {len(atoms)} atoms")
            total = sum(weights)
            if total <= 0:
                _fail("model", "weights", "weights must sum to a positive value")
            try:
                return iid_field(atoms, [w / total for w in weights])
            except ValueError as exc:
                _fail("model", "weights", str(exc))
        if kind == "markov":
            raw = self.get_str("model", "transition")
            try:
                rows = [[float(v) for v in (_split(r) if "," in r else r.split())]
                        for r in _split(raw, ";")]
                return markov_field(atoms, rows,
                                    self.get_floats("model", "start")
                                    if self.has("model", "start") else None)
            except ValueError as exc:
                _fail("model", "transition", str(exc))
        _fail("model", "base", f"unknown base kind {kind!r}")

    def build_model(self) -> FieldModel:
        """Construct the configured field model (fresh caches each call)."""
        kind = self.get_str("model", "kind", "iid")
        if kind not in MODEL_KINDS:
            _fail("model", "kind",
                  f"must be one of {', '.join(MODEL_KINDS)}, got {kind!r}")
        if kind in ("iid", "markov"):
            # [model] kind doubles as the base kind when no block wrapper
            model = self._base_model(kind)
        else:
            block = self.get_int("model", "block")
            if block < 1:
                _fail("model", "block", "block side must be positive")
            base = self._base_model()
            if kind == "product":
                model = product_of_marginals(base, block)
            else:
                keep = self.get_ints("model", "keep")
                bad = [i for i in keep if not 0 <= i < base.n_atoms]
                if bad:
                    _fail("model", "keep",
                          f"atom indices {bad} out of range 0..{base.n_atoms - 1}")
                model = conditioned(base, block, keep)

        if self.has("model", "scale") or self.has("model", "offset"):
            if model.k != 1:
                _fail("model", "scale", "scale/offset wrapping needs k = 1")
            scale = self.get_float("model", "scale", "1.0")
            offset = self.get_float("model", "offset", "0.0")
            if scale == 0.0:
                _fail("model", "scale", "scale must be nonzero")
            if scale != 1.0 or offset != 0.0:
                # the affine field recenters (A sigma - y0); the config key
                # promises scale*sigma + offset, hence the sign flip
                model = affine_image(model, [[scale]], [-offset])

        if self.has("model", "g_table") or self.has("model", "c_table"):
            g = self.get_table("model", "g_table", "0.0")
            c = self.get_table("model", "c_table", "0.0")
            model.decoupling = DecouplingParams(g, c)
        if self.has("model", "budget"):
            budget = self.get_int("model", "budget")
            if budget < 1:
                _fail("model", "budget", "budget must be positive")
            model.budget = budget
        return model


def _parse(text: str, source: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}") from exc
    return ExperimentConfig(_parse(text, path), path)


def config_from_string(text: str) -> ExperimentConfig:
    return ExperimentConfig(_parse(text, "<string>"))


def default_config() -> ExperimentConfig:
    return config_from_string("[model]\nkind = iid\natoms = -1, 1\n")
