"""Span recorder that wraps ldplab's public functions from outside.

``Tracer.install`` replaces each traced function or model method by a
wrapper that records a span (layer, start, end, parent) and accumulates the
layer's call count and self time: the span's duration minus the time its
child spans cover.  Functions are replaced at every module-level binding in
the ``ldplab`` package, and inside module-level dicts such as the CLI's
command table, because ``harness``, ``entropy`` and ``cli`` import many of
them by name.  ``uninstall`` restores every original binding.
"""

import os
import sys
import time
from collections import defaultdict

MODEL_CLASSES = ("IIDField", "MarkovField", "BlockField", "AffineImageField")

# layer name -> (module, attribute) pairs whose callables make up the layer
FUNCTION_LAYERS = {
    "pressure.pressure_finite": [("pressure", "pressure_finite")],
    "pressure.pressure_mc": [("pressure", "pressure_mc")],
    "pressure.pressure_limit": [("pressure", "pressure_limit")],
    "pressure.compute_pressure_curve": [
        ("pressure", "compute_pressure_curve")],
    "pressure.residual_beta_check": [("pressure", "residual_beta_check")],
    "entropy.entropy_estimate": [("entropy", "entropy_estimate")],
    "entropy.chebyshev_upper_check": [("entropy", "chebyshev_upper_check")],
    "entropy.subadditive_lemma_check": [
        ("entropy", "subadditive_lemma_check")],
    "hypotheses.check_decoupling": [("hypotheses", "check_decoupling")],
    "hypotheses.check_local_control": [("hypotheses", "check_local_control")],
    "hypotheses.doeblin_decoupling_certificate": [
        ("hypotheses", "doeblin_decoupling_certificate")],
    "conjugate.lft": [("conjugate", "lft")],
    "conjugate.lft_at": [("conjugate", "lft_at")],
    "conjugate.mosco_check": [("conjugate", "mosco_m1_check"),
                              ("conjugate", "mosco_m2_check"),
                              ("conjugate", "uniform_properness_check")],
    "lattice.tile": [("lattice", "tile")],
    "reports.write": [("reports", "write_report_json"),
                      ("reports", "write_csv"),
                      ("pressure", "write_curve_csv"),
                      ("conjugate", "write_grid_csv")],
    "harness": [("harness", name) for name in (
        "verify_duality", "run_mosco_pipeline", "run_tiling",
        "run_hypotheses", "run_pressure", "run_entropy", "run_chebyshev",
        "run_subadditive", "run_lft")],
}

METHOD_LAYERS = {
    "models.sum_law": "sum_law",
    "models.sample_box": "sample_box",
    "models.cylinder_log_prob": "cylinder_log_prob",
}


class Tracer:
    def __init__(self):
        self._restore = []
        self.reset()

    def reset(self):
        """Forget the spans and counters of the previous round."""
        self.spans = []
        self._stack = []            # [span id, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.begin_op()

    def begin_op(self):
        """Start a new operation: sum-law requests are repeats within one."""
        self._seen = {}             # id(model) -> (model, set of n)

    # -- recording --------------------------------------------------------

    def _wrap(self, layer, fn, after=None):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            stack.append([span_id, 0.0])
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                _, covered = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - covered
                self.calls[layer] += 1
                self.self_s[layer] += own
                self.spans.append((span_id, layer, t0, t1, parent))
            if after is not None:
                after(args, out, own)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_sum_law(self, args, law, own):
        model, n = args[0], args[1]
        entry = self._seen.setdefault(id(model), (model, set()))
        if n in entry[1]:
            self.extra["models.sum_law.repeat_calls"] += 1
            self.extra["models.sum_law.repeat_self_s"] += own
        entry[1].add(n)
        size = len(law.keys)
        if size > self.extra["models.sum_law.max_support"]:
            self.extra["models.sum_law.max_support"] = size

    def _after_sample_box(self, args, out, own):
        self.extra["models.sample_box.sites"] += args[1].size

    def _after_write(self, args, out, own):
        self.extra["reports.bytes_written"] += os.path.getsize(args[0])

    # -- installation -----------------------------------------------------

    def install(self):
        import ldplab  # noqa: F401  (loads every submodule)
        from ldplab import models
        mods = [m for name, m in sys.modules.items()
                if name == "ldplab" or name.startswith("ldplab.")]
        hooks = {"models.sum_law": self._after_sum_law,
                 "models.sample_box": self._after_sample_box,
                 "reports.write": self._after_write}
        for layer, attr in METHOD_LAYERS.items():
            for cls_name in MODEL_CLASSES:
                cls = getattr(models, cls_name)
                if attr in vars(cls):
                    orig = vars(cls)[attr]
                    setattr(cls, attr,
                            self._wrap(layer, orig, hooks.get(layer)))
                    self._restore.append((cls, attr, orig))
        from ldplab.config import ExperimentConfig
        orig = ExperimentConfig.build_model
        ExperimentConfig.build_model = self._wrap("config.build_model", orig)
        self._restore.append((ExperimentConfig, "build_model", orig))
        for layer, targets in FUNCTION_LAYERS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules["ldplab." + mod_name], attr)
                self._rebind(mods, orig, self._wrap(layer, orig,
                                                    hooks.get(layer)))

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, orig))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and orig in entry:
                            value[key] = tuple(wrapper if e is orig else e
                                               for e in entry)
                            self._restore.append(((value, key), None, entry))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            if name is None:
                table, key = owner
                table[key] = orig
            else:
                setattr(owner, name, orig)
        self._restore = []

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, layer, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id,layer,start_s,end_s,parent\n")
            for span_id, layer, t0, t1, parent in sorted(self.spans):
                fh.write(f"{span_id},{layer},{t0:.9f},{t1:.9f},{parent}\n")
