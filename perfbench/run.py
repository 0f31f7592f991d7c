"""Run one benchmark workload against the ldplab source tree beside it.

    python3 perfbench/run.py --workload exact-laws --seed 1 \
        --seconds 55 --trace 0

The run imports ldplab from ``src/`` of the checkout it sits in, writes the
workload's generated configs under ``.perfbench_run/``, and repeats whole
rounds of the workload's operations, one after another in this process,
until ``--seconds`` have passed.  Successive rounds take successive
instances of the workload drawn from the seed (``workloads.VARIANTS``).
After each round it checks every operation's artifacts against the
oracles, outside the timed region, and takes set-up probes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (means over rounds); with ``--trace 1`` untraced
and traced rounds alternate and the metrics are the per-layer ones.
BENCHMARK.json names the metrics and their units.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15   # set-up probes per untraced run, at least
PROBES_PER_ROUND = 2
DEADLINE_S = 30.0    # per operation; an overrun counts as a failure


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree():
    """Make ``import ldplab`` load this checkout's src/, and nothing else."""
    init = os.path.join(SRC, "ldplab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no ldplab source tree at {SRC}")
    sys.path.insert(0, SRC)
    import ldplab
    if os.path.abspath(ldplab.__file__) != init:
        raise SystemExit(f"perfbench: imported ldplab from {ldplab.__file__}")


# ---------------------------------------------------------------------------
# operations


class DeadlineExceeded(BaseException):
    """Raised in an operation that overran DEADLINE_S."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _on_term(signum, frame):
    # unwind normally, so the work directory is removed and subprocess.run
    # kills a running set-up probe
    raise SystemExit(128 + signum)


def run_round(ops, out_root, tracer=None):
    """Run every operation once; return the round's wall time and, per
    operation, (op, out_dir, result, error, late, seconds)."""
    done = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        out = os.path.join(out_root, op.name)
        if tracer is not None:
            tracer.begin_op()
        result = error = None
        late = False
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            result = op.run(out)
        except DeadlineExceeded:
            error = f"overran the {DEADLINE_S:g} s deadline"
            late = True
        except Exception:
            error = traceback.format_exc(limit=-3).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        done.append((op, out, result, error, late, clock() - t0))
    return clock() - start, done


def check_round(done, reasons):
    """Check each operation's output.

    Returns (failed, wrong).  `failed` counts every operation that raised,
    exited with another code than expected, failed its check or overran
    the deadline.  `wrong` counts those among them that make the run's
    output incorrect: all but deadline overruns and an operation's
    documented known fault (``Op.known_fault``).
    """
    failed = wrong = 0
    for op, out, result, error, late, _ in done:
        known = False
        if error is None and op.expect is not None and result != op.expect:
            error = f"exit {result}, expected {op.expect}"
            if op.known_fault is not None and result == op.known_fault[0]:
                known = True
                error += f" (known fault: {op.known_fault[1]})"
        if error is None:
            try:
                op.check(out, result)
            except Exception as exc:
                error = f"wrong output: {exc}"
        if error is not None:
            failed += 1
            wrong += not (late or known)
            reasons.setdefault(op.name, error)
        shutil.rmtree(out, ignore_errors=True)
    return failed, wrong


# ---------------------------------------------------------------------------
# measurement


class SetupProbes:
    """Set-up times of fresh processes that import numpy and ldplab and
    generate the workload's inputs (setup_probe.py).

    The probes are taken a few at a time between rounds, so that their
    median sees the same stretch of the host's speed as the rounds do,
    not just the first seconds of the run.
    """

    def __init__(self, workload, seed, work):
        self.args = (workload, str(seed))
        self.work = work
        self.samples = []

    def take(self, count):
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 *self.args,
                 os.path.join(self.work, f"setup{len(self.samples)}")],
                capture_output=True, text=True, timeout=120, check=True)
            self.samples.append(float(proc.stdout.split()[-1]))

    def median(self):
        self.take(SETUP_REPEATS - len(self.samples))
        return statistics.median(self.samples)


def layer_metrics(tracer, names):
    """One traced round's value of each per-layer metric ``layer.stat``:
    ``calls`` and ``self_s`` per layer, anything else from the tracer's
    hooks (``trace.overhead_s`` is left to the caller)."""
    out = {}
    for name in names:
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = tracer.calls.get(layer, 0)
        elif stat == "self_s":
            out[name] = tracer.self_s.get(layer, 0.0)
        else:
            out[name] = tracer.extra.get(name, 0)
    return out


def measure(variants, seconds, layer_names, work, probes=None):
    """Run whole rounds for about `seconds`.

    The first round warms caches and lazy imports and is left out of the
    timings (its operations are still checked and counted).  Each timed
    round runs the next of `variants`.  With `layer_names` (a traced run),
    traced and untraced rounds alternate after it, and each pair runs the
    same variant.  A round is started only if one more round of the last
    one's length still fits.  Between rounds, `probes` (if given) takes
    PROBES_PER_ROUND set-up probes; their time does not count against
    `seconds`.
    """
    trace = layer_names is not None
    out_root = os.path.join(work, "out")
    reasons = {}
    rounds = {False: [], True: []}
    attempted = failed = wrong = 0
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
    start = time.perf_counter()
    paused = 0.0
    warm = True
    timed = 0
    while True:
        ops = variants[0 if warm else
                       (1 + (timed // 2 if trace else timed)) % len(variants)]
        round_start = time.perf_counter()
        traced = (trace and not warm
                  and len(rounds[True]) <= len(rounds[False]))
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, done = run_round(ops, out_root, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(done)
        f, w = check_round(done, reasons)
        failed += f
        wrong += w
        sums = {}
        for op, _, _, _, _, dt in done:
            sums[op.pipeline] = sums.get(op.pipeline, 0.0) + dt
        print(("warm-up" if warm else "traced" if traced else "timed")
              + f" round: run_s {wall:.4f} " + " ".join(
                  f"{p}_s {v:.4f}" for p, v in sums.items()))
        if not warm:
            timed += 1
            rounds[traced].append({
                "run_s": wall, "pipelines": sums,
                "layers": (layer_metrics(tracer, layer_names) if traced
                           else None)})
        warm = False
        now = time.perf_counter()
        # stop before a round that would end past the run length
        if (rounds[False] and (rounds[True] or not trace)
                and now - start - paused + (now - round_start) > seconds):
            break
        if probes is not None:
            probes.take(PROBES_PER_ROUND)
            paused += time.perf_counter() - now
    if trace:
        tracer.write_spans(os.path.join(WORK, "spans-" + os.path.basename(
            work).rsplit("-p", 1)[0] + ".csv"))
    return rounds, attempted, failed, wrong, reasons


def main(argv=None):
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    pin_threads()
    use_source_tree()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        probes = (None if args.trace
                  else SetupProbes(args.workload, args.seed, work))
        variants = workloads.build(args.workload, args.seed,
                                   os.path.join(work, "inputs"))
        layer_names = ([n for n in units if n != "trace.overhead_s"]
                       if args.trace else None)
        rounds, attempted, failed, wrong, reasons = measure(
            variants, args.seconds, layer_names, work, probes)
        setup_s = None if args.trace else probes.median()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, why in reasons.items():
        print(f"FAILED {name}: {why}")
    plain = rounds[False]
    if args.trace:
        traced = rounds[True]
        values = {name: statistics.mean(r["layers"][name] for r in traced)
                  for name in layer_names}
        values["trace.overhead_s"] = (
            statistics.mean(r["run_s"] for r in traced)
            - statistics.mean(r["run_s"] for r in plain))
        selfs = {k[:-len(".self_s")]: v for k, v in values.items()
                 if k.endswith(".self_s") and "repeat" not in k}
        print(f"dominant layer (self time): {max(selfs, key=selfs.get)}")
        print(f"rounds: 1 warm-up, {len(plain)} untraced, "
              f"{len(traced)} traced")
    else:
        # Means over rounds: on a shared host they vary less from run to
        # run than medians, trimmed means or each operation's fastest
        # repeat (README.md, Steadiness).  A pipeline's metric is named
        # after it: verify_s sums the "verify" operations of a round.
        values = {}
        for name in units:
            if name == "setup_s":
                values[name] = setup_s
            elif name == "peak_rss_mb":
                values[name] = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0)
            elif name == "run_s":
                values[name] = statistics.mean(r["run_s"] for r in plain)
            else:
                values[name] = statistics.mean(
                    r["pipelines"][name[:-len("_s")]] for r in plain)
        print(f"rounds: 1 warm-up and {len(plain)} timed, "
              f"{len(variants[0])} operations each")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, wrong output {wrong}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
