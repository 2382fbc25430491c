#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the kreinosc lab.

    python3 bench/run.py --workload dark-pruned --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36

One closed-loop client (a single process and thread) sends a workload's
request list (see workloads.py) through ``kreinosc.cli.main(argv)``
in-process, each request after the previous one returns, pass after pass
until ``--seconds`` would be exceeded (at least one pass).  The lab is
imported afresh before every pass.  Every output is checked: against the
committed golden stdout digest when one exists for the argv, else against
the workload's invariants; a request marked with an error code must exit 1
with that code.  Times are scaled to a reference host speed (see
``kernel_seconds``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes (tracer.py), and reports the per-layer
metrics per traced pass together with the tracing overhead.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The program is imported from ``src/`` of the checkout this file
sits in; without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer, children_of  # noqa: E402

# Fresh imports timed before the passes and again after them, so that
# set-up is sampled at both ends of the run.
SETUP_SAMPLES = 5
SETUP_CHILD = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import kreinosc.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - t)\n"
    "print(c.__file__)\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_names() -> dict:
    names = {}
    for base in ("scalars.eps_mul", "scalars.eps_add", "scalars.graded_mul", "scalars.graded_add",
                 "scalars.try_div", "scalars.gamma", "scalars.sign",
                 "algebra2d.apply", "algebra2d.compose", "algebra2d.inner",
                 "algebra2d.renorm_inner", "algebra2d.eigencheck", "algebra2d.proportional",
                 "algebra1d.apply", "algebra1d.compose", "algebra1d.inner"):
        names[base + ".calls"] = "count"
        names[base + ".self_s"] = "s"
    for name in ("scalars.eps_mul.const_share", "algebra2d.apply.zero_share",
                 "algebra2d.proportional.hit_ratio", "sectors.dark.pruned_share"):
        names[name] = "share"
    for base in ("algebra1d.ladder_state", "radial.bridge_audit", "radial.reduce",
                 "sectors.generate", "sectors.dark", "sectors.gram", "sectors.audit",
                 "sectors.export", "sectors.load", "opexpr.parse", "opexpr.build",
                 "jsonio.encode", "jsonio.decode"):
        names[base + ".busy_s"] = "s"
    for base in ("sectors.generate", "sectors.dark", "sectors.gram", "cli.request"):
        names[base + ".self_s"] = "s"
    for name in ("sectors.generate.calls", "sectors.generate.nodes", "sectors.dark.images_built",
                 "sectors.dark.pairs_evaluated", "cli.errors"):
        names[name] = "count"
    names["sectors.export.bytes"] = "bytes"
    names["trace.overhead_s"] = "s"
    return names


PER_LAYER = dict(sorted(_per_layer_names().items()))


# -- host speed ----------------------------------------------------------------
#
# On a shared host the CPU's speed drifts by tens of percent within a
# minute, and process CPU time drifts with it.  A fixed kernel of the lab's
# kind of work, timed before, during and after every request, tracks the
# drift: a request that took t seconds while the kernel took k seconds
# around it (the median of those samples) is reported as
# t * REF_KERNEL_S / k, i.e. in seconds at the host speed at which the
# kernel takes REF_KERNEL_S.  A change to the program moves these times; a
# change of host speed moves the kernel with them and cancels.  The kernel
# uses no code of the lab.

KERNEL_STEPS = 250
REF_KERNEL_S = 0.0025
KERNELS_BETWEEN = 2     # kernel samples between two requests
SAMPLE_EVERY_S = 0.1    # kernel sampling interval inside a request


def kernel_seconds() -> float:
    """Time of a fixed pure-Python kernel: Fraction arithmetic and dict updates."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, KERNEL_STEPS):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class KernelSampler:
    """Times the kernel every SAMPLE_EVERY_S while a request runs.

    An interval timer (SIGALRM) interrupts the request between two
    bytecodes and the handler times the kernel, so the samples follow the
    host speed inside a long request.  ``call`` takes the kernel's time off
    the request's latency.
    """

    def __init__(self):
        self.samples = None  # (end, seconds) of the running request's kernels

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if self.samples is not None:
            seconds = kernel_seconds()
            self.samples.append((time.perf_counter(), seconds))


class Outcome:
    __slots__ = ("latency", "rc", "out", "err", "exc", "kernels", "scale")

    def __init__(self, latency, rc, out, err, exc, kernels=()):
        self.latency, self.rc, self.out, self.err, self.exc = latency, rc, out, err, exc
        self.kernels = list(kernels)  # kernel times sampled inside the request
        self.scale = 1.0  # REF_KERNEL_S / kernel time around the request

    @property
    def ref_latency(self) -> float:
        """Latency in seconds at the reference host speed."""
        return self.latency * self.scale

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode("utf-8")).hexdigest()


def argv_key(argv) -> str:
    return json.dumps(list(argv))


def import_lab():
    """Import ``kreinosc.cli`` afresh from this checkout's src/, or exit 2.

    Lab modules imported before are dropped first, so that no process-level
    cache of the lab outlives a pass.
    """
    if not (SRC / "kreinosc" / "cli.py").is_file():
        sys.stderr.write("bench: %s/kreinosc is missing; run from a full checkout\n" % SRC)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "kreinosc" or n.startswith("kreinosc.")]:
        del sys.modules[name]
    import kreinosc.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("bench: imported %s, not the checkout's src/\n" % cli.__file__)
        sys.exit(2)
    return cli


def measure_setup(samples: int) -> list:
    """Seconds to import kreinosc.cli and build its parser, in fresh interpreters.

    Each sample is (measured, at the reference host speed); the kernel is
    timed just before and just after each child.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(samples + 1):
        before = kernel_seconds()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=60)
        kernel = (before + kernel_seconds()) / 2
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not Path(lines[1]).resolve().is_relative_to(SRC):
            sys.stderr.write("bench: set-up child failed: %s\n" % proc.stderr.strip()[-400:])
            sys.exit(2)
        if i:  # the first import writes the bytecode cache
            times.append((float(lines[0]), float(lines[0]) * REF_KERNEL_S / kernel))
    return times


def call(cli, argv, sampler=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    if sampler is not None:
        sampler.samples = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # an uncoded failure of the program under test
        rc, exc = None, "%s: %s" % (type(error).__name__, error)
    end = time.perf_counter()
    kernels = []
    if sampler is not None:
        kernels = [seconds for t, seconds in sampler.samples if t <= end]
        sampler.samples = None
    return Outcome(end - start - sum(kernels), rc, out.getvalue(), err.getvalue(), exc, kernels)


def run_pass(cli, reqs, tracer=None, tag=""):
    """Send every request once, timing the kernel around each request.

    A request's scale is REF_KERNEL_S over the median of the kernel samples
    just before it, inside it and just after it.  Traced passes sample no
    kernel inside requests, so that spans hold only the lab's time.
    """
    gc.collect()  # every pass starts from the same heap state
    between = [[kernel_seconds() for _ in range(KERNELS_BETWEEN)]]
    outcomes = []
    with KernelSampler() if tracer is None else contextlib.nullcontext() as sampler:
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = "%s%d" % (tag, i)
            outcomes.append(call(cli, req.argv, sampler))
            between.append([kernel_seconds() for _ in range(KERNELS_BETWEEN)])
    for o, before, after in zip(outcomes, between, between[1:]):
        o.scale = REF_KERNEL_S / statistics.median(before + o.kernels + after)
    return outcomes


# -- output checks -------------------------------------------------------------


def _check_invariants(req, outcome):
    out = outcome.out
    if req.output == "dot":
        if not (out.startswith("digraph sector {\n") and out.endswith("}\n")):
            return "not a dot sector export"
        return None
    if req.output == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if len(rows) < 2 or any(row[0] not in ("node", "edge") for row in rows[1:]):
            return "not a csv sector export"
        return None
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if json.dumps(doc, sort_keys=True, indent=2) + "\n" != out:
        return "stdout does not round-trip through JSON"
    if req.pairs is not None:
        degree = int(req.argv[req.argv.index("--degree") + 1])
        if doc["monomials"] != sum(4 ** k for k in range(degree + 1)):
            return "wrong monomial count %s" % doc["monomials"]
        if (doc["pairs_checked"] == 0) != (req.pairs == "zero"):
            return "pairs_checked %s is not %s" % (doc["pairs_checked"], req.pairs)
    if "--out" in req.argv:
        path = req.argv[req.argv.index("--out") + 1]
        if doc.get("written") != path or os.path.getsize(path) != doc.get("bytes"):
            return "export --out wrote %s, not %s" % (doc, path)
    return None


def _error_code(err: str):
    try:
        return json.loads(err).get("error")
    except (ValueError, AttributeError):
        return None


def check(req, outcome, golden: dict):
    """None when the outcome is right, else the reason it is wrong."""
    if outcome.exc is not None:
        return "uncoded exception %s" % outcome.exc
    if req.error is not None:
        code = _error_code(outcome.err)
        if outcome.rc != 1 or code != req.error or outcome.out:
            return "expected exit 1 with error %s, got exit %s with %s" % (req.error, outcome.rc, code)
        return None
    if outcome.rc != 0:
        return "exit code %s: %s" % (outcome.rc, outcome.err.strip()[:300])
    if outcome.err:
        return "unexpected stderr: %s" % outcome.err.strip()[:300]
    want = golden.get(argv_key(req.argv))
    if want is not None:
        return None if outcome.digest == want else "stdout digest differs from golden"
    return _check_invariants(req, outcome)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# -- statistics ----------------------------------------------------------------


def tail_percentile(n_pass: int) -> float:
    """Highest percentile with at least ten requests of one pass beyond it."""
    return 100.0 * max(n_pass - 10, 1) / n_pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, passes: int, errors: int, overhead: float) -> dict:
    calls, busy, own, counts = tracer.calls, tracer.busy, tracer.self_s, tracer.counts
    under_dark = children_of(tracer, "sectors.dark")

    def share(num, den):
        return num / den if den else 0.0

    special = {
        "scalars.eps_mul.const_share": share(counts["scalars.eps_mul.const"], calls["scalars.eps_mul"]),
        "algebra2d.apply.zero_share": share(counts["algebra2d.apply.zero"], calls["algebra2d.apply"]),
        "algebra2d.proportional.hit_ratio": share(counts["algebra2d.proportional.hit"],
                                                  calls["algebra2d.proportional"]),
        "sectors.dark.pruned_share": share(counts["sectors.dark.grid"] - under_dark["algebra2d.renorm_inner"],
                                           counts["sectors.dark.grid"]),
        "sectors.generate.nodes": counts["sectors.generate.nodes"] / passes,
        "sectors.dark.images_built": under_dark["algebra2d.apply"] / passes,
        "sectors.dark.pairs_evaluated": under_dark["algebra2d.renorm_inner"] / passes,
        "sectors.export.bytes": counts["sectors.export.bytes"] / passes,
        "cli.errors": errors / passes,
        "trace.overhead_s": overhead,
    }
    source = {"calls": calls, "busy_s": busy, "self_s": own}
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in special:
            value = special[name]
        else:
            base, kind = name.rsplit(".", 1)
            value = source[kind][base] / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -- runs ----------------------------------------------------------------------


def run_workload(args) -> int:
    os.chdir(ROOT)
    workloads.write_inputs(args.workload, args.seed)
    golden = load_golden()
    reqs = workloads.generate(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    import_lab()  # exits 2, before any result, when the checkout has no lab

    failures = []
    attempted = 0

    def checked(outcomes, tag):
        nonlocal attempted
        attempted += len(outcomes)
        for i, (req, outcome) in enumerate(zip(reqs, outcomes)):
            why = check(req, outcome, golden)
            if why is not None:
                failures.append((tag, i, req.argv, why))

    start = time.perf_counter()
    # Latencies at the reference host speed by request position, one per
    # pass.  Each position reports its median over the passes, so one pass
    # caught in an odd phase of a shared host does not move the result.
    walls, raw_walls, by_position = [], [], [[] for _ in reqs]
    ref_digests = None
    while True:
        cli = import_lab()
        pass_start = time.perf_counter()
        outcomes = run_pass(cli, reqs)
        elapsed = time.perf_counter() - pass_start
        walls.append(sum(o.ref_latency for o in outcomes))
        raw_walls.append(sum(o.latency for o in outcomes))
        for times, o in zip(by_position, outcomes):
            times.append(o.ref_latency)
        checked(outcomes, "pass%d" % len(walls))
        ref_digests = [o.digest for o in outcomes]
        if args.trace or time.perf_counter() - start + elapsed > args.seconds:
            break
    del outcomes

    if args.trace:
        tracer = Tracer()
        traced_walls, traced = [], []
        while True:
            cli = import_lab()
            tracer.install()
            pass_start = time.perf_counter()
            try:
                outcomes = run_pass(cli, reqs, tracer, "t%d-" % len(traced_walls))
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - pass_start
            leftovers = tracer.leftovers()
            if leftovers:
                failures.append(("trace", -1, (), "wrappers left after uninstall: %s" % leftovers))
            traced_walls.append(sum(o.latency for o in outcomes))
            traced.append(outcomes)
            if time.perf_counter() - start + elapsed > args.seconds:
                break
        errors = 0
        for k, outcomes in enumerate(traced):
            checked(outcomes, "traced%d" % (k + 1))
            for i, (digest, outcome) in enumerate(zip(ref_digests, outcomes)):
                if outcome.digest != digest:
                    failures.append(("traced%d" % (k + 1), i, reqs[i].argv, "traced stdout differs"))
                errors += outcome.rc == 1
        overhead = statistics.median(traced_walls) - raw_walls[0]
        metrics = layer_metrics(tracer, len(traced_walls), errors, overhead)
        tracer.write(os.path.join(workloads.OUT_DIR, "spans-%s.jsonl" % args.workload))
        print("workload %s seed %d traced: %d untraced + %d traced passes of %d requests"
              % (args.workload, args.seed, len(walls), len(traced_walls), len(reqs)))
        print("  untraced pass %.3f s, traced pass (median) %.3f s, overhead %.3f s"
              % (raw_walls[0], statistics.median(traced_walls), overhead))
        by_code = {}
        for outcomes in traced:
            for o in outcomes:
                if o.rc == 1:
                    code = _error_code(o.err) or "?"
                    by_code[code] = by_code.get(code, 0) + 1
        print("  cli.errors by code: %s" % json.dumps(by_code, sort_keys=True))
        for name, m in metrics.items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        setup += measure_setup(SETUP_SAMPLES)
        n_pass = len(reqs)
        p_tail = tail_percentile(n_pass)
        latency = [statistics.median(times) for times in by_position]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_s": statistics.median(walls),
            "req_p50_ms": 1000.0 * statistics.median(latency),
            "req_tail_ms": 1000.0 * percentile(latency, p_tail),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        repeats = workloads.repeat_count(reqs)
        expected_errors = sum(r.error is not None for r in reqs)
        print("workload %s seed %d: %d passes of %d requests (%d repeats, share %.3f; "
              "%d expected to fail with a coded error), closed loop, 1 client"
              % (args.workload, args.seed, len(walls), n_pass, repeats, repeats / n_pass,
                 expected_errors))
        print("  times in seconds at the reference host speed; as measured: setup_s %.4f s, "
              "wall_s %.3f s" % (statistics.median(raw for raw, _ in setup),
                                 statistics.median(raw_walls)))
        notes = {
            "setup_s": "median of %d fresh imports" % len(setup),
            "wall_s": "median of %d passes" % len(walls),
            "req_p50_ms": "N=%d requests, each the median of %d passes" % (n_pass, len(walls)),
            "req_tail_ms": "p%.1f, N=%d requests, each the median of %d passes"
                           % (p_tail, n_pass, len(walls)),
            "peak_rss_mb": "1 process",
        }
        for name, m in metrics.items():
            print("  %-12s %12.4f %-3s (%s)" % (name, m["value"], m["unit"], notes[name]))
        print("  %-12s %12.4f     (%d of %d)" % ("failed_frac", len(failures) / attempted,
                                                  len(failures), attempted))

    for tag, i, argv, why in failures[:20]:
        sys.stderr.write("bench: FAILED %s request %d %s: %s\n" % (tag, i, " ".join(argv), why))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, as the per-workload command runs."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def write_golden() -> int:
    """Record the stdout digests of every request of the default seed."""
    os.chdir(ROOT)
    cli = import_lab()
    digests = {}
    for name in workloads.WORKLOADS:
        workloads.write_inputs(name, workloads.DEFAULT_SEED)
        reqs = workloads.generate(name, workloads.DEFAULT_SEED)
        outcomes = run_pass(cli, reqs)
        for req, outcome in zip(reqs, outcomes):
            why = check(req, outcome, {})
            if why is not None:
                sys.stderr.write("bench: %s %s: %s\n" % (name, " ".join(req.argv), why))
                return 1
            digests[argv_key(req.argv)] = outcome.digest
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": dict(sorted(digests.items()))},
                  fh, indent=1)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), GOLDEN))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden digests for the default seed and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
