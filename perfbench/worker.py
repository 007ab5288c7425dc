"""One benchmark process: set up, run a workload's CLI calls, check them.

Started by run.py in a fresh interpreter with spinweil on the path and one
JSON argument: {"workload", "seed", "seconds", "trace", "smoke",
"setup_only"}.  Prints one JSON result line.  Set-up is the spinweil import
plus the one-time tables the workload's verbs build, called directly; it is
timed from the start of the import, so interpreter start-up is left
out.  Only the cli.main call of each item is timed, and the run ends at the
first unit boundary after --seconds of timed calls.  Each unit's outputs
are checked after the unit, outside the timed calls.  Spans are recorded
only during set-up tables and timed calls.  All times are CPU times of
this process (see CLOCK).

The machine's speed swings in phases, so each time is also scaled to a
nominal machine speed (see scale and Gauge).  A fixed Fraction loop, the
reference pass, runs before set-up, between timed calls (when
REFERENCE_GAP_S has passed since the last pass), after the last call and,
in untraced runs, every REFERENCE_SAMPLE_S seconds from a timer.  Set-up
is scaled by the passes during it and next to it.  Every timed call is
scaled by the mean of all passes from just before the first call to just
after the last: scaling each call by the few passes near it would add
their own noise to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

SETUP_TABLES = {
    "cayley": ("reps.phi_matrix", "multivector.star_matrix",
               "clifford.spin_v_xyz_table"),
    "verify": (),
}

#: Every time is this process's CPU time.  The timed calls are
#: single-threaded, CPU-bound and do no I/O (output is captured in memory),
#: so on an idle machine CPU time equals wall time.  Wall time also counts
#: the time the host takes the CPU away, which on a shared machine swings
#: by 2x and is not a cost of the program.
CLOCK = time.process_time

REFERENCE_VALUES = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(120)]

#: the reference pass time that the scaled times assume (see scale)
REFERENCE_NOMINAL_S = 0.050
#: a reference pass runs before a timed call when this much CPU time has
#: passed since the last one
REFERENCE_GAP_S = 0.5
#: and, in untraced runs, every this much wall time from a SIGALRM timer
#: (with a CPU-time timer armed, Linux guests were seen to round CPU-time
#: readings to the 4 ms tick)
REFERENCE_SAMPLE_S = 1.0


def reference_s():
    """CPU time of one pass of a fixed pure-Python Fraction loop.

    No spinweil change can move it, so it gauges how fast the machine runs.
    """
    start = CLOCK()
    acc = Fraction(0)
    for x in REFERENCE_VALUES:
        for y in REFERENCE_VALUES:
            acc += x * y
    return CLOCK() - start


def scale(cpu_s, ref_s):
    """cpu_s as it would read on a machine whose reference pass takes
    REFERENCE_NOMINAL_S, given that the pass took ref_s around it."""
    return cpu_s * REFERENCE_NOMINAL_S / ref_s


class Gauge:
    """Reference passes, and the scaling of timed stretches by them.

    measure() makes a pass.  With sample_s, a timer also makes one every
    sample_s seconds, so that a long call is gauged while it runs.  The
    CPU time of the passes made during a stretch is left out of the
    stretch's time.
    """

    def __init__(self, sample_s=0.0):
        self.passes = []
        self.spent = 0.0     # CPU time inside passes
        self.last = None     # CPU time at the end of the last pass
        self.busy = False
        if sample_s:
            signal.signal(signal.SIGALRM,
                          lambda *_: self.busy or self.measure())
            signal.setitimer(signal.ITIMER_REAL, sample_s, sample_s)

    def measure(self):
        self.busy = True
        start = CLOCK()
        self.passes.append(reference_s())
        self.last = CLOCK()
        self.spent += self.last - start
        self.busy = False

    def due(self):
        return self.last is None or CLOCK() - self.last >= REFERENCE_GAP_S

    def stop(self):
        """Stop the timer and make the pass after the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.measure()

    def start(self):
        return len(self.passes), self.spent, CLOCK()

    def end(self, mark):
        """The stretch since start(): (CPU time, first and end index of
        the passes made during it)."""
        first, spent, start = mark
        return CLOCK() - start - (self.spent - spent), first, len(self.passes)

    def scaled(self, stretch):
        """The stretch's time scaled by the mean of the passes made during
        it and of the pass on each side of it."""
        cpu_s, first, end = stretch
        return scale(cpu_s, statistics.mean(
            self.passes[max(first - 1, 0):end + 1]))


@contextlib.contextmanager
def _traced(tracer):
    """Record spans only inside the block (not in input generation or
    output checks)."""
    if tracer:
        tracer.enabled = True
    try:
        yield
    finally:
        if tracer:
            tracer.enabled = False


def _call_cli(cli, argv, tracer, gauge):
    out, err = io.StringIO(), io.StringIO()
    with _traced(tracer):
        mark = gauge.start()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # one failing call must not end the run
            rc = traceback.format_exc(limit=3).strip()
        stretch = gauge.end(mark)
    return rc, out.getvalue(), stretch


def main():
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    # spans would count the passes of the timer, so traced runs have none
    gauge = Gauge(0.0 if spec["trace"] else REFERENCE_SAMPLE_S)
    gauge.measure()
    mark = gauge.start()
    import spinweil  # noqa: F401  (the import is part of set-up)
    from spinweil import cli
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(clock=CLOCK)
        spans.install(tracer)
        tracer.enabled = False
    with _traced(tracer):
        tables_start = CLOCK()
        for dotted in SETUP_TABLES[workload]:
            module, name = dotted.split(".")
            getattr(sys.modules[f"spinweil.{module}"], name)()
        setup_traced_s = CLOCK() - tables_start
    setup_stretch = gauge.end(mark)
    if spec["setup_only"]:
        gauge.stop()
        print(json.dumps({"setup_s": gauge.scaled(setup_stretch),
                          "setup_cpu_s": setup_stretch[0]}))
        return
    gauge.measure()
    first_pass = len(gauge.passes) - 1
    import workloads

    timed = []   # (kind, stretch)
    heights = {}
    attempted = failed = 0
    consistent = True
    failures = []
    busy = 0.0
    for unit in workloads.units(workload, spec["seed"], spec["smoke"]):
        done = []
        for item in unit:
            if gauge.due():
                gauge.measure()
            done.append((item,) + _call_cli(cli, item.argv, tracer, gauge))
        for item, rc, out, stretch in done:
            timed.append((item.kind, stretch))
            busy += stretch[0]
            outcome = workloads.check(item, rc, out)
            attempted += outcome.attempted
            failed += outcome.failed
            consistent &= outcome.consistent
            if outcome.reason:
                failures.append(outcome.reason)
            if item.z is not None:
                h = max(abs(c) for c in item.z)
                lo, hi = heights.get(item.kind, (h, h))
                heights[item.kind] = (min(lo, h), max(hi, h))
        if spec["smoke"] or busy >= spec["seconds"]:
            break
    gauge.stop()
    work_ref_s = statistics.mean(gauge.passes[first_pass:])
    latencies, cpu_latencies = {}, {}
    for kind, stretch in timed:
        cpu_latencies.setdefault(kind, []).append(stretch[0])
        latencies.setdefault(kind, []).append(scale(stretch[0], work_ref_s))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": gauge.scaled(setup_stretch),
        "setup_cpu_s": setup_stretch[0],
        "reference_s": gauge.passes,
        "latencies": latencies,
        "cpu_latencies": cpu_latencies,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "consistent": consistent,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "heights": {k: [str(lo), str(hi)] for k, (lo, hi) in heights.items()},
    }
    if tracer:
        import spans
        window = setup_traced_s + result["busy_s"]
        result["per_layer"] = spans.layer_metrics(tracer)
        result["traced_window_s"] = window
        result["self_coverage"] = sum(tracer.self_s.values()) / window
    print(json.dumps(result))


if __name__ == "__main__":
    main()
