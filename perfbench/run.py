"""The qheis benchmark.  From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a single-client closed loop (one task at a time, the
next one starting when the previous one and its check are done), checks
every output against a reference the timed call did not produce, and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, with times in
reference seconds (see speed.py; the raw wall times are in the record).
With ``--trace 1`` every task runs twice, once under the outside-in layer
trace (see tracing.py) and once without, and the metrics are the per-layer
ones plus the ratio of traced to untraced time over the same tasks.  A run
record (seed, machine, versions) is printed on the line before the result
and written, with the trace spans, under ``perfbench/results/``.

The program is imported from ``src/`` of the checkout; a directory without
it is refused with exit code 2 before anything is measured.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One client runs one task at a time; a second BLAS thread only competes with
# it for the cores of a shared host and makes LAPACK times erratic, so this
# process and its children run BLAS on one thread.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import SpeedProbe
from taskdeck import WrongOutput, decks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("exact-identities", "random-products", "spectral-lab", "cli-session")
#: the 90th percentile needs at least ten samples beyond it; a run that has
#: fewer at --seconds goes on, deck by deck, until it has them
MIN_SAMPLES = 100
#: no deck starts that would end after this many measured seconds (so that a
#: run ends within three minutes); a run stopped here without MIN_SAMPLES is
#: refused
MAX_MEASURE_S = 140.0
WARMUP_S = 1.0
SETUP_REPEATS = 5
SETUP_IMPORT = "import qheis, qheis.cli"
#: what qheis builds on, imported by the reference start-up
SETUP_REFERENCE = "import fractions, numpy"
#: the nominal time of the reference start-up (about its median on the
#: 2-vCPU Xeon the benchmark was tuned on); setup_s and the tasks of
#: cli-session are scaled to it
SETUP_REFERENCE_S = 0.15
#: in cli-session a reference start-up runs before a task when this long
#: has passed since the last one
CHILD_PROBE_EVERY_S = 2.0

END_TO_END = [
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]

#: (name, unit, kind, key): per traced task unless the kind says otherwise
PER_LAYER = [
    ("ratfun.ops", "count/task", "entries", "ratfun"),
    ("ratfun.self_s", "s/task", "self", "ratfun"),
    ("ratfun.gcd_calls", "count/task", "counter", "ratfun.gcd_calls"),
    ("ratfun.gcd_s", "s/task", "timer", "ratfun.gcd_s"),
    ("ratfun.gcd_useful_ratio", "ratio", "useful", None),
    ("ratfun.max_degree", "degree", "peak", "ratfun.max_degree"),
    ("ratfun.evaluate_calls", "count/task", "counter", "ratfun.evaluate_calls"),
    ("lie.apply_symbolic_calls", "count/task", "counter", "lie.apply_symbolic_calls"),
    ("lie.self_s", "s/task", "self", "lie"),
    ("spectral.matrix_s", "s/task", "timer", "spectral.matrix_s"),
    ("spectral.columns", "count/task", "counter", "spectral.columns"),
    ("spectral.linalg_s", "s/task", "timer", "spectral.linalg_s"),
    ("rewrite.calls", "count/task", "counter", "rewrite.calls"),
    ("rewrite.words", "count/task", "counter", "rewrite.words"),
    ("rewrite.self_s", "s/task", "self", "rewrite"),
    ("algebra.products", "count/task", "counter", "algebra.products"),
    ("algebra.terms_out", "count/task", "counter", "algebra.terms_out"),
    ("algebra.self_s", "s/task", "self", "algebra"),
    ("expr.parse_s", "s/task", "timer", "expr.parse_s"),
    ("expr.render_s", "s/task", "timer", "expr.render_s"),
    ("expr.self_s", "s/task", "self", "expr"),
    ("cli.import_s", "s/task", "timer", "cli.import_s"),
    ("cli.main_s", "s/task", "timer", "cli.main_s"),
    ("cli.process_s", "s/task", "process", None),
    ("trace.overhead_ratio", "ratio", "overhead", None),
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def time_child(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    # captured streams let the wait end at the child's exit; without them
    # a wait with a timeout polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120, capture_output=True)
    return time.perf_counter() - t0


def measure_setup(env: dict) -> tuple:
    """Time of a fresh interpreter importing every layer, in reference
    seconds and raw: the median over SETUP_REPEATS of its ratio to a fresh
    interpreter importing only what qheis builds on, times
    SETUP_REFERENCE_S.  The in-process speed probe does not follow the
    speed of process start-up; this reference start-up, run next to each
    measured one, does.  One untimed import first, which also checks that
    the checkout's own ``src/qheis`` is the one imported."""
    probe_run = subprocess.run(
        [sys.executable, "-c", SETUP_IMPORT + "; print(qheis.__file__)"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if probe_run.returncode != 0:
        fail(f"importing qheis failed:\n{probe_run.stderr}")
    if not os.path.abspath(probe_run.stdout.strip()).startswith(SRC + os.sep):
        fail(f"a qheis outside this checkout was imported: {probe_run.stdout.strip()}")
    time_child(SETUP_REFERENCE, env)
    raw, ratios = [], []
    for _ in range(SETUP_REPEATS):
        reference = time_child(SETUP_REFERENCE, env)
        raw.append(time_child(SETUP_IMPORT, env))
        ratios.append(raw[-1] / reference)
    return statistics.median(ratios) * SETUP_REFERENCE_S, statistics.median(raw)


def pin_to_one_cpu() -> int:
    """Bind this process, and so every child it starts, to the lowest CPU
    it may run on.  On a shared host the CPUs' speeds drift apart; the speed
    probe then runs on the CPU that runs the tasks and the child processes,
    or it would not track their speed.  Only this process's own affinity
    changes, no machine setting."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def make_workload(name: str, env: dict):
    if name == "exact-identities":
        import identities

        return identities.Workload()
    if name == "random-products":
        import products

        return products.Workload()
    if name == "spectral-lab":
        import spectral_lab

        return spectral_lab.Workload()
    import cli_session

    return cli_session.Workload(ROOT, env)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.in_child = hasattr(workload, "trace_file")
        self.decks = decks(workload.deck, random.Random(seed))
        self.warmup = itertools.chain.from_iterable(decks(workload.deck, random.Random(f"warm-up {seed}")))
        self.tracer = None
        if trace:
            import tracing

            self.tracer = tracing.Tracer()
        if self.in_child:
            # a child process follows the speed of process start-up, which
            # the in-process unit does not
            self.probe = SpeedProbe(
                lambda: time_child(SETUP_REFERENCE, workload.env), SETUP_REFERENCE_S, CHILD_PROBE_EVERY_S
            )
        else:
            self.probe = SpeedProbe()
        self.attempted = 0
        self.failures = []
        self.plain = []  # (start, wall seconds, passed) of untraced executions
        self.traced = []  # (start, wall seconds) of traced executions

    def execute(self, task, index: int, traced: bool):
        """Run and check one task; returns its start, wall time, and
        whether it passed."""
        tracer = self.tracer if traced else None
        child_trace = None
        if tracer is not None:
            tracer.task = index
            if self.in_child:
                child_trace = os.path.join(RESULTS, f"child-trace-{os.getpid()}.json")
                self.workload.trace_file = child_trace
            else:
                tracer.tag = "task"
                tracer.install()
        try:
            error = None
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception:  # an unexpected exception is a failed task
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.tag = "oracle"
            if error is None:
                try:
                    task.check(out)
                except WrongOutput as e:
                    error = str(e)
                except Exception:  # a check that cannot run on the output fails it
                    error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                if self.in_child:
                    self.workload.trace_file = None
                    if os.path.exists(child_trace):
                        with open(child_trace) as f:
                            doc = json.load(f)
                        os.remove(child_trace)
                        tracer.merge(doc["snapshot"], index, doc["spans"])
                        tracer.spans_dropped += doc["spans_dropped"]
                else:
                    tracer.uninstall()
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{task.label()}: {error}")
        return t0, dt, error is None

    def measure(self) -> float:
        end = time.perf_counter() + WARMUP_S
        while True:
            self.execute(next(self.warmup), -1, False)
            if time.perf_counter() >= end:
                break
        start = time.perf_counter()
        index = 0
        longest_deck = 0.0
        while True:
            # the run ends between decks only, so that it holds whole decks
            elapsed = time.perf_counter() - start
            # percentiles come from untraced executions only
            enough = self.trace or len(self.plain) >= MIN_SAMPLES
            if elapsed >= self.seconds and enough:
                break
            if elapsed + longest_deck > MAX_MEASURE_S:
                fail(f"only {len(self.plain)} samples after {elapsed:.0f} s; "
                     f"the 90th percentile needs {MIN_SAMPLES}")
            deck_start = time.perf_counter()
            for task in next(self.decks):
                # a traced run executes every task twice, traced and
                # untraced, in alternating order, so that warm caches favour
                # neither side
                modes = (False,) if not self.trace else ((False, True) if index % 2 == 0 else (True, False))
                for traced in modes:
                    self.probe.maybe_sample()
                    t0, dt, ok = self.execute(task, index, traced)
                    if traced:
                        self.traced.append((t0, dt))
                    else:
                        self.plain.append((t0, dt, ok))
                index += 1
            longest_deck = max(longest_deck, time.perf_counter() - deck_start)
        self.probe.sample()
        return time.perf_counter() - start

    def scaled(self, executions) -> list:
        """Wall times in reference seconds (see speed.py)."""
        return [e[1] * self.probe.scale(e[0]) for e in executions]

    def task_times(self, times: list) -> dict:
        """Percentiles and throughput of the untraced executions, given
        their times in one time base."""
        return {
            "task_p50_s": statistics.median(times),
            "task_p90_s": statistics.quantiles(times, n=10)[8],
            "tasks_per_s": sum(e[2] for e in self.plain) / sum(times),
        }

    def end_to_end(self, setup_s: float) -> dict:
        who = resource.RUSAGE_CHILDREN if self.in_child else resource.RUSAGE_SELF
        return {
            **self.task_times(self.scaled(self.plain)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "success_rate": (self.attempted - len(self.failures)) / self.attempted,
        }

    def per_layer(self) -> dict:
        t = self.tracer
        n = len(self.traced)
        # layer times are scaled by the run's median speed
        scale = statistics.median(self.probe.scale(e[0]) for e in self.traced)

        def get(table, key):
            return table.get(("task", key), 0)

        out = {}
        for name, _unit, kind, key in PER_LAYER:
            if kind == "entries":
                value = get(t.entries, key) / n
            elif kind == "self":
                value = get(t.self_s, key) * scale / n
            elif kind == "counter":
                value = get(t.counters, key) / n
            elif kind == "timer":
                value = get(t.timers, key) * scale / n
            elif kind == "peak":
                value = get(t.peaks, key)
            elif kind == "useful":
                calls = get(t.counters, "ratfun.gcd_calls")
                value = get(t.counters, "ratfun.gcd_useful") / calls if calls else 0.0
            elif kind == "process":
                value = sum(self.scaled(self.traced)) / n if self.in_child else 0.0
            else:
                value = sum(e[1] for e in self.traced) / sum(e[1] for e in self.plain)
            out[name] = value
        return out


def run_record(args, measured_s: float, run: Run, cpu: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace,
        "loop": "closed, one client, one task at a time",
        "samples_untraced": len(run.plain),
        "samples_traced": len(run.traced),
        "time_scale": "reference seconds: task times are wall time times "
        f"{run.probe.reference_s} s over the nearest probe units (speed.py; in cli-session "
        f"the unit is a reference start-up, {SETUP_REFERENCE!r}); setup_s is "
        f"{SETUP_REFERENCE_S} s times the median ratio to that reference start-up",
        "probe_unit_median_s": run.probe.median_unit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": f"this process and its children run on CPU {cpu} only (sched_setaffinity)",
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine_settings": "unchanged: no cache drop, no CPU pinning by cgroup, no frequency or "
        "system scheduler setting; only the benchmark's own CPU affinity is set (cpu_affinity)",
        "failures": run.failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qheis", "__init__.py")):
        fail(f"no qheis sources at {SRC}: run from the root of a qheis checkout")
    cpu = pin_to_one_cpu()
    env = child_env()
    setup_s, setup_raw_s = measure_setup(env)

    sys.path.insert(0, SRC)
    import qheis

    if not os.path.abspath(qheis.__file__).startswith(SRC + os.sep):
        fail(f"a qheis outside this checkout was imported: {qheis.__file__}")
    os.makedirs(RESULTS, exist_ok=True)

    run = Run(make_workload(args.workload, env), args.seed, args.seconds, bool(args.trace))
    measured_s = run.measure()
    if args.trace:
        values = run.per_layer()
        units = {name: unit for name, unit, _kind, _key in PER_LAYER}
    else:
        values = run.end_to_end(setup_s)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = run_record(args, measured_s, run, cpu)
    if not args.trace:
        record["raw_wall"] = {**run.task_times([e[1] for e in run.plain]), "setup_s": setup_raw_s}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }

    out = {"record": record, "result": result}
    if run.tracer is not None:
        out["trace"] = run.tracer.snapshot()
        out["spans_dropped"] = run.tracer.spans_dropped
        out["spans"] = run.tracer.spans
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(out, f)
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
