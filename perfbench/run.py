"""Benchmark of ibx's iteration primitive, end to end and per module.

    python3 perfbench/run.py --workload statespace --seed 1 --seconds 16 --trace 0

Workloads: statespace, orbit, dynamics (in-process) and cli (one child
process per command).  The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  The line before it describes the
machine and the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import gcd

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# Single-threaded numpy, in this process and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("statespace", "orbit", "dynamics", "cli")
# Seconds of --seconds spent per timed round.  They fix how many rounds a
# run makes, so every run of a workload does equal work.  They are the
# measured round times, except orbit's: its rounds take about 1.5 s but
# spread more, so it gets more of them.
NOMINAL_ROUND_S = {"statespace": 1.0, "orbit": 1.0, "dynamics": 0.4, "cli": 5.5}
SETUP_SAMPLES = 3

# Home workload of every span name prefix: a traced run takes a per-layer
# metric its own rounds never reach from one traced round of this workload.
HOME = [
    ("kernel.check_bijection_exhaustive", "statespace"),
    ("circuits.permutation_of", "statespace"),
    ("circuits.parity", "statespace"),
    ("circuits.exact_lift", "statespace"),
    ("circuits.verify_lift", "statespace"),
    ("reductions.inversion_by_iteration", "statespace"),
    ("plb.permutation_order", "statespace"),
    ("kernel.iterate_bijection", "orbit"),
    ("circuits.iterate_circuit", "orbit"),
    ("plb.", "orbit"),
    ("iet.", "orbit"),
    ("reductions.run_schedule", "dynamics"),
    ("graphs.", "dynamics"),
    ("ca.", "dynamics"),
    ("formats.", "cli"),
    ("cli.", "cli"),
]


def home_of(span_name: str) -> str:
    return next(w for prefix, w in HOME if span_name.startswith(prefix))


def counts_of(workload: str, seconds: int):
    """(warm-up rounds, timed rounds) for a run of this length."""
    timed = max(3, round(seconds / NOMINAL_ROUND_S[workload]))
    warm = 1 if workload == "cli" else max(2, timed // 10)
    return warm, timed


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bytecode_cache": not sys.dont_write_bytecode,
    }


# ---------------------------------------------------------------------------
# Set-up.


def setup(workload: str, seed: int, rounds: int, workdir: str):
    """Import ibx and generate the inputs.  Returns the workload state."""
    if workload == "cli":
        import cli_workload

        os.makedirs(workdir, exist_ok=True)
        return cli_workload.setup(workdir, seed)
    import workloads

    return workloads.WORKLOADS[workload][0](seed, rounds)


def setup_seconds(workload: str, seed: int, rounds: int):
    """Set-up time of fresh processes, process start to inputs ready, raw
    and scaled to the reference machine."""
    import calibrate

    clock = calibrate.Clock()
    for j in range(SETUP_SAMPLES):
        workdir = os.path.join(WORK, f"setup-{os.getpid()}-{j}")
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(rounds), "--workdir", workdir]

        def child():
            start = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            shutil.rmtree(workdir, ignore_errors=True)
            if done.returncode != 0:
                raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
            return float(done.stdout.strip().splitlines()[-1]) - start

        clock.measure(child)
    return clock.raws, clock.scaled()


# ---------------------------------------------------------------------------
# Tracing.


def install_wrappers(tracer) -> None:
    from ibx import ca, circuits, formats, graphs, iet, kernel, plb, reductions

    cells = lambda a, r: {"cells": a[0].cells.size}  # noqa: E731
    ring = lambda a, r: {"cells": a[1].ring}  # noqa: E731
    wraps = [
        (kernel, "check_bijection_exhaustive", lambda a, r: {"states": 1 << a[0].width}),
        (kernel, "iterate_bijection", lambda a, r: {"steps": a[1]}),
        (circuits, "permutation_of", lambda a, r: {"gate_states": len(a[0].gates) << a[0].width}),
        (circuits, "parity", lambda a, r: {"states": len(a[0])}),
        (circuits, "exact_lift", None),
        (circuits, "verify_lift", lambda a, r: {"states": 1 << a[1].inputs}),
        (circuits, "iterate_circuit", lambda a, r: {"steps": a[1]}),
        (reductions, "run_schedule", lambda a, r: {
            "back_steps" if a[0].g.label.startswith("inv(") else "steps": a[0].total_iterations}),
        (graphs, "second_hamiltonian", None),
        (graphs, "count_ham_cycles_through_edge", None),
        (ca, "margolus_step", cells),
        (ca, "margolus_step_back", cells),
        (ca, "margolus_step_helical", cells),
        (ca, "margolus_step_back_helical", cells),
        (plb, "validate_plb", lambda a, r: {"pieces": len(r.pieces)}),
        (plb, "circuit_to_plb", lambda a, r: {"pieces": len(r[0].pieces)}),
        (plb, "apply_plb_inverse", lambda a, r: {"applies": 1}),
        (plb, "permutation_order", lambda a, r: {"states": a[0].domain}),
        (iet, "build_surface", None),
        (iet, "iet_orbit_solve", None),
        (iet, "three_gap_max_distinct", lambda a, r: {"points": min(a[2], a[0] // gcd(a[0], a[1]))}),
    ]
    for owner, attr, counter in wraps:
        tracer.wrap(owner, attr, f"{owner.__name__[4:]}.{attr}", counter)
    tracer.wrap(iet, "arc_of", lambda a: "iet.arc_of.hit" if a[1] in a[0]._arcs else "iet.arc_of",
                lambda a, r: {"states": r.length})
    tracer.wrap(ca.DimReduxAutomaton, "step", "ca.dim_redux.step", ring)
    tracer.wrap(ca.DimReduxAutomaton, "step_back", "ca.dim_redux.step_back", ring)
    tracer.wrap(ca.StrobeAutomaton, "step", "ca.strobe.step", ring)
    tracer.wrap(ca.StrobeAutomaton, "step_back", "ca.strobe.step_back", ring)
    for kind in ("circuit", "plb", "iet", "grid", "cubic"):
        tracer.wrap(formats, f"parse_{kind}", f"formats.parse_{kind}")


# ---------------------------------------------------------------------------
# Rounds.


class Run:
    """Executes and checks rounds of one workload, keeping the tallies."""

    def __init__(self, workload: str, state, tracer, workdir: str):
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failures: list = []  # operations that raised
        self.mismatches: list = []  # answers the oracles reject
        self.peak_child_kib = 0
        self.clock = calibrate.Clock()
        self.spans_of_round: list = []  # (first, end) measurement of each round

    def round(self, r: int) -> None:
        """Run and check round r, recording its timings on the clock."""
        self.tracer.round_id = r
        first = len(self.clock.raws)
        if self.workload == "cli":
            self._cli_round()
        else:
            self.clock.measure(lambda: self._in_process_round(r))
        self.spans_of_round.append((first, len(self.clock.raws)))

    def durations(self, scaled: bool) -> list:
        """Seconds each round took, raw or scaled to the reference machine."""
        times = self.clock.scaled() if scaled else self.clock.raws
        return [sum(times[a:b]) for a, b in self.spans_of_round]

    def _in_process_round(self, r: int) -> float:
        import workloads

        _, run_round, check = workloads.WORKLOADS[self.workload]
        shared = self.state
        inp = shared["rounds"][r]
        if self.workload == "dynamics":
            workloads.dynamics_grids(inp)
        ops = workloads.Ops(self.tracer)
        gc.collect()
        if self.tracer.enabled:
            # keep the spans recorded so far out of the collector's scans
            gc.freeze()
        start = time.perf_counter()
        run_round(inp, shared, ops)
        elapsed = time.perf_counter() - start
        self.attempted += ops.attempted
        self.failures += ops.failed
        self.mismatches += [f"round {r}: {e}" for e in check(inp, shared, ops.res)]
        for key in ("bbm_cells", "helical_cells", "ring_cells"):
            inp.pop(key, None)
        return elapsed

    def _cli_round(self) -> None:
        import cli_workload

        overhead = []
        for cmd in self.state:
            done = {}

            def one():
                with self.tracer.span(f"cli.process.{cmd.name}"):
                    done["out"] = cli_workload.run_process(cmd, SRC, self.workdir)
                return done["out"][0]

            elapsed = self.clock.measure(one)
            _, rss_kib, err = done["out"]
            self.peak_child_kib = max(self.peak_child_kib, rss_kib)
            self.attempted += 1
            if err:
                self.mismatches.append(f"{cmd.name}: {err}")
            if self.tracer.enabled:
                with self.tracer.span(f"cli.main.{cmd.name}"):
                    inner, err = cli_workload.run_in_process(cmd)
                if err:
                    self.mismatches.append(f"{cmd.name} in-process: {err}")
                overhead.append(elapsed - inner)
        if self.tracer.enabled:
            self.tracer.record("cli.process_overhead", 0.0, ms=statistics.median(overhead) * 1e3)
            self.tracer.record("cli.import", cli_workload.import_time(SRC))


def probe(workload: str, seed: int, tracer) -> list:
    """One traced round of another workload, for layers this one never reaches."""
    workdir = os.path.join(WORK, f"probe-{workload}-{os.getpid()}")
    try:
        run = Run(workload, setup(workload, seed, 1, workdir), tracer, workdir)
        run.round(0)
        traced_extra(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run.failures + run.mismatches


def traced_extra(run: Run) -> None:
    if run.workload == "dynamics":
        import workloads

        inp = run.state["rounds"][0]
        workloads.dynamics_grids(inp)
        workloads.dynamics_traced_extra(run.state, inp, run.tracer, run.tracer.original("ca.margolus_step"))


def percentile_with_ten_beyond(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return int(100 * (n - 10) / n)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, metavar="ROUNDS", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ibx", "__init__.py")):
        print(f"error: no ibx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only is not None:
        setup(args.workload, args.seed, args.setup_only, args.workdir)
        print(time.perf_counter())
        return 0

    warm, timed = counts_of(args.workload, args.seconds)
    setup_samples = setup_seconds(args.workload, args.seed, warm + timed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, warm, timed, setup_samples, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, warm: int, timed: int, setup_samples: list, workdir: str) -> int:
    import spans

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    state = setup(args.workload, args.seed, warm + timed, workdir)
    if args.trace:
        install_wrappers(tracer)
    run = Run(args.workload, state, tracer, workdir)
    for r in range(warm + timed):
        run.round(r)
    warm_rounds = run.durations(scaled=False)[:warm]
    raw = run.durations(scaled=False)[warm:]
    durations = run.durations(scaled=True)[warm:]
    setup_raw, setup_scaled = setup_samples

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "warmup_rounds": warm,
        "timed_rounds": timed,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": sum(raw),
            "round_p50_ms": statistics.median(raw) * 1e3,
        },
        "wall_s": sum(durations),
        "warmup_round_ms": [round(d * 1e3, 1) for d in warm_rounds],
        "round_ms": [round(d * 1e3, 1) for d in durations],
        "raw_round_ms": [round(d * 1e3, 1) for d in raw],
        "setup_samples_s": setup_scaled,
    }
    if timed >= 40:
        p = percentile_with_ten_beyond(timed)
        detail["round_tail_ms"] = {
            "percentile": p,
            "value": statistics.quantiles(durations, n=100)[p - 1] * 1e3,
        }

    if args.trace:
        traced_extra(run)
        import cli_workload

        table = spans.LAYER_METRICS + spans.cli_layer_metrics(cli_workload.COMMAND_NAMES)
        metrics = spans.layer_metrics(tracer.spans, table)
        missing = [m for m in table if m[0] not in metrics]
        for home in sorted({home_of(m[2]) for m in missing}):
            start = len(tracer.spans)
            tracer.round_id = f"probe:{home}"
            errors = probe(home, args.seed, tracer)
            run.mismatches += [f"probe {home}: {e}" for e in errors]
            wanted = [m for m in missing if home_of(m[2]) == home]
            found = spans.layer_metrics(tracer.spans[start:], wanted)
            metrics.update(found)
            detail.setdefault("probed", {})[home] = sorted(found)
        tracer.unwrap_all()
        detail["self_time_s"] = tracer.self_times()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"detail": detail, "spans": [s.as_dict() for s in tracer.spans]}, fh)
        detail["trace_file"] = os.path.relpath(path, ROOT)
        metrics = {m[0]: metrics[m[0]] for m in table if m[0] in metrics}
    else:
        if args.workload == "cli":
            peak_mib = run.peak_child_kib / 1024
        else:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "wall_s": {"value": sum(durations), "unit": "s"},
            "round_p50_ms": {"value": statistics.median(durations) * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }

    for err in (run.failures + run.mismatches)[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    detail["attempted"] = run.attempted
    detail["failed"] = len(run.failures)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
