"""The cli workload: a fixed list of ``python -m ibx.cli`` commands.

Set-up writes the seeded input files.  A round runs every command as a
child process, one at a time, and checks its exit status, its standard
output against oracles.py, and its ``--report`` JSON.  A traced round
also runs each command in-process through ``ibx.cli.main`` and times
``import ibx.cli`` in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

import oracles
import workloads

from ibx import plb

# The README's interval exchange, for its two `iet solve` examples.
README_IET = (15, [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)])
VERIFY_AREAS = ("kernel", "circuits", "lifts", "reductions", "leaf", "lollipop", "ca", "plb", "iet")

CIRCUIT_WIDTH = 8
CIRCUIT_KINDS = workloads.MIX * 4
PLB_KINDS = workloads.MIX * 3 + ["cnot", "toffoli", "not"]
GRID_SIDE, GRID_STEPS = 64, 8
CUBIC_VERTICES = 10
LIFT_WIDTH = 4


class Command:
    """One command line and the check of its standard output."""

    def __init__(self, name: str, argv: List[str], expect: Callable[[str], Optional[str]]):
        self.name = name
        self.argv = argv
        self.expect = expect


def _equal(want: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if out == want else f"printed {out[:200]!r}, expected {want[:200]!r}"


def _iet_answer(domain: int, triples, i: int, n: int) -> str:
    table = oracles.iet_table(domain, triples)
    return str(int(oracles.perm_power(table, n % oracles.cycle_length_of(table, i))[i]))


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _gate_text(gates, width: int) -> str:
    return "\n".join([f"wires {width}"] + [" ".join([k, *map(str, w)]) for k, w in gates]) + "\n"


def _classical_text(body, outputs, width: int) -> str:
    lines = [f"inputs {width}"]
    lines += [" ".join([k, str(o), *map(str, a)]) for k, o, a in body]
    lines.append(" ".join(["outputs", *map(str, outputs)]))
    return "\n".join(lines) + "\n"


def _count_check(n: int, edges) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
        if [(u, v) for u, v, _ in rows] != [tuple(e) for e in edges]:
            return "count lists the wrong edges"
        for u, v, got in rows:
            want = oracles.ham_cycles_through(n, edges, (u, v))
            if got != want or got % 2:
                return f"{got} cycles through ({u}, {v}), expected {want}"
        return None

    return check


def _second_check(n: int, edges, cycle) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        other = tuple(map(int, out.split()))
        if not oracles.is_ham_cycle(n, edges, other) or oracles.same_cycle(other, cycle):
            return f"{other} is not a second Hamiltonian cycle"
        if {other[0], other[1]} != {cycle[0], cycle[1]}:
            return f"{other} does not start with the pinned edge"
        return None

    return check


def _build_check(domain: int, pieces: int) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        head = out.splitlines()[0] if out else ""
        if not head.startswith(f"surface domain={domain} pieces={pieces} "):
            return f"header {head!r}"
        central = [line for line in out.splitlines() if line.endswith(" central")]
        if len(central) != 1 or f"crossings={domain} " not in central[0]:
            return "central edge missing or with the wrong crossing count"
        return None

    return check


def setup(workdir: str, seed: int) -> List[Command]:
    """Write the input files and return the command list."""
    rng = random.Random(f"cli/{seed}")
    cmds: List[Command] = []
    add = lambda name, argv, expect: cmds.append(Command(name, argv, expect))  # noqa: E731

    t_iet = _write(workdir, "t.iet", "iet 15\n" + "".join(
        f"piece {lo} {hi} {off}\n" for lo, hi, off in README_IET[1]))
    add("iet_solve_n1", ["iet", "solve", "--file", t_iet, "--i", "6", "--n", "1"],
        _equal(_iet_answer(*README_IET, 6, 1)))
    add("iet_solve_n1e20", ["iet", "solve", "--file", t_iet, "--i", "2", "--n", str(10 ** 20)],
        _equal(_iet_answer(*README_IET, 2, 10 ** 20)))
    add("plb_riffle", ["plb", "riffle", "--n", "13"],
        _equal("\n".join(["plb 13"] + [f"piece {lo} {hi} {m} {o}" for lo, hi, m, o in oracles.riffle_pieces(13)])))
    add("reduce_clock", ["reduce", "clock", "--fn", "increment", "--width", "4", "--x", "0000", "--n", "11"],
        _equal(format((0 + 11) % 16, "04b")))
    add("ca_strobe_demo", ["ca", "strobe-demo", "--t", "4", "--n", "12"],
        _equal(" ".join(str(s) for s in range(0, 13, 4))))
    add("iet_three_gap", ["iet", "three-gap", "--modulus", "64", "--step", "27", "--count", "10"],
        _equal(" ".join(map(str, oracles.cyclic_gaps(64, 27, 10)))))
    add("verify_all", ["verify", "all"], _equal("\n".join(f"{a} ok" for a in VERIFY_AREAS)))

    gates = workloads.random_gates(rng, CIRCUIT_WIDTH, CIRCUIT_KINDS)
    circ = _write(workdir, "c8.txt", _gate_text(gates, CIRCUIT_WIDTH))
    table = oracles.gate_table(gates, CIRCUIT_WIDTH)
    add("circuit_parity", ["circuit", "parity", "--file", circ], _equal(oracles.perm_parity(table)))
    x, n = rng.randrange(1 << CIRCUIT_WIDTH), rng.randrange(500, 1000)
    add("circuit_iterate", ["circuit", "iterate", "--file", circ, "--input",
                            format(x, f"0{CIRCUIT_WIDTH}b"), "--n", str(n)],
        _equal(format(int(oracles.perm_power(table, n)[x]), f"0{CIRCUIT_WIDTH}b")))

    compiled, _ = plb.circuit_to_plb(workloads.to_circuit(
        workloads.random_gates(rng, CIRCUIT_WIDTH, PLB_KINDS), CIRCUIT_WIDTH))
    pieces = [(p.lo, p.hi, p.mult, p.off) for p in compiled.pieces]
    domain = compiled.domain
    plb_file = _write(workdir, "map.plb", f"plb {domain}\n" + "".join(
        f"piece {lo} {hi} {m} {o}\n" for lo, hi, m, o in pieces))
    image = oracles.plb_table(domain, pieces)
    if not np.array_equal(np.sort(image), np.arange(domain)):
        raise RuntimeError("compiled map written for the cli workload is not a bijection")
    add("plb_validate", ["plb", "validate", "--file", plb_file],
        _equal(f"ok {len(pieces)} pieces on [0, {domain})"))
    x = rng.randrange(domain)
    add("plb_apply_inverse", ["plb", "apply", "--file", plb_file, "--x", str(int(image[x])), "--inverse"],
        _equal(str(x)))

    small_n = rng.randint(50, 200)
    triples = workloads.random_exchange(rng, small_n, rng.randint(3, 5))
    small = _write(workdir, "small.iet", f"iet {small_n}\n" + "".join(
        f"piece {lo} {hi} {off}\n" for lo, hi, off in triples))
    add("iet_build", ["iet", "build", "--file", small], _build_check(small_n, len(triples)))
    i, n = rng.randrange(small_n), rng.choice((-1, 1)) * rng.randrange(10 ** 30)
    add("iet_solve", ["iet", "solve", "--file", small, "--i", str(i), "--n", str(n)],
        _equal(_iet_answer(small_n, triples, i, n)))

    cells = (np.random.default_rng(rng.randrange(1 << 30)).random((GRID_SIDE, GRID_SIDE)) < 0.2).astype(np.uint8)
    grid = _write(workdir, "grid.txt", oracles.grid_text(cells, 0) + "\n")
    want = cells
    for step in range(GRID_STEPS):
        want = oracles.margolus_torus(want, step % 2, oracles.bbm_table())
    add("ca_bbm_run", ["ca", "bbm-run", "--file", grid, "--n", str(GRID_STEPS)],
        _equal(oracles.grid_text(want, GRID_STEPS % 2)))

    cycle, edges = workloads.random_cubic(rng, CUBIC_VERTICES)
    cubic = _write(workdir, "g.cubic", f"cubic {CUBIC_VERTICES}\n" + "".join(
        f"edge {u} {v}\n" for u, v in edges))
    add("lollipop_count", ["lollipop", "count", "--file", cubic], _count_check(CUBIC_VERTICES, edges))
    add("lollipop_second_cycle", ["lollipop", "second-cycle", "--file", cubic,
                                  "--cycle", " ".join(map(str, cycle))],
        _second_check(CUBIC_VERTICES, edges, cycle))

    lift_gates = workloads.random_gates(rng, LIFT_WIDTH, workloads.LIFT_KINDS)
    cf = _write(workdir, "f.bool", _classical_text(*oracles.to_classical(lift_gates, LIFT_WIDTH), LIFT_WIDTH))
    cfi = _write(workdir, "finv.bool", _classical_text(
        *oracles.to_classical(list(reversed(lift_gates)), LIFT_WIDTH), LIFT_WIDTH))
    x = rng.randrange(1 << LIFT_WIDTH)
    want = int(oracles.gate_table(lift_gates, LIFT_WIDTH)[x])
    add("lift_exact", ["lift", "exact", "--file", cf, "--inverse-file", cfi,
                       "--input", format(x, f"0{LIFT_WIDTH}b")],
        _equal(format(want, f"0{LIFT_WIDTH}b")))
    return cmds


COMMAND_NAMES = [
    "iet_solve_n1", "iet_solve_n1e20", "plb_riffle", "reduce_clock", "ca_strobe_demo",
    "iet_three_gap", "verify_all", "circuit_parity", "circuit_iterate", "plb_validate",
    "plb_apply_inverse", "iet_build", "iet_solve", "ca_bbm_run", "lollipop_count",
    "lollipop_second_cycle", "lift_exact",
]


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_output(cmd: Command, argv: List[str], code: int, out: str, err: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    bad = cmd.expect(out.rstrip("\n"))
    if bad:
        return bad
    try:
        report = json.loads(err.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "--report is not JSON"
    if report.get("command") != argv:
        return "--report does not echo the command"
    return None


COMMAND_TIMEOUT_S = 60


def run_process(cmd: Command, src: str, workdir: str) -> Tuple[float, int, Optional[str]]:
    """Run one command as a child; returns (seconds, peak RSS in KiB, error).
    A child still running after COMMAND_TIMEOUT_S is killed."""
    argv = cmd.argv + ["--report"]
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ibx.cli", *argv],
            stdout=out_fh, stderr=err_fh, stdin=subprocess.DEVNULL,
            env=child_env(src), cwd=workdir,
        )
        # os.wait4 reaps the child and returns its resource usage, which
        # Popen.wait would discard; a timer thread enforces the timeout
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        err = fh.read()
    return elapsed, usage.ru_maxrss, _check_output(cmd, argv, proc.returncode, out, err)


def run_in_process(cmd: Command) -> Tuple[float, Optional[str]]:
    """Run one command through ibx.cli.main in this process."""
    import ibx.cli

    argv = cmd.argv + ["--report"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ibx.cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, _check_output(cmd, argv, code, out.getvalue(), err.getvalue())


def import_time(src: str) -> float:
    """Seconds `import ibx.cli` takes in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ibx.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(src), check=True, timeout=COMMAND_TIMEOUT_S)
    return float(done.stdout)
