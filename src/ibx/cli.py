"""Command-line front end.

Two-level subcommands, one per module area.  Results go to standard
output, diagnostics and errors to standard error.  Exit codes: 0 on
success, 1 when an input fails validation or a construction cannot be
carried out, 2 for usage errors (argparse's own convention).

``--report`` emits a JSON run report on standard error: its schema
version, the echoed command, a digest per input file, the payload, step
counters, seconds per phase, wall time, and the ``ibx`` modules (and
numpy) the run loaded.  ``--seed``, taken only by ``leaf walk``, ``leaf
compile`` and ``verify all``, makes their random inputs repeatable.  Each
answer is one library call, with no state layout in a handler, and every
compiled schedule's answer is checked against the command's direct one.

Each handler imports the modules it dispatches to, so a command loads only
the layers it uses, and numpy only when it builds arrays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import kernel

__all__ = ["main", "RunReport"]


@dataclass
class RunReport:
    command: List[str]
    input_digests: Dict[str, str] = field(default_factory=dict)
    payload: str = ""
    step_counts: Dict[str, int] = field(default_factory=dict)
    phases_s: Dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    loaded: List[str] = field(default_factory=list)
    schema: int = 1


def _loaded_modules() -> List[str]:
    """The ibx modules imported so far, and numpy if it is."""
    names = [name for name in sys.modules if name.startswith("ibx.")]
    if "numpy" in sys.modules:
        names.append("numpy")
    return sorted(names)


class _Run:
    """Mutable context threaded through one invocation."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.report = RunReport(command=list(argv))

    def read(self, path: str) -> str:
        with open(path, "rb") as fh:
            data = fh.read()
        self.report.input_digests[path] = hashlib.sha256(data).hexdigest()[:12]
        return data.decode("utf-8")

    def count(self, name: str, value: int) -> None:
        self.report.step_counts[name] = value


def _named_bijection(name: str, width: Optional[int]) -> kernel.Bijection:
    """Stock maps addressable from the command line.

    identity, increment, rotl (need --width); add:<c> (needs --width);
    cat:<n> (width implied by the modulus).
    """
    base, _, arg = name.partition(":")
    if base == "cat":
        return kernel.cat_map(int(arg))
    if width is None:
        raise ValueError(f"--width is required for map {name!r}")
    _check_cap("--width", width, MAX_MAP_WIDTH)
    if base == "identity":
        return kernel.identity(width)
    if base == "increment":
        return kernel.increment(width)
    if base == "rotl":
        return kernel.rotate_left(width)
    if base == "add":
        return kernel.add_const(width, int(arg))
    raise ValueError(f"unknown map {name!r}")


def _bits(text: str) -> kernel.Bitstring:
    return kernel.Bitstring.from_text(text)


# Caps on the size arguments that allocate or run in proportion to their
# value: ``plb rotate`` builds numbers of --k bits, ``reduce`` a map on
# --width bits (an oracle gate's wires are circuit wires, so the circuit
# wire cap), ``ca strobe-demo`` a ring of --ring cells and t**2 counter
# pairs for period --t, and it walks and lists --n steps of every cell,
# ring * n cell steps in all; ``leaf`` a path of --length vertices labelled
# by --k-bit words, ``iet three-gap`` the set of its first --count points,
# and its --sweep N one call per modulus and step, N(N+1)/2 calls in all.
MAX_ROTATE_BITS = 1 << 12
MAX_MAP_WIDTH = 1 << 16
MAX_STROBE_RING = 1 << 16
MAX_STROBE_PERIOD = 256
MAX_STROBE_CELL_STEPS = 1 << 20
MAX_PATH_LENGTH = 1 << 16
MAX_LEAF_BITS = 62
MAX_GAP_COUNT = 1 << 20
MAX_GAP_SWEEP = 256

MAX_ERROR_CHARS = 200  # characters an error line keeps: a message may quote a token of any length


def _check_cap(flag: str, value: Optional[int], cap: int) -> None:
    """Reject a size argument above its cap before anything is built."""
    if value is not None and value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap of {cap}")


# ---------------------------------------------------------------------------
# circuit


def _cmd_circuit(args, run: _Run) -> str:
    from . import circuits, formats

    c = formats.parse_circuit(run.read(args.file))
    if args.action == "invert":
        return formats.write_circuit(circuits.invert_circuit(c)).rstrip("\n")
    sizes = c.table_sizes()
    run.count("tables", len(sizes))
    run.count("table_entries", sum(sizes))
    if args.action == "eval":
        return circuits.eval_reversible(c, _bits(args.input)).to_text()
    if args.action == "iterate":
        run.count("iterations", abs(args.n))
        # the literal loop: perfbench's child-timeout test needs a large --n to run long
        return kernel.iterate(c.as_bijection(), args.n, _bits(args.input)).to_text()
    if c.width > circuits.MAX_GATE_ARITY:
        run.count("gates", len(c.gates))
    else:
        run.count("states", 1 << c.width)
    return circuits.circuit_parity(c)


# ---------------------------------------------------------------------------
# lift


def _cmd_lift(args, run: _Run) -> str:
    from . import circuits, formats

    cf = formats.parse_classical(run.read(args.file))
    if args.action == "bennett":
        lift = circuits.bennett_lift(cf)
    else:
        lift = circuits.exact_lift(cf, formats.parse_classical(run.read(args.inverse_file)))
    run.count("gates", len(lift.circuit.gates))
    run.count("pad", lift.pad_len)
    if args.input is not None:
        final = circuits.eval_reversible(lift.circuit, lift.embed(_bits(args.input)))
        return lift.extract(final).to_text()
    return formats.write_circuit(lift.circuit).rstrip("\n")


# ---------------------------------------------------------------------------
# reduce


def _compiled(sched, direct: kernel.Bitstring, run: Optional[_Run] = None) -> kernel.Bitstring:
    """The answer of the compiled schedule ``sched``, its iterations counted
    on ``run``; ReductionError when it differs from ``direct``, the answer
    the command computes without the schedule."""
    from . import reductions

    if run is not None:
        run.count("iterations", sched.total_iterations)
    compiled = reductions.run_schedule(sched)
    if compiled != direct:
        raise reductions.ReductionError(
            f"compiled schedule gives {compiled.to_text()}, direct evaluation {direct.to_text()}"
        )
    return compiled


def _cmd_reduce(args, run: _Run) -> str:
    from . import reductions

    f = _named_bijection(args.fn, args.width)
    if args.action == "summation":
        x = _bits(args.x)
        sched = reductions.inversion_by_iteration(f, x)
        direct = kernel.Bitstring(f.forward(x.value), f.width)
    elif args.action == "clock":
        x = _bits(args.x)
        sched = reductions.compile_iteration_to_invertible(f, args.n, x)
        direct = kernel.iterate_bijection(f, args.n, x)
    else:
        if args.count < 0:
            raise ValueError(f"--count must be nonnegative, got {args.count}")
        s = _bits(args.input)
        if s.width != f.width:
            raise ValueError("--input width must match the map width")
        sched, direct = _one_oracle_gate(f, args.count, s)
    return _compiled(sched, direct, run).to_text()


def _one_oracle_gate(f: kernel.Bijection, count: int, s: kernel.Bitstring):
    """The compiled schedule of one oracle gate applying f count times to
    s, and the answer ``eval_oracle_circuit`` gives for it directly."""
    from . import reductions

    cbits = max(1, count.bit_length())
    w = f.width
    oc = reductions.OracleCircuit(
        inputs=cbits + w,
        gates=(
            reductions.OracleGate(
                tuple(range(cbits)),
                tuple(range(cbits, cbits + w)),
                tuple(range(cbits + w, cbits + 2 * w)),
            ),
        ),
        outputs=tuple(range(cbits + w, cbits + 2 * w)),
    )
    x = kernel.Bitstring(kernel.pack_fields([(count, cbits), (s.value, w)]), cbits + w)
    return reductions.compile_oracle_circuit(oc, f, x), reductions.eval_oracle_circuit(oc, f, x)


# ---------------------------------------------------------------------------
# leaf


def _cmd_leaf(args, run: _Run) -> str:
    from . import graphs

    _check_cap("--k", args.k, MAX_LEAF_BITS)
    _check_cap("--length", args.length, MAX_PATH_LENGTH)
    rng = random.Random(args.seed)
    inst = graphs.random_path_instance(args.k, rng, args.length)
    far = graphs.solve_leaf_walk(inst)
    if args.action == "walk":
        return far.to_text()
    return _compiled(graphs.leaf_schedule(inst), far, run).to_text()


# ---------------------------------------------------------------------------
# lollipop


def _cmd_lollipop(args, run: _Run) -> str:
    from . import formats, graphs

    g = formats.parse_cubic(run.read(args.file))
    if args.action == "second-cycle":
        cycle = formats.parse_vertex_list(args.cycle)
        edge = tuple(args.edge or cycle[:2])
        other = graphs.second_hamiltonian(g, cycle, edge, args.orientation)
        return formats.write_vertex_list(other).rstrip("\n")
    lines = []
    edges = [tuple(args.edge)] if args.edge else list(g.edges)
    for u, v in edges:
        n = graphs.count_ham_cycles_through_edge(g, (u, v))
        lines.append(f"{u} {v} {n}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ca


def _cmd_ca(args, run: _Run) -> str:
    from . import ca, formats

    if args.action in ("bbm-run", "bbm-reverse"):
        grid = formats.parse_grid(run.read(args.file))
        n = args.n if args.action == "bbm-run" else -args.n
        run.count("steps", abs(n))
        return formats.write_grid(ca.simulate_bbm(grid, n)).rstrip("\n")
    if args.action in ("dimredux-run", "dimredux-verify"):
        grid = formats.parse_grid(run.read(args.file))
        h, w = grid.shape
        auto = ca.dim_redux_compile(ca.bbm_rule(), c=w, p=h * w // 2)
        run.count("steps", abs(args.n) * auto.t)
        if args.action == "dimredux-run":
            return formats.write_grid(ca.dim_redux_run(auto, grid, args.n)).rstrip("\n")
        if not ca.dim_redux_verify(auto, grid, args.n):
            raise ca.CaError("1D replay diverged from the 2D automaton")
        return f"ok {args.n} blocked steps replayed"
    # strobe-demo
    if args.n < 0:
        raise ca.CaError(f"--n must be nonnegative, got {args.n}")
    _check_cap("--t", args.t, MAX_STROBE_PERIOD)
    _check_cap("--ring", args.ring, MAX_STROBE_RING)
    _check_cap("--n", args.n, MAX_STROBE_CELL_STEPS // max(args.ring, 1))
    lit = _strobe_lit_steps(args.t, args.n, args.ring)
    run.count("steps", args.n)
    return " ".join(map(str, lit))


def _strobe_lit_steps(t: int, n: int, ring: int) -> List[int]:
    """The steps 0..n at which the toy strobe of period t on ``ring`` cells
    is lit, once it has been seen lit exactly at the multiples of t and
    n steps back have recovered the seed."""
    from . import ca

    auto = ca.toy_counter_strobe(t)
    cfg = auto.initial(ring)
    lit = []
    for step in range(n + 1):
        if auto.lit(cfg) != (step % t == 0):
            raise ca.CaError(f"strobe fired off-schedule at step {step}")
        if auto.lit(cfg):
            lit.append(step)
        if step < n:
            cfg = auto.step(cfg)
    if ca.simulate_1d(auto, cfg, -n).cells != auto.initial(ring).cells:
        raise ca.CaError("running the strobe backward did not recover the seed")
    return lit


# ---------------------------------------------------------------------------
# plb


def _cmd_plb(args, run: _Run) -> str:
    from . import formats, plb

    def load(path: str) -> plb.PiecewiseLinearBijection:
        return plb.validate_plb(*formats.parse_plb(run.read(path)))

    if args.action in ("validate", "apply", "iterate"):
        t = load(args.file)
    if args.action == "validate":
        return f"ok {len(t.pieces)} pieces on [0, {t.domain})"
    if args.action == "apply":
        return str((plb.apply_plb_inverse if args.inverse else plb.apply_plb)(t, args.x))
    if args.action == "iterate":
        run.count("iterations", abs(args.n))
        answer = plb.iterate_plb(t, args.n, args.x)
        for name, size in plb.power_path(t)[1].items():  # none on a walk
            run.count(name, size)
        return str(answer)
    if args.action == "compose":
        prog = plb.compose_lift([load(path) for path in args.files])
        head = f"# {len(prog.stages)} stages on [0, {prog.domain})"
        return head + "\n" + formats.write_plb(
            prog.lifted.domain, prog.lifted.pieces
        ).rstrip("\n")
    if args.action == "riffle":
        t = plb.riffle(args.n)
        return formats.write_plb(t.domain, t.pieces).rstrip("\n")
    if args.action == "rotate":
        _check_cap("--k", args.k, MAX_ROTATE_BITS)
        t = plb.low_rotation(args.k) if args.low else plb.circular_shift(args.k)
        return formats.write_plb(t.domain, t.pieces).rstrip("\n")
    # from-circuit
    c = formats.parse_circuit(run.read(args.file))
    t, stages = plb.circuit_to_plb(c)
    run.count("stages", stages)
    head = f"# {stages} stages"
    return head + "\n" + formats.write_plb(t.domain, t.pieces).rstrip("\n")


# ---------------------------------------------------------------------------
# iet


def _three_gap_worst(bound: int) -> int:
    """Most distinct gaps over every modulus up to bound and every step."""
    from . import iet

    pairs = ((m, step) for m in range(1, bound + 1) for step in range(m))
    return max(iet.three_gap_max_distinct(m, step, m) for m, step in pairs)


def _cmd_iet(args, run: _Run) -> str:
    from . import formats, iet, plb

    if args.action == "three-gap":
        if args.sweep is not None:
            if args.sweep < 1:
                raise ValueError(f"--sweep {args.sweep} is below 1")
            _check_cap("--sweep", args.sweep, MAX_GAP_SWEEP)
            worst = _three_gap_worst(args.sweep)
            if worst > 3:
                raise iet.IetError(f"found {worst} distinct gaps")
            return f"max distinct gaps {worst}"
        _check_cap("--count", args.count, MAX_GAP_COUNT)
        gaps = iet.three_gap_check(args.modulus, args.step, args.count)
        if len(gaps) > 3:
            raise iet.IetError(f"found {len(gaps)} distinct gaps: {gaps}")
        return " ".join(map(str, gaps))
    domain, triples = formats.parse_iet(run.read(args.file))
    t = plb.interval_exchange(domain, triples)
    if args.action == "solve":
        run.count("induction_ops", len(iet.induction(t)))
        run.count("orbit_length", iet.orbit_size(t, args.i))  # iet's range error, not plb's
        return str(plb.iterate_plb(t, args.n, args.i))
    su = iet.build_surface(t)
    run.count("triangles", len(su.surface.triangles))
    run.count("period", su.period)
    run.count("return_runs", len(su.returns))
    lines = [
        f"surface domain={domain} pieces={len(t.pieces)} stripes={su.stripes} "
        f"period={su.period} triangles={len(su.surface.triangles)} "
        f"edges={len(su.surface.edges)}"
    ]
    for i, tri in enumerate(su.surface.triangles):
        pts = " ".join(f"({x},{y})" for x, y in tri.vertices)
        lines.append(f"triangle {i}: {pts}")
    for i, e in enumerate(su.surface.edges):
        (a, b) = e.key
        ports = " ".join(
            f"t{p.triangle}s{p.side}{'+' if p.aligned else '-'}" for p in e.ports
        )
        tag = " central" if i == su.central else ""
        lines.append(
            f"edge {i}: ({a[0]},{a[1]})-({b[0]},{b[1]}) crossings={e.crossings} "
            f"ports {ports}{tag}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify


def _verify_kernel(rng: random.Random) -> None:
    for f in kernel.builtin_bijections():
        chk = kernel.check_bijection_exhaustive(f)
        if not chk.ok:
            raise ValueError(f"{f.label}: {chk.reason} at {chk.witness}")


def _random_circuit(rng: random.Random, width: int, max_gates: int):
    from . import circuits

    kinds = [k for k, a in circuits.GATE_ARITY.items() if a < width]
    gs = []
    for _ in range(rng.randint(1, max_gates)):
        kind = rng.choice(kinds)
        wires = rng.sample(range(width), circuits.GATE_ARITY[kind])
        gs.append(circuits.gate(kind, *wires))
    return circuits.ReversibleCircuit(width, tuple(gs))


def _verify_circuits(rng: random.Random) -> None:
    from . import circuits

    for _ in range(20):
        c = _random_circuit(rng, rng.randint(2, 8), 30)
        if circuits.parity(circuits.permutation_of(c)) != "even":
            raise ValueError("narrow-gate circuit with odd parity")
        chk = kernel.check_bijection_exhaustive(c.as_bijection())
        if not chk.ok:
            raise ValueError(f"circuit: {chk.reason} at {chk.witness}")
    for w in range(2, 9):
        if circuits.parity(list(kernel.images(circuits.negation_map(w)))) != "odd":
            raise ValueError(f"negation on {w} bits is not odd")


def _verify_lifts(rng: random.Random) -> None:
    from . import circuits

    for _ in range(5):
        c = _random_circuit(rng, 4, 12)
        cc = circuits.reversible_to_classical(c)
        cci = circuits.reversible_to_classical(circuits.invert_circuit(c))
        for lift in (circuits.bennett_lift(cc), circuits.exact_lift(cc, cci)):
            if not circuits.verify_lift(lift, cc):
                raise ValueError("lift disagrees with its boolean circuit")


def _verify_reductions(rng: random.Random) -> None:
    from . import reductions

    f = kernel.increment(4)
    for _ in range(4):
        x = kernel.Bitstring(rng.randrange(16), 4)
        _compiled(reductions.inversion_by_iteration(f, x), kernel.Bitstring(f.forward(x.value), 4))
        n = rng.randint(0, 9)
        _compiled(reductions.compile_iteration_to_invertible(f, n, x), kernel.iterate(f, n, x))
    # a count near 2**40: the oracle clock leaps each run of ticks, the
    # active one by the cat map's own power
    cat = kernel.cat_map(5)
    _compiled(*_one_oracle_gate(
        cat, (1 << 40) - rng.randrange(1, 1 << 10), kernel.Bitstring(rng.randrange(64), cat.width)
    ))


def _verify_leaf(rng: random.Random) -> None:
    from . import graphs

    inst = graphs.random_path_instance(6, rng)
    _compiled(graphs.leaf_schedule(inst), graphs.solve_leaf_walk(inst))


def _verify_lollipop(rng: random.Random) -> None:
    from . import graphs

    g = graphs.complete_graph_k4()
    cycle = (0, 1, 2, 3)
    other = graphs.second_hamiltonian(g, cycle, (0, 1))
    if other == tuple(cycle) or len(other) != 4:
        raise ValueError("second cycle on K4 malformed")
    for e in g.edges:
        if graphs.count_ham_cycles_through_edge(g, e) % 2:
            raise ValueError(f"odd cycle count through {e}")


def _verify_ca(rng: random.Random) -> None:
    from . import ca, formats

    # grids read from text, as ``ca bbm-run`` reads them, so no numpy loads
    rows = ["." * 16] * 16
    rows[4] = "....#" + "." * 11
    g0 = formats.parse_grid("\n".join(["bbm 16 16 0", *rows]))
    g = ca.simulate_bbm(g0, 20)
    if g.live_count() != 1:
        raise ValueError("single ball did not survive")
    if ca.simulate_bbm(g, -20) != g0:
        raise ValueError("reverse run did not recover the start")
    rows = ["".join(".#"[rng.randint(0, 1)] for _ in range(4)) for _ in range(4)]
    grid = formats.parse_grid("\n".join([f"bbm 4 4 {rng.randint(0, 1)}", *rows]))
    auto = ca.dim_redux_compile(ca.bbm_rule(), 4, 8)
    if not ca.dim_redux_verify(auto, grid, 3):
        raise ValueError("1D replay diverged")
    _strobe_lit_steps(3, 15, 8)


def _verify_plb(rng: random.Random) -> None:
    from . import plb

    t = plb.riffle(13)
    if plb.apply_plb(t, 3) != 6 or plb.apply_plb(t, 7) != 1:
        raise ValueError("riffle lands wrong")
    c = _random_circuit(rng, 3, 8)
    lifted, s = plb.circuit_to_plb(c)
    for x in range(8):
        if plb.iterate_plb(lifted, s, x) != c.eval_int(x):
            raise ValueError("compiled map disagrees with the circuit")


def _verify_iet(rng: random.Random) -> None:
    from . import iet, plb

    t = plb.interval_exchange(15, [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)])
    su = iet.build_surface(t)
    for x, y in ((0, 11), (4, 0), (6, 10), (7, 2)):
        if plb.iterate_plb(t, 1, x) != y or y not in iet.arc_of(su, x).orbit:
            raise ValueError(f"exchange maps {x} wrongly")
    if _three_gap_worst(60) > 3:
        raise ValueError("three-gap bound violated")


_SUITES = [
    ("kernel", _verify_kernel),
    ("circuits", _verify_circuits),
    ("lifts", _verify_lifts),
    ("reductions", _verify_reductions),
    ("leaf", _verify_leaf),
    ("lollipop", _verify_lollipop),
    ("ca", _verify_ca),
    ("plb", _verify_plb),
    ("iet", _verify_iet),
]


def _cmd_verify(args, run: _Run) -> str:
    lines = []
    for name, suite in _SUITES:
        started = time.monotonic()
        suite(random.Random(args.seed))
        run.report.phases_s[name] = round(time.monotonic() - started, 6)
        lines.append(f"{name} ok")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", action="store_true", help="JSON run report on stderr")

    top = argparse.ArgumentParser(prog="ibx", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def leaf_parser(group, name: str, **kw):
        p = group.add_parser(name, parents=[common], **kw)
        p.set_defaults(action=name)
        return p

    g = sub.add_parser("circuit").add_subparsers(dest="action", required=True)
    for name in ("eval", "invert", "iterate", "parity"):
        p = leaf_parser(g, name)
        p.add_argument("--file", required=True)
        if name in ("eval", "iterate"):
            p.add_argument("--input", required=True)
        if name == "iterate":
            p.add_argument("--n", type=int, required=True)

    g = sub.add_parser("lift").add_subparsers(dest="action", required=True)
    p = leaf_parser(g, "bennett")
    p.add_argument("--file", required=True)
    p.add_argument("--input")
    p = leaf_parser(g, "exact")
    p.add_argument("--file", required=True)
    p.add_argument("--inverse-file", required=True)
    p.add_argument("--input")

    g = sub.add_parser("reduce").add_subparsers(dest="action", required=True)
    for name in ("summation", "clock", "oracle"):
        p = leaf_parser(g, name)
        p.add_argument("--fn", required=True, help="identity|increment|rotl|add:<c>|cat:<n>")
        p.add_argument("--width", type=int)
        if name == "summation":
            p.add_argument("--x", required=True)
        elif name == "clock":
            p.add_argument("--x", required=True)
            p.add_argument("--n", type=int, required=True)
        else:
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--input", required=True)

    g = sub.add_parser("leaf").add_subparsers(dest="action", required=True)
    for name in ("walk", "compile"):
        p = leaf_parser(g, name)
        p.add_argument("--seed", type=int, default=0, help="RNG seed of the random path")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--length", type=int)

    g = sub.add_parser("lollipop").add_subparsers(dest="action", required=True)
    p = leaf_parser(g, "second-cycle")
    p.add_argument("--file", required=True)
    p.add_argument("--cycle", required=True, help="vertices, space separated")
    p.add_argument("--edge", type=int, nargs=2)
    p.add_argument("--orientation", type=int, default=0, choices=(0, 1))
    p = leaf_parser(g, "count")
    p.add_argument("--file", required=True)
    p.add_argument("--edge", type=int, nargs=2)

    g = sub.add_parser("ca").add_subparsers(dest="action", required=True)
    for name in ("bbm-run", "bbm-reverse", "dimredux-run", "dimredux-verify"):
        p = leaf_parser(g, name)
        p.add_argument("--file", required=True)
        p.add_argument("--n", type=int, required=True)
    p = leaf_parser(g, "strobe-demo")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", type=int, default=8)

    g = sub.add_parser("plb").add_subparsers(dest="action", required=True)
    for name in ("validate", "apply", "iterate", "from-circuit"):
        p = leaf_parser(g, name)
        p.add_argument("--file", required=True)
        if name == "apply":
            p.add_argument("--x", type=int, required=True)
            p.add_argument("--inverse", action="store_true")
        if name == "iterate":
            p.add_argument("--x", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
    p = leaf_parser(g, "compose")
    p.add_argument("--files", nargs="+", required=True)
    p = leaf_parser(g, "riffle")
    p.add_argument("--n", type=int, required=True)
    p = leaf_parser(g, "rotate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--low", action="store_true", help="rotate below the top bit")

    g = sub.add_parser("iet").add_subparsers(dest="action", required=True)
    p = leaf_parser(g, "build")
    p.add_argument("--file", required=True)
    p = leaf_parser(g, "solve")
    p.add_argument("--file", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = leaf_parser(g, "three-gap")
    p.add_argument("--modulus", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--sweep", type=int, help="check every modulus up to this bound")

    g = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    leaf_parser(g, "all").add_argument("--seed", type=int, default=0, help="RNG seed of the checks")

    return top


_HANDLERS = {
    "circuit": _cmd_circuit,
    "lift": _cmd_lift,
    "reduce": _cmd_reduce,
    "leaf": _cmd_leaf,
    "lollipop": _cmd_lollipop,
    "ca": _cmd_ca,
    "plb": _cmd_plb,
    "iet": _cmd_iet,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "iet" and args.action == "three-gap":
        if args.sweep is None and None in (args.modulus, args.step, args.count):
            parser.error("three-gap needs --modulus/--step/--count or --sweep")
    run = _Run(argv)
    started = time.monotonic()
    try:
        payload = _HANDLERS[args.command](args, run)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {str(exc)[:MAX_ERROR_CHARS]}", file=sys.stderr)
        return 1
    report = run.report
    report.payload = payload
    report.wall_time_s = round(time.monotonic() - started, 6)
    report.phases_s = report.phases_s or {"run": report.wall_time_s}
    try:
        if payload:
            print(payload, flush=True)
    except BrokenPipeError:  # the reader left; keep the exit-time flush quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 1
    if args.report:
        report.loaded = _loaded_modules()
        print(json.dumps(report.__dict__), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
