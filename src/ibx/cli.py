"""Command-line front end.

Two-level subcommands, one per module area.  Results go to standard
output, diagnostics and errors to standard error.  Exit codes: 0 on
success, 1 when an input fails validation or a construction cannot be
carried out, 2 for usage errors (argparse's own convention).

``--report`` emits a JSON run report on standard error: its schema
version, the echoed command, a digest per input file, the payload, step
counters, seconds per phase, wall time, and the ``ibx`` modules (and
numpy) the run loaded.  ``--seed`` feeds every randomized harness, so runs
are repeatable.

Each handler imports the modules it dispatches to, so a command loads only
the layers it uses, and numpy only when it builds arrays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


# ---------------------------------------------------------------------------
# circuit


def _cmd_circuit(args, run: _Run) -> str:
    from . import circuits, formats

    c = formats.parse_circuit(run.read(args.file))
    if args.action == "eval":
        return circuits.eval_reversible(c, _bits(args.input)).to_text()
    if args.action == "invert":
        return formats.write_circuit(circuits.invert_circuit(c)).rstrip("\n")
    if args.action == "iterate":
        run.count("iterations", args.n)
        # the literal loop: perfbench's child-timeout test needs a large --n to run long
        f = c.as_bijection() if args.n >= 0 else c.as_bijection().inverse()
        return kernel.iterate(kernel.IterationProblem(f, abs(args.n), _bits(args.input))).to_text()
    # counted after the report, whose tabulation cap rejects a huge width
    parity = circuits.circuit_parity_report(c)
    run.count("states", 1 << c.width)
    return parity


# ---------------------------------------------------------------------------
# lift


def _cmd_lift(args, run: _Run) -> str:
    from . import circuits, formats

    if args.action == "bennett":
        cc = formats.parse_classical(run.read(args.file))
        lift = circuits.bennett_lift(cc)
    else:
        cf = formats.parse_classical(run.read(args.file))
        cfi = formats.parse_classical(run.read(args.inverse_file))
        lift = circuits.exact_lift(cf, cfi)
    run.count("gates", len(lift.circuit.gates))
    run.count("pad", lift.pad_len)
    if args.input is not None:
        final = circuits.eval_reversible(lift.circuit, lift.embed(_bits(args.input)))
        return lift.extract(final).to_text()
    return formats.write_circuit(lift.circuit).rstrip("\n")


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args, run: _Run) -> str:
    from . import reductions

    f = _named_bijection(args.fn, args.width)
    if args.action == "summation":
        sched = reductions.inversion_by_iteration(f, _bits(args.x))
        run.count("iterations", sched.total_iterations)
        return reductions.run_schedule(sched).to_text()
    if args.action == "clock":
        sched = reductions.compile_iteration_to_invertible(f, args.n, _bits(args.x))
        run.count("iterations", sched.total_iterations)
        return reductions.run_schedule(sched).to_text()
    # oracle: one oracle gate applying f count times to the input field
    s = _bits(args.input)
    if s.width != f.width:
        raise ValueError("--input width must match the map width")
    cbits = max(1, args.count.bit_length())
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
    x = kernel.Bitstring(
        kernel.pack_fields([(args.count, cbits), (s.value, w)]), cbits + w
    )
    sched = reductions.compile_oracle_circuit(oc, f, x)
    run.count("iterations", sched.total_iterations)
    compiled = reductions.run_schedule(sched)
    direct = reductions.eval_oracle_circuit(oc, f, x)
    if compiled != direct:
        raise reductions.ReductionError(
            f"compiled schedule gives {compiled.to_text()}, direct evaluation {direct.to_text()}"
        )
    return compiled.to_text()


# ---------------------------------------------------------------------------
# leaf


def _iterated_leaf(inst, k: int) -> int:
    """Compile the leaf walk of a ``graphs.LeafInstance`` into one
    bijection, iterate it 2**k steps from the start leaf's edge and read the
    v field: the far leaf."""
    from . import graphs

    f = graphs.leaf_to_bijection(inst.family, inst.instance, k)
    nbr = inst.family.query(inst.instance, inst.start)[0]
    state = kernel.Bitstring(
        kernel.pack_fields([(0, k), (inst.start.value, k), (nbr.value, k)]), 3 * k
    )
    final = kernel.iterate_bijection(f, 1 << k, state)
    return kernel.unpack_fields(final.value, (k, k, k))[1]


def _cmd_leaf(args, run: _Run) -> str:
    from . import graphs

    rng = random.Random(args.seed)
    inst = graphs.random_path_instance(args.k, rng, args.length)
    far = graphs.solve_leaf_walk(inst)
    if args.action == "walk":
        return far.to_text()
    run.count("iterations", 1 << args.k)
    v = _iterated_leaf(inst, args.k)
    if v != far.value:
        raise graphs.FamilyError(
            f"iterated walker sits at {v}, direct walk found {far.value}"
        )
    return kernel.Bitstring(v, args.k).to_text()


# ---------------------------------------------------------------------------
# lollipop


def _cmd_lollipop(args, run: _Run) -> str:
    from . import formats, graphs

    g = formats.parse_cubic(run.read(args.file))
    if args.action == "second-cycle":
        cycle = formats.parse_vertex_list(args.cycle)
        edge = tuple(args.edge) if args.edge else (cycle[0], cycle[1])
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
        out = ca.simulate_bbm(grid, n)
        return formats.write_grid(out).rstrip("\n")
    if args.action in ("dimredux-run", "dimredux-verify"):
        grid = formats.parse_grid(run.read(args.file))
        h, w = grid.shape
        auto = ca.dim_redux_compile(ca.bbm_rule(), c=w, p=h * w // 2)
        if args.action == "dimredux-verify":
            run.count("steps", args.n * auto.t)
            if not ca.dim_redux_verify(auto, grid, args.n):
                raise ca.CaError("1D replay diverged from the 2D automaton")
            return f"ok {args.n} blocked steps replayed"
        cfg = auto.embed(grid, grid.phase)
        cfg = ca.simulate_1d(auto, cfg, args.n * auto.t)
        run.count("steps", args.n * auto.t)
        out = auto.extract(cfg, grid.phase + args.n)
        return formats.write_grid(out).rstrip("\n")
    # strobe-demo
    auto = ca.toy_counter_strobe(args.t)
    cfg = auto.initial(args.ring)
    lit = []
    for step in range(args.n + 1):
        if auto.lit(cfg) != (step % args.t == 0):
            raise ca.CaError(f"strobe fired off-schedule at step {step}")
        if auto.lit(cfg):
            lit.append(step)
        if step < args.n:
            cfg = auto.step(cfg)
    back = ca.simulate_1d(auto, cfg, -args.n)
    if back.cells != auto.initial(args.ring).cells:
        raise ca.CaError("running the strobe backward did not recover the seed")
    run.count("steps", args.n)
    return " ".join(map(str, lit))


# ---------------------------------------------------------------------------
# plb


def _cmd_plb(args, run: _Run) -> str:
    from . import formats, plb

    if args.action == "validate":
        domain, pieces = formats.parse_plb(run.read(args.file))
        t = plb.validate_plb(domain, pieces)
        return f"ok {len(t.pieces)} pieces on [0, {domain})"
    if args.action == "apply":
        domain, pieces = formats.parse_plb(run.read(args.file))
        t = plb.validate_plb(domain, pieces)
        if args.inverse:
            return str(plb.apply_plb_inverse(t, args.x))
        return str(plb.apply_plb(t, args.x))
    if args.action == "iterate":
        domain, pieces = formats.parse_plb(run.read(args.file))
        t = plb.validate_plb(domain, pieces)
        run.count("iterations", args.n)
        return str(plb.iterate_plb(t, args.n, args.x))
    if args.action == "compose":
        stages = []
        for path in args.files:
            domain, pieces = formats.parse_plb(run.read(path))
            stages.append(plb.validate_plb(domain, pieces))
        prog = plb.compose_lift(stages)
        head = f"# {len(prog.stages)} stages on [0, {prog.domain})"
        return head + "\n" + formats.write_plb(
            prog.lifted.domain, prog.lifted.pieces
        ).rstrip("\n")
    if args.action == "riffle":
        t = plb.riffle(args.n)
        return formats.write_plb(t.domain, t.pieces).rstrip("\n")
    if args.action == "rotate":
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


def _cmd_iet(args, run: _Run) -> str:
    from . import formats, iet, plb

    if args.action == "three-gap":
        if args.sweep is not None:
            worst = 0
            for modulus in range(1, args.sweep + 1):
                for step in range(modulus):
                    worst = max(
                        worst, iet.three_gap_max_distinct(modulus, step, modulus)
                    )
            if worst > 3:
                raise iet.IetError(f"found {worst} distinct gaps")
            return f"max distinct gaps {worst}"
        gaps = iet.three_gap_check(args.modulus, args.step, args.count)
        if len(gaps) > 3:
            raise iet.IetError(f"found {len(gaps)} distinct gaps: {gaps}")
        return " ".join(map(str, gaps))
    domain, triples = formats.parse_iet(run.read(args.file))
    t = plb.interval_exchange(domain, triples)
    su = iet.build_surface(t)
    run.count("triangles", len(su.surface.triangles))
    run.count("period", su.period)
    run.count("return_runs", len(su.returns))
    if args.action == "solve":
        run.count("arc_steps", iet.arc_of(su, args.i).length)
        return str(iet.iet_orbit_solve(t, args.i, args.n, surface=su))
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
        if circuits.circuit_parity_report(c) != "even":
            raise ValueError("narrow-gate circuit with odd parity")
        chk = kernel.check_bijection_exhaustive(c.as_bijection())
        if not chk.ok:
            raise ValueError(f"circuit: {chk.reason} at {chk.witness}")
    for w in range(2, 9):
        f = circuits.negation_map(w)
        perm = [f.forward(x) for x in range(1 << w)]
        if circuits.parity(perm) != "odd":
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
        got = reductions.run_schedule(reductions.inversion_by_iteration(f, x))
        if got.value != f.forward(x.value):
            raise ValueError("summation schedule disagrees with the map")
        n = rng.randint(0, 9)
        got = reductions.run_schedule(
            reductions.compile_iteration_to_invertible(f, n, x)
        )
        if got != kernel.iterate(kernel.IterationProblem(f, n, x)):
            raise ValueError("clocked schedule disagrees with direct iteration")


def _verify_leaf(rng: random.Random) -> None:
    from . import graphs

    inst = graphs.random_path_instance(6, rng)
    if _iterated_leaf(inst, 6) != graphs.solve_leaf_walk(inst).value:
        raise ValueError("leaf bijection did not deliver the far leaf")


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
    from . import ca

    cells = [[0] * 16 for _ in range(16)]
    cells[4][4] = 1
    g0 = ca.MargolusGrid(cells)
    g = ca.simulate_bbm(g0, 20)
    if g.live_count() != 1:
        raise ValueError("single ball did not survive")
    if ca.simulate_bbm(g, -20) != g0:
        raise ValueError("reverse run did not recover the start")
    grid = ca.MargolusGrid(
        [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
    )
    auto = ca.dim_redux_compile(ca.bbm_rule(), 4, 8)
    if not ca.dim_redux_verify(auto, grid, 3):
        raise ValueError("1D replay diverged")
    strobe = ca.toy_counter_strobe(3)
    cfg = strobe.initial(8)
    for step in range(15):
        if strobe.lit(cfg) != (step % 3 == 0):
            raise ValueError("strobe off schedule")
        cfg = strobe.step(cfg)


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
        if iet.iet_orbit_solve(t, x, 1, surface=su) != y:
            raise ValueError(f"exchange maps {x} wrongly")
    for modulus in range(1, 61):
        for step in range(modulus):
            if iet.three_gap_max_distinct(modulus, step, modulus) > 3:
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
    common.add_argument("--seed", type=int, default=0, help="harness RNG seed")
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
    leaf_parser(g, "all")

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
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run.report
    report.payload = payload
    report.wall_time_s = round(time.monotonic() - started, 6)
    report.phases_s = report.phases_s or {"run": report.wall_time_s}
    if payload:
        print(payload)
    if args.report:
        report.loaded = _loaded_modules()
        print(json.dumps(report.__dict__), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
