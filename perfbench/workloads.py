"""The three in-process workloads: statespace, orbit and dynamics.

Each workload has three parts:

* ``generate(seed, rounds)`` draws every round's instances from the seed
  and returns them with the inputs all rounds share.  Only raw
  descriptions and ibx input objects are built here.
* ``run_round(inp, shared, ops)`` is the timed part: one pass through the
  workload's fixed mix of calls into ibx, each made through ``ops``.
* ``check(inp, shared, res)`` compares every result against oracles.py
  and returns the list of mismatches.

A round's mix is the same in every round and every run; only the drawn
instances change.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Callable, Dict, List

import numpy as np

import oracles

from ibx import ca, circuits, graphs, iet, kernel, plb, reductions


class Ops:
    """Runs one round's calls, counting attempts and failures.

    A call that raises is a failed operation; its result is None.  span
    names a benchmark-level span for calls whose ibx function is not
    wrapped by the tracer (composites and batches).
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.res: Dict[str, object] = {}
        self.attempted = 0
        self.failed: List[str] = []

    def __call__(self, key: str, fn: Callable, *args, span: str = "", counts=None):
        self.attempted += 1
        try:
            if span:
                with self.tracer.span(span, **(counts or {})):
                    out = fn(*args)
            else:
                out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed.append(f"{key}: {type(exc).__name__}: {exc}")
            out = None
        self.res[key] = out
        return out


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


# One gate of every kind.  Circuits take a fixed make-up of kinds (only the
# order and the wires are drawn), so every round costs about the same.
MIX = ["not", "swap", "cnot", "toffoli", "fredkin"]


def random_gates(rng: random.Random, width: int, kinds):
    """One gate per listed kind on random distinct wires, in random order.
    Every kind acts on at most 3 wires, fewer than the circuit has."""
    out = [(kind, tuple(rng.sample(range(width), circuits.GATE_ARITY[kind]))) for kind in kinds]
    rng.shuffle(out)
    return out


def to_circuit(gates, width: int) -> circuits.ReversibleCircuit:
    return circuits.ReversibleCircuit(
        width, tuple(circuits.gate(k, *w) for k, w in gates)
    )


def to_classical(gates, width: int) -> circuits.ClassicalCircuit:
    body, outputs = oracles.to_classical(gates, width)
    return circuits.ClassicalCircuit(
        width, tuple(circuits.ClassicalGate(k, o, a) for k, o, a in body), outputs
    )


# ---------------------------------------------------------------------------
# statespace: evaluators that walk all 2**w states.

SS_WIDTH = circuits.MAX_PERMUTATION_WIDTH
SS_KINDS = MIX * 10
LIFT_K = 10
# 13 boolean gates per side
LIFT_KINDS = ["not", "not", "swap", "cnot", "cnot", "cnot", "toffoli", "toffoli", "fredkin"]
CAT_WIDTH = 12
RIFFLE_CARDS = (99_000, 101_000)


def statespace_generate(seed: int, rounds: int) -> dict:
    out = []
    for r in range(rounds):
        rng = round_rng("statespace", seed, r)
        gates = random_gates(rng, SS_WIDTH, SS_KINDS)
        lift_gates = random_gates(rng, LIFT_K, LIFT_KINDS)
        inverse_gates = list(reversed(lift_gates))
        cat_n = rng.randint(33, 64)
        c = to_circuit(gates, SS_WIDTH)
        x1 = rng.randrange((1 << SS_WIDTH) - 1)
        x2 = (1 << SS_WIDTH) - 1
        out.append({
            "gates": gates,
            "circuit": c,
            "collide": (x1, x2),
            "planted": kernel.Bijection(
                SS_WIDTH, lambda x, e=c.eval_int, a=x1, b=x2: e(a if x == b else x)
            ),
            "lift_gates": lift_gates,
            "cf": to_classical(lift_gates, LIFT_K),
            "cfi": to_classical(inverse_gates, LIFT_K),
            "cat_n": cat_n,
            "cat_xy": (rng.randrange(cat_n), rng.randrange(cat_n)),
            "cards": rng.randint(*RIFFLE_CARDS),
        })
    return {"rounds": out, "negation": oracles.negation_perm(SS_WIDTH)}


def _sweep(cat_n: int, xy) -> kernel.Bitstring:
    f = kernel.cat_map(cat_n)
    half = CAT_WIDTH // 2
    target = kernel.Bitstring((xy[0] << half) | xy[1], CAT_WIDTH)
    return reductions.run_schedule(reductions.inversion_by_iteration(f, target))


def _order(cards: int) -> int:
    return plb.permutation_order(plb.riffle(cards))


def statespace_round(inp: dict, shared: dict, ops: Ops) -> None:
    c = inp["circuit"]
    perm = ops("perm", circuits.permutation_of, c)
    ops("parity", circuits.parity, perm)
    ops("parity_neg", circuits.parity, shared["negation"])
    ops("check", kernel.check_bijection_exhaustive, c.as_bijection())
    ops("check_collision", kernel.check_bijection_exhaustive, inp["planted"])
    lift = ops("lift", circuits.exact_lift, inp["cf"], inp["cfi"])
    ops("verify_lift", circuits.verify_lift, lift, inp["cf"])
    ops("sweep", _sweep, inp["cat_n"], inp["cat_xy"],
        span="reductions.inversion_by_iteration", counts={"steps": 1 << CAT_WIDTH})
    ops("order", _order, inp["cards"])


def statespace_check(inp: dict, shared: dict, res: dict) -> List[str]:
    bad = []
    table = oracles.gate_table(inp["gates"], SS_WIDTH)
    if res["perm"] is None or not np.array_equal(np.asarray(res["perm"]), table):
        bad.append("permutation_of differs from the gate-list evaluation")
    if res["parity"] != "even" or oracles.perm_parity(table) != "even":
        bad.append("narrow-gate circuit is not even")
    if res["parity_neg"] != "odd":
        bad.append("negation is not odd")
    if res["check"] is None or not res["check"].ok:
        bad.append("circuit bijection rejected")
    chk = res["check_collision"]
    x1, x2 = inp["collide"]
    planted = lambda x: int(table[x1 if x == x2 else x])  # noqa: E731
    if chk is None or chk.ok or chk.reason != "collision":
        bad.append("planted collision not reported")
    else:
        a, b = (w.value for w in chk.witness)
        if a == b or planted(a) != planted(b):
            bad.append(f"collision witness {a}, {b} does not collide")
    lift = res["lift"]
    if lift is None or res["verify_lift"] is not True:
        bad.append("exact lift missing or rejected by verify_lift")
    else:
        k = LIFT_K
        lifted = [(g.kind, g.wires) for g in lift.circuit.gates]
        final = oracles.eval_gates(lifted, lift.circuit.width, np.arange(1 << k))
        want = oracles.gate_table(inp["lift_gates"], k)
        if np.any(final >> np.uint64(k)):
            bad.append("lift leaves padding nonzero")
        if not np.array_equal((final & np.uint64((1 << k) - 1)).astype(np.int64), want):
            bad.append("lift payload differs from the source circuit")
    n = inp["cat_n"]
    x, y = inp["cat_xy"]
    half = CAT_WIDTH // 2
    want = (((2 * x + y) % n) << half) | ((x + y) % n)
    if res["sweep"] is None or res["sweep"].value != want:
        bad.append("sweep differs from the cat map's closed form")
    if res["order"] != oracles.riffle_order(inp["cards"]):
        bad.append(f"riffle order of {inp['cards']} cards is wrong")
    return bad


# ---------------------------------------------------------------------------
# orbit: power queries whose cost should follow the description size.

ORBIT_N = 10_000
ITER_WIDTH, ITER_STEPS = 10, 5_000
PLB_WIDTH = 8
ORBIT_KINDS = MIX * 2 + ["cnot", "toffoli"]
APPLY_SAMPLES = 50


def random_exchange(rng: random.Random, domain: int, k: int):
    """k pieces of random lengths, put back in a random order."""
    cuts = [0] + sorted(rng.sample(range(1, domain), k - 1)) + [domain]
    spans = [(cuts[j], cuts[j + 1]) for j in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    start, at = {}, 0
    for j in order:
        start[j] = at
        at += spans[j][1] - spans[j][0]
    return [(lo, hi, start[j] - lo) for j, (lo, hi) in enumerate(spans)]


def _queries(rng: random.Random, domain: int):
    """Random points, with n of both signs up to 1e100."""
    sizes = [10 ** 100, 10 ** 20, 10 ** 6, domain]
    return [(rng.randrange(domain), rng.choice((-1, 1)) * rng.randrange(1, s)) for s in sizes]


def orbit_generate(seed: int, rounds: int) -> dict:
    out = []
    for r in range(rounds):
        rng = round_rng("orbit", seed, r)
        n = ORBIT_N
        surfaces = []
        # one exchange cut in two stripes (3 or 4 pieces), one in three (5 to 8)
        for tag, k in (("iet0", 3 + r % 2), ("iet1", 5 + r % 4)):
            triples = random_exchange(rng, n, k)
            # one point per orbit: tracing their arcs covers the whole surface,
            # which keeps the work per round the same whatever the orbits are
            reps = [c[0] for c in oracles.cycles(oracles.iet_table(n, triples).tolist())]
            surfaces.append((tag, triples, reps, _queries(rng, n), None))
        a = rng.randrange(1, n)
        while gcd(a, n) != 1:
            a = rng.randrange(1, n)
        surfaces.append(("rot", [(0, n - a, a), (n - a, n, a - n)], [0], _queries(rng, n), a))
        step = rng.randrange(1, n)
        while gcd(step, n) != 1:
            step = rng.randrange(1, n)
        iter_gates = random_gates(rng, ITER_WIDTH, ORBIT_KINDS)
        plb_gates = random_gates(rng, PLB_WIDTH, ORBIT_KINDS)
        cards = rng.randint(*RIFFLE_CARDS)
        out.append({
            "surfaces": surfaces,
            "gap": (n, step),
            "iter_gates": iter_gates,
            "iter_circuit": to_circuit(iter_gates, ITER_WIDTH),
            "iter_x": rng.randrange(1 << ITER_WIDTH),
            # several times any cycle length, which is at most 2**width
            "iter_n": ITER_STEPS,
            "plb_gates": plb_gates,
            "plb_circuit": to_circuit(plb_gates, PLB_WIDTH),
            "plb_passes": rng.randint(2, 4),
            "plb_x": rng.randrange(1 << PLB_WIDTH),
            "plb_seed": rng.randrange(1 << 30),
            "riffle": (cards, rng.randint(2000, 4000), rng.randrange(cards)),
        })
    return {"rounds": out}


def _arcs(su, reps):
    return [iet.arc_of(su, i) for i in reps]


def _surface_queries(ops: Ops, tag: str, triples, reps, queries) -> None:
    t = ops(f"{tag}_exchange", plb.interval_exchange, ORBIT_N, triples)
    su = ops(f"{tag}_surface", iet.build_surface, t)
    ops(f"{tag}_arc", _arcs, su, reps)
    for j, (i, n) in enumerate(queries):
        ops(f"{tag}_solve{j}", iet.iet_orbit_solve, t, i, n, su)


def _apply_batch(t, xs):
    return [plb.apply_plb(t, x) for x in xs]


def _apply_inverse_batch(t, ys):
    return [plb.apply_plb_inverse(t, y) for y in ys]


def orbit_round(inp: dict, shared: dict, ops: Ops) -> None:
    for tag, triples, reps, queries, _ in inp["surfaces"]:
        _surface_queries(ops, tag, triples, reps, queries)
    gap_mod, step = inp["gap"]
    ops("gap_max", iet.three_gap_max_distinct, gap_mod, step, gap_mod)
    ops("gap_last", iet.three_gap_check, gap_mod, step, gap_mod)
    ops("iterate_circuit", circuits.iterate_circuit, inp["iter_circuit"], inp["iter_n"],
        kernel.Bitstring(inp["iter_x"], ITER_WIDTH))
    compiled = ops("circuit_to_plb", plb.circuit_to_plb, inp["plb_circuit"])
    t, stages = compiled if compiled else (None, 0)
    ops("iterate_plb", plb.iterate_plb, t, inp["plb_passes"] * stages, inp["plb_x"])
    xs = random.Random(inp["plb_seed"]).sample(range(t.domain), APPLY_SAMPLES) if t else []
    ys = ops("apply", _apply_batch, t, xs, span="plb.apply_plb", counts={"applies": len(xs)})
    ops("apply_inverse", _apply_inverse_batch, t, ys or [])
    ops.res["apply_xs"] = xs
    cards, m, x = inp["riffle"]
    shuffle = ops("riffle", plb.riffle, cards)
    ops("riffle_iterate", plb.iterate_plb, shuffle, m, x)


def orbit_check(inp: dict, shared: dict, res: dict) -> List[str]:
    bad: List[str] = []
    for tag, triples, _, queries, rotation in inp["surfaces"]:
        if res[f"{tag}_surface"] is None or res[f"{tag}_arc"] is None:
            bad.append(f"{tag}: surface or arc missing")
        table = oracles.iet_table(ORBIT_N, triples)
        for j, (i, n) in enumerate(queries):
            if rotation is None:
                want = int(oracles.perm_power(table, n % oracles.cycle_length_of(table, i))[i])
            else:
                want = oracles.rotation_power(ORBIT_N, rotation, n, i)
            if res[f"{tag}_solve{j}"] != want:
                bad.append(f"{tag}: T^{n}({i}) = {res[f'{tag}_solve{j}']}, expected {want}")
    gap_mod, step = inp["gap"]
    gaps = oracles.cyclic_gaps(gap_mod, step, gap_mod)
    if res["gap_last"] != gaps:
        bad.append(f"three_gap_check gives {res['gap_last']}, sorting gives {gaps}")
    if not (isinstance(res["gap_max"], int) and len(gaps) <= res["gap_max"] <= 3):
        bad.append(f"three_gap_max_distinct gives {res['gap_max']}")
    table = oracles.gate_table(inp["iter_gates"], ITER_WIDTH)
    want = int(oracles.perm_power(table, inp["iter_n"])[inp["iter_x"]])
    if res["iterate_circuit"] is None or res["iterate_circuit"].value != want:
        bad.append("iterate_circuit differs from the gate-table power")
    table = oracles.gate_table(inp["plb_gates"], PLB_WIDTH)
    want = int(oracles.perm_power(table, inp["plb_passes"])[inp["plb_x"]])
    if res["iterate_plb"] != want:
        bad.append("compiled map iterate differs from the gate-table power")
    if res["circuit_to_plb"] is not None:
        t = res["circuit_to_plb"][0]
        image = oracles.plb_table(t.domain, [(p.lo, p.hi, p.mult, p.off) for p in t.pieces])
        xs = res["apply_xs"]
        if res["apply"] != [int(image[x]) for x in xs]:
            bad.append("apply_plb differs from the piece list")
        if res["apply_inverse"] != xs:
            bad.append("apply_plb_inverse does not undo apply_plb")
    cards, m, x = inp["riffle"]
    if res["riffle_iterate"] != oracles.riffle_power(cards, m, x):
        bad.append("riffle iterate differs from 2^n x")
    return bad


# ---------------------------------------------------------------------------
# dynamics: steppers run n steps forward and n back.

BBM_SIDES = (512, 1024)
BBM_STEPS = 10
HELICAL_SIDE, HELICAL_STEPS = 512, 10
RING_C, RING_P, RING_BLOCKS = 32, 512, 4
STROBE_RING, STROBE_STEPS = 32, 40
LEAF_K, LEAF_LENGTH = 12, 2048
CLOCK_WIDTH, CLOCK_N = 8, 6
GRAPH_SIZES = (12, 14)


def random_cubic(rng: random.Random, n: int):
    """A Hamiltonian cycle on shuffled labels plus a perfect matching that
    avoids its edges: cubic, connected, and Hamiltonian by construction."""
    while True:
        cycle = list(range(n))
        rng.shuffle(cycle)
        edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
        used = {frozenset(e) for e in edges}
        rest = cycle[:]
        rng.shuffle(rest)
        matching = [(rest[2 * i], rest[2 * i + 1]) for i in range(n // 2)]
        if all(frozenset(e) not in used for e in matching):
            return tuple(cycle), edges + matching


def path_family(ids):
    """Implicit path through the given vertex ids, ends first and last."""
    k = LEAF_K
    index = {v: i for i, v in enumerate(ids)}

    def neighbors(_, v):
        i = index.get(v.value)
        if i is None:
            return []
        out = []
        if i > 0:
            out.append(kernel.Bitstring(ids[i - 1], k))
        if i + 1 < len(ids):
            out.append(kernel.Bitstring(ids[i + 1], k))
        return out

    return graphs.ImplicitFamily(neighbors)


CLOCK_MAPS = ("increment", "add", "rotl")


def clock_map(name: str, c: int) -> kernel.Bijection:
    if name == "increment":
        return kernel.increment(CLOCK_WIDTH)
    if name == "add":
        return kernel.add_const(CLOCK_WIDTH, c)
    return kernel.rotate_left(CLOCK_WIDTH)


def clock_closed_form(name: str, c: int, n: int, x: int) -> int:
    mask = (1 << CLOCK_WIDTH) - 1
    if name == "increment":
        return (x + n) & mask
    if name == "add":
        return (x + n * c) & mask
    s = n % CLOCK_WIDTH
    return ((x << s) | (x >> (CLOCK_WIDTH - s))) & mask


def dynamics_generate(seed: int, rounds: int) -> dict:
    out = []
    for r in range(rounds):
        rng = round_rng("dynamics", seed, r)
        ids = rng.sample(range(1 << LEAF_K), LEAF_LENGTH)
        out.append({
            "grid_seed": rng.randrange(1 << 30),
            "density": rng.uniform(0.1, 0.4),
            "strobe": (rng.randint(3, 8), STROBE_STEPS),
            "leaf_ids": ids,
            "leaf_family": path_family(ids),
            "graphs": [random_cubic(rng, n) for n in GRAPH_SIZES],
            "clock": (rng.choice(CLOCK_MAPS), rng.randrange(1, 256), CLOCK_N,
                      rng.randrange(1 << CLOCK_WIDTH)),
        })
    return {"rounds": out, "rule": ca.bbm_rule(), "table": oracles.bbm_table(),
            "ring": ca.dim_redux_compile(ca.bbm_rule(), RING_C, RING_P)}


def dynamics_grids(inp: dict) -> None:
    """Expand the round's grids from their seed (kept out of set-up)."""
    g = np.random.default_rng(inp["grid_seed"])
    d = inp["density"]
    inp["bbm_cells"] = [(g.random((s, s)) < d).astype(np.uint8) for s in BBM_SIDES]
    inp["helical_cells"] = (g.random((HELICAL_SIDE, HELICAL_SIDE)) < d).astype(np.uint8)
    inp["ring_cells"] = (g.random((2 * RING_P // RING_C, RING_C)) < d).astype(np.uint8)


def _leaf_walk(family, ids) -> kernel.Bitstring:
    k = LEAF_K
    f = graphs.leaf_to_bijection(family, kernel.Bitstring(0, 1), k)
    state = kernel.Bitstring((ids[0] << k) | ids[1], 3 * k)
    return kernel.iterate_bijection(f, 1 << k, state)


def _strobe(t: int, n: int):
    auto = ca.toy_counter_strobe(t)
    cfg = auto.initial(STROBE_RING)
    trail = [cfg]
    for _ in range(n):
        cfg = auto.step(cfg)
        trail.append(cfg)
    for _ in range(n):
        cfg = auto.step_back(cfg)
    return trail, cfg


def _schedules(name: str, c: int, n: int, x: int):
    sched = reductions.compile_iteration_to_invertible(
        clock_map(name, c), n, kernel.Bitstring(x, CLOCK_WIDTH)
    )
    raw = reductions.Schedule(sched.g, sched.total_iterations, sched.start, lambda b: b)
    final = reductions.run_schedule(raw)
    back = reductions.run_schedule(
        reductions.Schedule(sched.g.inverse(), sched.total_iterations, final, lambda b: b)
    )
    return sched, final, back


def dynamics_round(inp: dict, shared: dict, ops: Ops) -> None:
    rule = shared["rule"]
    for j, cells in enumerate(inp["bbm_cells"]):
        g0 = ca.MargolusGrid(cells)
        g1 = ops(f"bbm{j}", ca.simulate_bbm, g0, BBM_STEPS, rule)
        ops(f"bbm{j}_back", ca.simulate_bbm, g1, -BBM_STEPS, rule)
    h0 = ca.MargolusGrid(inp["helical_cells"])
    h1 = ops("helical", ca.simulate_helical, h0, HELICAL_STEPS, rule)
    ops("helical_back", ca.simulate_helical, h1, -HELICAL_STEPS, rule)
    auto = shared["ring"]
    r0 = ca.MargolusGrid(inp["ring_cells"])
    cfg = ops("ring_embed", auto.embed, r0, 0)
    cfg1 = ops("ring", ca.simulate_1d, auto, cfg, RING_BLOCKS * auto.t)
    ops("ring_back", ca.simulate_1d, auto, cfg1, -RING_BLOCKS * auto.t)
    ops("ring_extract", auto.extract, cfg1, RING_BLOCKS)
    ops("ring_2d", ca.simulate_helical, r0, RING_BLOCKS, rule)
    ops("strobe", _strobe, *inp["strobe"])
    ids = inp["leaf_ids"]
    ops("leaf", _leaf_walk, inp["leaf_family"], ids,
        span="graphs.leaf_to_bijection", counts={"steps": 1 << LEAF_K})
    ops("leaf_direct", graphs.solve_leaf_walk,
        graphs.LeafInstance(inp["leaf_family"], kernel.Bitstring(0, 1),
                            kernel.Bitstring(ids[0], LEAF_K)),
        span="graphs.solve_leaf_walk", counts={"steps": len(ids) - 1})
    for j, (cycle, edges) in enumerate(inp["graphs"]):
        g = ops(f"graph{j}", graphs.cubic_graph, len(cycle), edges)
        ops(f"second{j}", graphs.second_hamiltonian, g, cycle, (cycle[0], cycle[1]))
        for e, edge in enumerate(edges):
            ops(f"count{j}_{e}", graphs.count_ham_cycles_through_edge, g, edge)
    ops("clock", _schedules, *inp["clock"])


def dynamics_check(inp: dict, shared: dict, res: dict) -> List[str]:
    bad: List[str] = []
    table = shared["table"]
    for j, cells in enumerate(inp["bbm_cells"]):
        fwd, back = res[f"bbm{j}"], res[f"bbm{j}_back"]
        want, phase = cells, 0
        for _ in range(BBM_STEPS):
            want = oracles.margolus_torus(want, phase, table)
            phase ^= 1
        if fwd is None or not np.array_equal(fwd.cells, want) or fwd.phase != phase:
            bad.append(f"bbm grid {j} differs from the toroidal Margolus step")
        elif fwd.live_count() != int(cells.sum()):
            bad.append(f"bbm grid {j} lost balls")
        if back is None or back.phase != 0 or not np.array_equal(back.cells, cells):
            bad.append(f"bbm grid {j} did not run back to its start")
    h0, h1, hb = inp["helical_cells"], res["helical"], res["helical_back"]
    if h1 is None or h1.live_count() != int(h0.sum()):
        bad.append("helical run lost balls")
    if hb is None or not np.array_equal(hb.cells, h0):
        bad.append("helical run did not run back to its start")
    want, phase = inp["ring_cells"], 0
    for _ in range(RING_BLOCKS):
        want = oracles.margolus_helical(want, phase, table)
        phase ^= 1
    ring2d, ring1d = res["ring_2d"], res["ring_extract"]
    if ring2d is None or not np.array_equal(ring2d.cells, want):
        bad.append("margolus_step_helical differs from the helical oracle")
    if ring1d is None or not np.array_equal(ring1d.cells, want):
        bad.append("1D ring does not replay the helical 2D automaton")
    if res["ring_back"] is None or res["ring_embed"] is None or \
            res["ring_back"].cells != res["ring_embed"].cells:
        bad.append("1D ring did not run back to its start")
    t, n = inp["strobe"]
    if res["strobe"] is None:
        bad.append("strobe missing")
    else:
        trail, back = res["strobe"]
        lit = [s for s, cfg in enumerate(trail) if all(c[1] == 0 for c in cfg.cells)]
        if lit != list(range(0, n + 1, t)):
            bad.append(f"strobe lit at {lit}, expected multiples of {t}")
        if back.cells != trail[0].cells:
            bad.append("strobe did not run back to its seed")
    ids = inp["leaf_ids"]
    leaf = res["leaf"]
    if leaf is None or (leaf.value >> LEAF_K) & ((1 << LEAF_K) - 1) != ids[-1]:
        bad.append("compiled leaf walk did not reach the far end")
    if res["leaf_direct"] is None or res["leaf_direct"].value != ids[-1]:
        bad.append("solve_leaf_walk did not reach the far end")
    for j, (cycle, edges) in enumerate(inp["graphs"]):
        n_v = len(cycle)
        other = res[f"second{j}"]
        if other is None or not oracles.is_ham_cycle(n_v, edges, other) \
                or oracles.same_cycle(other, cycle) \
                or {other[0], other[1]} != {cycle[0], cycle[1]}:
            bad.append(f"second cycle on graph {j} is not a new cycle through the edge")
        for e, edge in enumerate(edges):
            got = res[f"count{j}_{e}"]
            if got is None or got % 2 or got != oracles.ham_cycles_through(n_v, edges, edge):
                bad.append(f"cycle count {got} through {edge} on graph {j}")
    name, c, n, x = inp["clock"]
    if res["clock"] is None:
        bad.append("clocked schedule missing")
    else:
        sched, final, back = res["clock"]
        if sched.extract(final).value != clock_closed_form(name, c, n, x):
            bad.append(f"clocked {name} schedule misses the closed form")
        if back != sched.start:
            bad.append("clocked schedule did not run back to its start")
    return bad


def dynamics_traced_extra(shared: dict, inp: dict, tracer, original_step) -> None:
    """threads=2 stepping, measured only in traced runs."""
    cells = inp["bbm_cells"][-1]
    grid = ca.MargolusGrid(cells)
    with tracer.span("ca.margolus_step.threads2", cells=cells.size * BBM_STEPS):
        for _ in range(BBM_STEPS):
            grid = original_step(grid, shared["rule"], 2)


WORKLOADS = {
    "statespace": (statespace_generate, statespace_round, statespace_check),
    "orbit": (orbit_generate, orbit_round, orbit_check),
    "dynamics": (dynamics_generate, dynamics_round, dynamics_check),
}
