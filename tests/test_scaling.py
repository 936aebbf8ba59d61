"""Description-scaling contracts: counts of what the reductions, the
stock maps, circuits and the piecewise maps' powers call or build, across
widths, counts and domains whose state spaces run from 2 to 2**4096
states.  A count that grew with the state space fails here at once, and
counts are exact, or bounds in the size of the description, so host speed
cannot move them.  Each bound was fixed from a probe of the code it
judges, with its margin stated beside it.
"""

from dataclasses import replace
from itertools import pairwise

import pytest

import ibx.plb as plb
from ibx.circuits import ReversibleCircuit, gate, iterate_circuit
from ibx.graphs import leaf_to_bijection, random_path_instance, solve_leaf_walk
from ibx.iet import induction
from ibx.kernel import Bitstring, add_const, cat_map, iterate_bijection, pack_fields, rotate_left
from ibx.reductions import (
    OracleCircuit,
    OracleGate,
    compile_iteration_to_invertible,
    compile_oracle_circuit,
    eval_oracle_circuit,
    inversion_by_iteration,
    run_schedule,
)

from conftest import affine_plb, logged_run

N = 10**20


def _counted(f):
    """f with its forward, backward and leap each appending their name to
    the returned list when called."""
    calls = []

    def counting(fn, name):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return fn and call

    return replace(f, forward=counting(f.forward, "forward"), backward=counting(f.backward, "backward"),
                   leap=counting(f.leap, "leap")), calls


# Probe: a run of the whole schedule called f once (its leap), and runs of
# total - 5, total + 5 back, and random counts either way called it at most
# 5 times (the whole cycles, the stash, and the sweep's inverse lookups, the
# firing tick's among them); the bound allows 3 more.
CLOCK_RUN_CALLS = 8


@pytest.mark.parametrize("k", [2, 8, 64, 4096])
@pytest.mark.parametrize("make", [lambda k: add_const(k, 37), rotate_left], ids=["add", "rotl"])
def test_clock_calls_f_a_fixed_number_of_times_at_any_width(make, k, rng):
    f, calls = _counted(make(k))
    x = Bitstring(rng.getrandbits(k), k)
    s = compile_iteration_to_invertible(f, N, x)
    assert run_schedule(s) == iterate_bijection(make(k), N, x)
    assert calls == ["leap"]
    total = s.total_iterations
    for steps in (total - 5, -(total + 5), rng.randrange(total), -rng.randrange(total)):
        calls.clear()
        iterate_bijection(s.g, steps, s.start)
        assert len(calls) <= CLOCK_RUN_CALLS, (k, steps, calls)


@pytest.mark.parametrize("k", [8, 64, 4096])
def test_sweep_calls_f_once_at_any_width(k, rng):
    # probe: exactly 1 call (the adding tick's f(x)); no margin
    f, calls = _counted(add_const(k, 37))
    x = Bitstring(rng.getrandbits(k), k)
    assert run_schedule(inversion_by_iteration(f, x)).value == (x.value + 37) % (1 << k)
    assert calls == ["forward"]


@pytest.mark.parametrize("gates", [1, 2, 3, 5])
def test_oracle_clock_is_three_moves_a_gate_at_a_huge_count(gates):
    # probe: 4, 7, 10 and 16 moves for 1, 2, 3 and 5 chained gates, each
    # reading the count 10**20: per gate its copy tick, active run and idle
    # run, and one move for the spare slot; no margin
    w, cbits = 8, N.bit_length()
    count, s_wires, fresh, chain = tuple(range(cbits)), tuple(range(cbits, cbits + w)), cbits + w, []
    for _ in range(gates):
        t = tuple(range(fresh, fresh + w))
        chain.append(OracleGate(count, s_wires, t))
        s_wires, fresh = t, fresh + w
    oc = OracleCircuit(cbits + w, tuple(chain), s_wires)
    f = add_const(w, 37)
    x = Bitstring(pack_fields([(N, cbits), (5, w)]), cbits + w)
    s = compile_oracle_circuit(oc, f, x)
    final, moves = logged_run(s.g, s.total_iterations, s.start)
    assert s.extract(final) == eval_oracle_circuit(oc, f, x)
    assert len(moves) == 3 * gates + 1


BIG = 10**20 + 7


@pytest.mark.parametrize("make", [
    *(lambda k=k: add_const(k, 37) for k in (8, 64, 4096)),
    *(lambda k=k: rotate_left(k) for k in (8, 64, 4096)),
    *(lambda n=n: cat_map(n) for n in (5, 10**6 + 3, 10**12 + 39)),
], ids=lambda make: make().label)
def test_stock_maps_take_any_count_in_one_leap(make, rng):
    # probe: one call of the leap and none of forward or backward, either
    # way; no margin
    f, calls = _counted(make())
    x = Bitstring(rng.getrandbits(f.width), f.width)
    for n in (BIG, -BIG):
        calls.clear()
        y = iterate_bijection(f, n, x)
        assert calls == ["leap"], (n, calls)
        assert iterate_bijection(make(), -n, y) == x


def _piece_calls(monkeypatch):
    """A list that ``plb.apply_plb`` and ``apply_plb_inverse``, patched,
    append their name to when called."""
    calls = []
    for name in ("apply_plb", "apply_plb_inverse"):
        monkeypatch.setattr(plb, name, lambda *a, name=name: calls.append(name))
    return calls


@pytest.mark.parametrize("cards", [10**3, 10**6, 10**12])
def test_riffle_powers_apply_no_piece(cards, rng, monkeypatch):
    # probe: 0 calls of apply_plb or apply_plb_inverse, either way; a riffle
    # of an even deck is x -> 2x mod (N - 1), its last card fixed
    t = plb.riffle(cards)
    calls = _piece_calls(monkeypatch)
    x = rng.randrange(cards - 1)
    for n in (BIG, -BIG):
        assert plb.iterate_plb(t, n, x) == x * pow(2, n, cards - 1) % (cards - 1)
    assert calls == []


@pytest.mark.parametrize("k", [8, 64, 4096])
def test_circular_shift_powers_apply_no_piece(k, rng, monkeypatch):
    # probe: 0 calls of apply_plb or apply_plb_inverse, either way; a
    # circular shift of k bits is x -> 2x mod (2**k - 1), its top point fixed
    t, m = plb.circular_shift(k), (1 << k) - 1
    calls = _piece_calls(monkeypatch)
    x = rng.randrange(m)
    for n in (BIG, -BIG):
        assert plb.iterate_plb(t, n, x) == x * pow(2, n, m) % m
        assert plb.iterate_plb(t, n, m) == m
    assert calls == []


def _affine_closed_form(a, b, m, n, x):
    """x -> (a*x + b) mod m applied n times (its inverse -n times), by
    squaring the pair (a, b)."""
    if n < 0:
        a = pow(a, -1, m)
        b, n = -a * b % m, -n
    while n:
        if n & 1:
            x = (a * x + b) % m
        a, b, n = a * a % m, (a * b + b) % m, n >> 1
    return x


@pytest.mark.parametrize("a, b, m, domain", [(-3, 4, 11, 13), (-2, 7, 1001, 1003), (-101, 5, 10**4 + 1, 10**4 + 4)])
def test_negative_multiplier_affine_powers_apply_no_piece(a, b, m, domain, rng, monkeypatch):
    # probe: 0 calls of apply_plb or apply_plb_inverse, either way, on a
    # point of the body and one of the fixed tail; no margin
    t = affine_plb(a, b, m, domain)
    calls = _piece_calls(monkeypatch)
    x = rng.randrange(m)
    for n in (BIG, -BIG):
        assert plb.iterate_plb(t, n, x) == _affine_closed_form(a, b, m, n, x)
        assert plb.iterate_plb(t, n, domain - 1) == domain - 1
    assert calls == []


def _exchange(rng, n, k):
    """An exchange of k pieces on [0, n), its cuts drawn by ``randrange``,
    since ``random.sample`` of a range past 2**63 overflows."""
    cuts = set()
    while len(cuts) < k - 1:
        cuts.add(rng.randrange(1, n))
    segs = list(pairwise([0, *sorted(cuts), n]))
    rng.shuffle(segs)
    pieces, out = [], 0
    for lo, hi in segs:
        pieces.append((lo, hi, out - lo))
        out += hi - lo
    return plb.interval_exchange(n, pieces)


@pytest.mark.parametrize("k", [4, 16, 64])
@pytest.mark.parametrize("points", [10**3, 10**6, 10**12, 10**24])
def test_exchange_induction_grows_with_the_digits_of_n(k, points, rng):
    # probe: at most 1.29 k (digits + 1) ops, about 2100 at k = 64 and
    # N = 10**24; the bound allows 2 k (digits + 1)
    for _ in range(3):
        assert len(induction(_exchange(rng, points, k))) <= 2 * k * (len(str(points)) + 1)


@pytest.mark.parametrize("k", [8, 16, 32, 48, 62])
def test_leaf_compile_asks_each_vertex_once(k, rng):
    # probe: 64 oracle calls on a 64-vertex path (the start edge's two
    # vertices, then each vertex stepped onto) and two engine moves, the
    # walk of 63 steps onto the far leaf and the wait; no margin
    inst = random_path_instance(k, rng, length=64)
    ask, calls = inst.family.neighbors, []
    start = inst.start.value << k | ask(inst.instance, inst.start)[0].value

    def neighbors(g, v):
        calls.append(v)
        return ask(g, v)

    f = leaf_to_bijection(replace(inst.family, neighbors=neighbors), inst.instance, k)
    final, moves = logged_run(f, 1 << k, Bitstring(start, 3 * k))
    assert final.value >> k & (1 << k) - 1 == solve_leaf_walk(inst).value
    assert len(calls) == 64
    assert moves == [63, (1 << k) - 63]


@pytest.mark.parametrize("width", range(1, 13))
def test_circuit_powers_stop_within_two_orbit_lengths(width, rng, make_circuit, monkeypatch):
    # probe: at most 1.99 L calls of eval_int or eval_int_reversed at
    # ±(10**20 + 7), L the start's orbit length, over 5 random circuits of
    # up to 40 gates a width; the bound, 2 L, is the engine's for a
    # bijection, so no margin
    forward, calls = ReversibleCircuit.eval_int, []
    for name in ("eval_int", "eval_int_reversed"):
        evaluate = getattr(ReversibleCircuit, name)
        monkeypatch.setattr(ReversibleCircuit, name, lambda c, v, evaluate=evaluate: calls.append(v) or evaluate(c, v))
    for _ in range(5):
        c = make_circuit(rng, width, 40) if width > 1 else ReversibleCircuit(1, (gate("not", 0),) * rng.randint(0, 1))
        orbit = [rng.randrange(1 << width)]
        while (y := forward(c, orbit[-1])) != orbit[0]:
            orbit.append(y)
        for n in (BIG, -BIG):
            calls.clear()
            assert iterate_circuit(c, n, Bitstring(orbit[0], width)).value == orbit[n % len(orbit)]
            assert len(calls) < 2 * len(orbit), (width, n, len(orbit), len(calls))
