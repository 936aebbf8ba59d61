"""Bitstrings, bijection wrappers, iteration, the exhaustive checker and
the cycle reader."""

import copy
import pickle
import random
import tracemalloc
from array import array
from dataclasses import replace
from functools import partial
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibx import kernel
from ibx.ca import MargolusGrid, bbm_rule, dim_redux_compile, simulate_1d
from ibx.circuits import ClassicalGate, parity
from ibx.graphs import leaf_to_bijection, random_path_instance
from ibx.kernel import (
    STATE_CHUNK,
    Bijection,
    BijectionCheck,
    Bitstring,
    WidthMismatchError,
    add_const,
    builtin_bijections,
    cat_map,
    cat_pack,
    cat_unpack,
    check_bijection_exhaustive,
    cycle_lengths,
    from_permutation,
    identity,
    images,
    increment,
    inverse_table,
    iterate,
    iterate_bijection,
    iterate_map,
    pack_fields,
    power_leap,
    rotate_left,
    unpack_fields,
)
from ibx.plb import (
    Piece,
    PiecewiseLinearBijection,
    affine_form,
    apply_plb,
    apply_plb_inverse,
    interval_exchange,
    iterate_plb,
    permutation_order,
    power_path,
    riffle,
)
from ibx.reductions import (
    ClockedState,
    OracleCircuit,
    OracleGate,
    Schedule,
    compile_iteration_to_invertible,
    compile_oracle_circuit,
    inversion_by_iteration,
    run_schedule,
)

from conftest import (
    affine_plb,
    assert_leaps_are_walks,
    logged,
    random_pieces,
    random_reversible_circuit,
    ring_family,
)


def test_text_is_msb_first():
    b = Bitstring.from_text("110")
    assert (b.value, b.width) == (6, 3)
    assert b.to_text() == "110"


def test_bit_zero_is_least_significant():
    b = Bitstring(0b110, 3)
    assert b.bit(0) == 0
    assert b.bit(1) == 1
    assert b.bit(2) == 1
    assert b.bits == (0, 1, 1)


def test_value_must_fit_width():
    with pytest.raises(ValueError):
        Bitstring(8, 3)
    with pytest.raises(ValueError):
        Bitstring(-1, 3)


def test_bitstring_is_immutable_hashable_and_copyable():
    b = Bitstring(5, 3)
    with pytest.raises(AttributeError):
        b.value = 4
    with pytest.raises(AttributeError):
        b.extra = 1
    with pytest.raises(AttributeError):
        del b.width
    assert (b.value, b.width) == (5, 3)
    assert b == Bitstring(5, 3) and hash(b) == hash(Bitstring(5, 3))
    assert b != Bitstring(5, 4) and b != (5, 3) and len({b, Bitstring(5, 3)}) == 1
    assert repr(b) == "Bitstring('101')"
    for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert twin == b and type(twin) is Bitstring
    with pytest.raises(ValueError, match="width must be nonnegative, got -1"):
        Bitstring(0, -1)
    with pytest.raises(ValueError, match="value 8 out of range for width 3"):
        Bitstring(8, 3)


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))
))
def test_text_round_trip(wv):
    w, v = wv
    b = Bitstring(v, w)
    assert Bitstring.from_text(b.to_text()) == b


@given(st.lists(st.tuples(st.integers(0, 7), st.just(3)), max_size=6))
def test_pack_unpack_round_trip(fields):
    packed = pack_fields(fields)
    assert unpack_fields(packed, [w for _, w in fields]) == tuple(
        v for v, _ in fields
    )


def test_pack_is_msb_first():
    # (1, 2 bits) then (1, 1 bit) reads as the numeral 011.
    assert pack_fields([(1, 2), (1, 1)]) == 3
    assert pack_fields([(2, 2), (0, 1)]) == 4


def test_iterate_identity_large_n():
    x = Bitstring.from_text("0110")
    assert iterate_bijection(identity(4), 10**6, x) == x


def test_iterate_increment():
    # 6 + 3 mod 8 = 1.
    out = iterate_bijection(increment(3), 3, Bitstring.from_text("110"))
    assert out.to_text() == "001"


def test_iterate_zero_is_identity():
    f = cat_map(8)
    for v in range(1 << f.width):
        x = Bitstring(v, f.width)
        assert iterate_bijection(f, 0, x) == x


def test_iterate_width_mismatch():
    with pytest.raises(WidthMismatchError):
        iterate_bijection(identity(3), 1, Bitstring(0, 4))


def test_reference_loop_runs_backward_for_a_negative_count(rng):
    f = from_permutation(rng.sample(range(32), 32), 5)
    for v in range(32):
        x = Bitstring(v, 5)
        for n in range(1, 40):
            want = x
            for _ in range(n):
                want = f.apply_inverse(want)
            assert iterate(f, -n, x) == iterate(f.inverse(), n, x) == want
    with pytest.raises(ValueError, match="backward"):
        iterate(Bijection(5, f.forward), -1, Bitstring(0, 5))
    assert iterate(Bijection(5, f.forward), 0, Bitstring(3, 5)) == Bitstring(3, 5)
    with pytest.raises(WidthMismatchError):
        iterate(f, 1, Bitstring(0, 4))
    with pytest.raises(WidthMismatchError):
        iterate(f, -1, Bitstring(0, 6))


def _cycle_length(f, x):
    y, length = f.forward(x.value), 1
    while y != x.value:
        y, length = f.forward(y), length + 1
    return length


def test_engine_matches_literal_loop_on_random_tables(rng):
    for _ in range(40):
        w = rng.randint(0, 6)
        table = list(range(1 << w))
        rng.shuffle(table)
        f = from_permutation(table, w)
        x = Bitstring(rng.randrange(1 << w), w)
        for n in [rng.randint(-3 << w, 3 << w) for _ in range(12)]:
            want = iterate(f, n, x)
            assert iterate_bijection(f, n, x) == want, (table, n, x)


def test_engine_huge_n_reduces_by_the_return_time(rng):
    for _ in range(20):
        w = rng.randint(1, 6)
        table = list(range(1 << w))
        rng.shuffle(table)
        f = from_permutation(table, w)
        x = Bitstring(rng.randrange(1 << w), w)
        n = 10**20
        want = iterate(f, n % _cycle_length(f, x), x)
        assert iterate_bijection(f, n, x) == want
        back = iterate(f.inverse(), n % _cycle_length(f, x), x)
        assert iterate_bijection(f, -n, x) == back


def _budgeted(table):
    """table's lookup as a step that fails after 10 * len(table) calls: an
    engine that misses an orbit's return fails fast instead of hanging."""
    calls = [0]

    def step(y):
        calls[0] += 1
        assert calls[0] <= 10 * len(table), "the engine walks on past the orbit"
        return table[y]

    return step


def test_engine_counts_exactly_on_maps_that_are_not_bijections():
    # 0 -> 1 -> 2 -> 3 -> 2: x = 0 never returns, so every step is taken
    step = [1, 2, 3, 2].__getitem__
    assert [iterate_map(step, n, 0) for n in range(6)] == [0, 1, 2, 3, 2, 3]
    assert iterate_map(step, 10**6 + 1, 2) == 3
    assert iterate_map(_budgeted([1, 2, 3, 2]), 10**20, 0) == 2


def test_engine_finds_cycles_of_orbits_that_never_return(rng):
    # x on a tail of mu steps into a cycle of lambda: only the mark can see
    # the orbit close, and n >= mu lands at index mu + (n - mu) mod lambda
    for _ in range(60):
        m = rng.randint(2, 24)
        table = [rng.randrange(m) for _ in range(m)]
        if sorted(table) == list(range(m)):
            continue
        for x in range(m):
            walk, index = [x], {x: 0}
            while table[walk[-1]] not in index:
                index[table[walk[-1]]] = len(walk)
                walk.append(table[walk[-1]])
            mu = index[table[walk[-1]]]
            lam = len(walk) - mu
            for n in [*range(3 * (mu + lam) + 1), *(10**20 + r for r in range(3))]:
                want = walk[n] if n < mu else walk[mu + (n - mu) % lam]
                assert iterate_map(_budgeted(table), n, x) == want, (table, x, n)


def _tick_leap(size, window):
    """The leap of x -> x +- 1 mod size: forward up to the last state of
    x's window of states, backward down to its first, at most the |r| steps
    left; None where no step is left in the window."""
    def leap(y, r):
        j = min(abs(r), min(y // window * window + window, size) - 1 - y if r > 0 else y % window)
        return (y + j if r > 0 else y - j, j) if j else None

    return leap


def test_engine_leaps_equal_the_literal_loop():
    w = 6
    plain = increment(w)
    f = Bijection(w, plain.forward, plain.backward, leap=_tick_leap(1 << w, 8))
    for x in map(Bitstring, range(1 << w), [w] * (1 << w)):
        for n in range(-80, 81):
            want = iterate(f, n, x)
            assert iterate_bijection(f, n, x) == want, (x, n)
        for n in (10**20 + 3, -(10**20) - 3):
            assert iterate_bijection(f, n, x).value == (x.value + n) % (1 << w)


def test_engine_finds_returns_that_leaps_jump_over():
    # from x = 5 every later move leaps over 5, so only the moving mark
    # sees the orbit close; a huge n must still cost about one orbit
    size = 1 << 12
    calls = []
    leap = _tick_leap(size, 64)

    def counted(y, remaining):
        calls.append(y)
        assert len(calls) < 1000, "the engine walks on past the orbit"
        return leap(y, remaining)

    step = lambda y: (y + 1) % size  # noqa: E731
    assert iterate_map(step, 10**30, 5, leap=counted) == (5 + 10**30) % size


def test_engine_rejects_a_leap_outside_its_contract():
    for j in (0, 5):
        with pytest.raises(ValueError, match="leap of"):
            iterate_map(lambda y: y + 1, 4, 0, leap=lambda y, r: (y + j, j))


def test_the_inverse_leaps_with_the_count_negated():
    s = compile_iteration_to_invertible(add_const(3, 5), 4, Bitstring(6, 3))
    idle = [s.codec.encode(ClockedState(c1, 0, (a, 0, 0))) for c1 in range(5) for a in range(8)]
    for f, states in ((add_const(5, 11), range(32)), (rotate_left(7), range(128)), (s.g, idle)):
        g = f.inverse()
        for y in states:
            for r in (1, 2, 7, 11, 40, 10**20):
                assert g.leap(y, r) == f.leap(y, -r) and g.leap(y, -r) == f.leap(y, r), (f.label, y, r)
                assert g.inverse().leap(y, r) == f.leap(y, r)


def test_backward_runs_leap_as_forward_runs_do():
    # a dropped leap would change no answer, only the number of moves
    s = compile_iteration_to_invertible(add_const(8, 37), 10**20 + 7, Bitstring(0b10110101, 8))
    final = run_schedule(Schedule(s.g, s.total_iterations, s.start, lambda b: b))
    g, moves = s.g.inverse(), []
    step, back, leap = logged(moves, g.forward, g.backward, g.leap)
    back_run = Schedule(replace(g, forward=step, backward=back, leap=leap), s.total_iterations, final, lambda b: b)
    assert run_schedule(back_run) == s.start
    assert moves == ["leap"]
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    cells = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0]], np.uint8)
    cfg = auto.embed(MargolusGrid(cells, 0), 0)
    runs = {}
    for n in (20 * auto.t, -20 * auto.t):
        moves = []
        step, back, leap = logged(moves, auto.step, auto.step_back, auto.leap)
        out = simulate_1d(SimpleNamespace(step=step, step_back=back, leap=leap), cfg, n)
        assert out == simulate_1d(auto, cfg, n)
        runs[n > 0] = moves
    assert runs[False] == runs[True] and set(runs[True]) == {"leap"}


def test_engine_negative_n_needs_a_backward_map():
    f = Bijection(3, lambda v: (v + 1) % 8, None, "forward-only")
    assert iterate_bijection(f, 10**20, Bitstring(5, 3)) == Bitstring((5 + 10**20) % 8, 3)
    with pytest.raises(ValueError):
        iterate_bijection(f, -1, Bitstring(5, 3))


# One row per map family that declares leaps.  Each takes a Random and
# returns (literal step, the family's power entry point, a start state,
# the family's leap, literal backward step), the start placed on an orbit
# the leaps cross.


def _walked(step, x, n):
    for _ in range(n):
        x = step(x)
    return x


def _bijection_row(f, x):
    return f.forward, lambda n, v: iterate_bijection(f, n, Bitstring(v, f.width)).value, x, f.leap, f.backward


def _windowed_counter(r):
    w = r.randint(1, 7)
    plain = increment(w)
    f = Bijection(w, plain.forward, plain.backward, leap=_tick_leap(1 << w, r.randint(1, 9)))
    return _bijection_row(f, r.randrange(1 << w))


def _leaf_walk(r):
    k = r.randint(2, 4)
    inst = random_path_instance(k, r)
    f = leaf_to_bijection(inst.family, inst.instance, k)
    near = inst.family.neighbors(inst.instance, inst.start)[0]
    x = inst.start.value << k | near.value  # (0, leaf, its neighbor): the walk starts
    return _bijection_row(f, _walked(f.forward, x, r.randrange(4 << k)))


def _leaf_ring(r):
    # a ring through every vertex: no leaf, so a walker stops only on
    # coming back to its start edge
    k = r.randint(2, 4)
    ids = r.sample(range(1 << k), 1 << k)
    f = leaf_to_bijection(ring_family(ids, k), Bitstring(0, 1), k)
    return _bijection_row(f, _walked(f.forward, ids[0] << k | ids[1], r.randrange(1 << k)))


def _dim_redux_ring(r):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    cells = np.array([[r.randint(0, 1) for _ in range(4)] for _ in range(4)], np.uint8)
    lit = auto.embed(MargolusGrid(cells, 0), 0)
    start = _walked(auto.step, lit, r.randrange(2 * auto.t))
    return auto.step, lambda n, cfg: simulate_1d(auto, cfg, n), start, auto.leap, auto.step_back


def _clock(r):
    # f a forward-only table, run on its table, or a map that declares its
    # own backward and leap, run on them
    k = r.randint(1, 3)
    f = r.choice([Bijection(k, r.sample(range(1 << k), 1 << k).__getitem__, None, "forward-only"),
                  add_const(k, r.randrange(1 << k))])
    s = compile_iteration_to_invertible(f, r.randint(0, 4), Bitstring(r.randrange(1 << k), k))
    return _bijection_row(s.g, _walked(s.g.forward, s.start.value, r.randrange(3 << k)))


def _sweep(r):
    # any f, a permutation or not, and any target: only f(target) is asked
    k = r.randint(1, 4)
    f = Bijection(k, [r.randrange(1 << k) for _ in range(1 << k)].__getitem__, None, "table")
    s = inversion_by_iteration(f, Bitstring(r.randrange(1 << k), k))
    return _bijection_row(s.g, r.randrange(1 << s.g.width))


def _oracle_clock(r):
    # an oracle gate, then maybe a boolean gate and a second oracle gate, on
    # a map with a power of its own or a table with or without its inverse;
    # the start is any state, off-contract counters included
    k, c = r.randint(1, 2), r.randint(1, 2)
    table = r.sample(range(1 << k), 1 << k)
    back = [table.index(v) for v in range(1 << k)]
    g = r.choice([add_const(k, r.randrange(1 << k)), Bijection(k, table.__getitem__, back.__getitem__),
                  Bijection(k, table.__getitem__, None, "forward-only")])
    t = tuple(range(c + k, c + 2 * k))
    gates, fresh = [OracleGate(tuple(range(c)), tuple(range(c, c + k)), t)], c + 2 * k
    if r.random() < 0.5:
        gates.append(ClassicalGate("xor", fresh, (0, fresh - 1)))
        fresh += 1
    if r.random() < 0.5:
        gates.append(OracleGate((c - 1,), t, tuple(range(fresh, fresh + k))))
    oc = OracleCircuit(c + k, tuple(gates), gates[-1].writes)
    s = compile_oracle_circuit(oc, g, Bitstring(r.randrange(1 << oc.inputs), oc.inputs))
    return _bijection_row(s.g, r.randrange(1 << s.g.width))


def _closed_form_row(f, x, step, back):
    # f's power and leap, judged against a step and step back written here:
    # f's own are its leap of 1 and -1
    _, power, x, leap, _ = _bijection_row(f, x)
    return step, power, x, leap, back


def _add_forms(w, c):
    mask = (1 << w) - 1
    return (lambda v: (v + c) & mask), (lambda v: (v - c) & mask)


def _rotl_forms(w):
    mask = (1 << w) - 1
    return (lambda v: (v << 1 | v >> w - 1) & mask), (lambda v: v >> 1 | (v & 1) << w - 1)


def _cat_forms(n):
    # (2x + y, x + y) forward and (x - y, 2y - x) back, mod n; a pair with a
    # coordinate at or above n is fixed
    half = max(n - 1, 0).bit_length()

    def matrix(a, b, c, d):
        def move(v):
            x, y = v >> half, v & (1 << half) - 1
            return v if x >= n or y >= n else (a * x + b * y) % n << half | (c * x + d * y) % n

        return move

    return matrix(2, 1, 1, 1), matrix(1, -1, -1, 2)


def _add_const(r):
    # increment, or any constant, negative and wider than the map included
    w = r.randint(1, 9)
    c = r.randrange(-(2 << w), 2 << w)
    f, c = r.choice([(increment(w), 1), (add_const(w, c), c)])
    return _closed_form_row(f, r.randrange(1 << w), *_add_forms(w, c))


def _rotate_left(r):
    w = r.randint(1, 9)
    return _closed_form_row(rotate_left(w), r.randrange(1 << w), *_rotl_forms(w))


def _cat(r):
    # any modulus, the pairs with a coordinate at or above it included
    n = r.randint(1, 40)
    f = cat_map(n)
    return _closed_form_row(f, r.randrange(1 << f.width), *_cat_forms(n))


def _plb_row(t, x):
    leap = power_leap(power_path(t)[0])
    return partial(apply_plb, t), partial(iterate_plb, t), x, leap, partial(apply_plb_inverse, t)


def _exchange(r):
    # a certified exchange of k <= 6 pieces on N <= 300 points
    k = r.randint(1, 6)
    n = r.randint(max(k, 2), 300)
    t = interval_exchange(n, random_pieces(r, n, k))
    return _plb_row(t, r.randrange(n))


def _affine(r):
    # a riffle, or x -> (a*x + b) mod M with a < 0 and [M, N) fixed; a draw
    # that affine_form does not read would walk, so it is drawn again
    t = riffle(r.randint(2, 300)) if r.random() < 0.5 else None
    while t is None or affine_form(t) is None:
        m = r.randint(2, 60)
        a = r.choice([v for v in range(-2 * m - 3, 0) if gcd(v, m) == 1])
        t = affine_plb(a, r.randint(-3 * m, 3 * m), m, m + r.randint(1, 4))
    return _plb_row(t, r.randrange(t.domain))


def _orbit(step, x):
    orbit = [x]
    while (y := step(orbit[-1])) != x:
        orbit.append(y)
    return orbit


PACKAGE_LEAPS = [_leaf_walk, _leaf_ring, _dim_redux_ring, _clock, _sweep, _oracle_clock, _add_const,
                 _rotate_left, _cat, _exchange, _affine]


def _family_id(family):
    return family.__name__.strip("_")


@pytest.mark.parametrize("family", [_windowed_counter, *PACKAGE_LEAPS], ids=_family_id)
@settings(max_examples=20, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_every_leap_equals_the_literal_loop(family, r):
    # n in {0, +-1, +-L, +-(L + 1), +-(10**20 + 7)}, L the start's return time
    step, power, x, _, _ = family(r)
    orbit = _orbit(step, x)
    period = len(orbit)
    for n in (0, 1, period, period + 1, 10**20 + 7):
        for signed in (n, -n):
            assert power(signed, x) == orbit[signed % period], signed


@pytest.mark.parametrize("family", PACKAGE_LEAPS, ids=_family_id)
@settings(max_examples=20, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_every_leap_is_a_run_of_literal_steps(family, r):
    # from every state of the start's orbit, with steps left of either sign;
    # only a fixed point may take no leap in some direction
    step, _, x, leap, back = family(r)
    orbit = _orbit(step, x)
    signs = set()
    for v in orbit:
        signs |= assert_leaps_are_walks(leap, step, back, v, (1, 2, 3, 5, 12, 40))
    assert signs == {1, -1} or len(orbit) == 1, signs


def test_check_identity():
    assert check_bijection_exhaustive(identity(4)).ok


def test_check_constant_map_yields_collision_witness():
    f = Bijection(2, lambda v: 0, None, "zero")
    report = check_bijection_exhaustive(f)
    assert not report.ok
    a, b = report.witness
    assert a != b
    assert f.forward(a.value) == f.forward(b.value)


def test_check_reads_a_scalar_map_only_up_to_its_failure():
    calls = []
    f = Bijection(20, lambda v: calls.append(v) or v // 2, None, "halve")
    report = check_bijection_exhaustive(f)
    assert report == BijectionCheck(False, (Bitstring(0, 20), Bitstring(1, 20)), "collision")
    assert calls == [0, 1]


def test_check_riffle_wrapped_as_bijection():
    t = riffle(16)
    f = Bijection(4, lambda v: apply_plb(t, v), None, "riffle16")
    assert check_bijection_exhaustive(f).ok


def test_check_rejects_wide_inputs():
    f = Bijection(21, lambda b: b, lambda b: b, "wide")
    with pytest.raises(ValueError):
        check_bijection_exhaustive(f)


def test_check_catches_broken_backward():
    f = Bijection(2, increment(2).forward, increment(2).forward, "bad-inverse")
    report = check_bijection_exhaustive(f)
    assert not report.ok
    assert "inverse" in report.reason


@pytest.mark.parametrize("shift", [4, -1])
def test_check_backward_escape_is_an_inverse_failure(shift):
    """A backward value outside [0, 2**width) is reported, not raised, with
    the witness (x, x), by the check and by the reference walk."""
    want = BijectionCheck(False, (Bitstring(0, 2), Bitstring(0, 2)), "inverse")
    f = Bijection(2, lambda v: v, lambda v: v + shift, "escape-back")
    assert check_bijection_exhaustive(f) == reference_walk(f) == want


def test_check_images_beyond_int64_are_failures():
    """A map without ``sliced`` evaluators may return any int: a huge
    image is reported as an escape, and a huge backward value as an
    inverse failure, not raised."""
    f = Bijection(3, lambda v: v if v < 5 else 1 << 70, lambda v: v, "huge")
    want = BijectionCheck(False, (Bitstring(5, 3), Bitstring(5, 3)), "escape")
    assert check_bijection_exhaustive(f) == reference_walk(f) == want
    g = Bijection(3, lambda v: v, lambda v: v if v < 5 else -(1 << 70), "huge-back")
    want = BijectionCheck(False, (Bitstring(5, 3), Bitstring(5, 3)), "inverse")
    assert check_bijection_exhaustive(g) == reference_walk(g) == want


def test_images_are_lazy_and_keep_values_beyond_int64_exactly():
    calls = []
    f = Bijection(3, lambda v: calls.append(v) or (v if v < 5 else (-1) ** v << 70))
    ys = images(f)
    assert calls == [] and iter(ys) is ys
    assert next(ys) == 0 and calls == [0]
    assert list(ys) == [1, 2, 3, 4, -(1 << 70), 1 << 70, -(1 << 70)]
    with pytest.raises(ValueError):
        images(Bijection(21, f.forward))


def reference_walk(f):
    """The exhaustive check as a plain scalar walk over every input, which
    stops at the first failure: the reference the check must match."""
    size = 1 << f.width
    seen = {}
    for x in range(size):
        y = f.forward(x)
        if not 0 <= y < size:
            return BijectionCheck(False, (Bitstring(x, f.width), Bitstring(x, f.width)), "escape")
        if y in seen:
            return BijectionCheck(
                False, (Bitstring(seen[y], f.width), Bitstring(x, f.width)), "collision"
            )
        seen[y] = x
        if f.backward is not None:
            back = f.backward(y)
            if back != x:
                if not 0 <= back < size:
                    back = x
                return BijectionCheck(
                    False, (Bitstring(x, f.width), Bitstring(back, f.width)), "inverse"
                )
    return BijectionCheck(True)


def _both_checks(f):
    """check_bijection_exhaustive on a sliced map, and the reference walk
    on the same map without its sliced evaluators, whose own check (one
    Python pass) must agree with the walk."""
    scalar = replace(f, sliced=None)
    assert f.sliced
    slow = reference_walk(scalar)
    assert check_bijection_exhaustive(scalar) == slow
    return check_bijection_exhaustive(f), slow


def sliced_table_map(width, fwd, back=None):
    """The map reading the tables fwd and back, one state at a time, and
    as sliced evaluators that turn each chunk of wires back into states,
    look them up and slice the images again.  The tables hold w-bit
    values only: w output wires cannot carry an escape."""

    def sliced(table):
        def run(wires, ones):
            states = [sum((w >> j & 1) << i for i, w in enumerate(reversed(wires)))
                      for j in range(ones.bit_length())]
            ys = [table[x] for x in states]
            return [sum((y >> i & 1) << j for j, y in enumerate(ys)) for i in reversed(range(width))]

        return run

    return Bijection(width, fwd.__getitem__, back and back.__getitem__, "table",
                     sliced=(sliced(fwd), sliced(back)))


def _faulty_tables(rng, width, faults, kinds=("collision", "backward", "escape")):
    """A random permutation table and its inverse, with ``faults`` planted
    faults of ``kinds``: a collision, a wrong backward entry, or an escape
    to -1 or to 2**width and above."""
    size = 1 << width
    fwd = list(range(size))
    rng.shuffle(fwd)
    back = [0] * size
    for x, y in enumerate(fwd):
        back[y] = x
    for _ in range(faults):
        kind = rng.choice(kinds)
        if kind == "escape":
            fwd[rng.randrange(size)] = rng.choice([-1, size + rng.randrange(size)])
        elif size > 1 and kind == "collision":
            i, j = rng.sample(range(size), 2)
            fwd[j] = fwd[i]
        elif size > 1:
            k = rng.randrange(size)
            back[k] = (back[k] + rng.randrange(1, size)) % size
    return fwd, back


def test_array_check_matches_scalar_walk_on_circuits(rng):
    for width in range(11):
        for _ in range(4):
            c = random_reversible_circuit(rng, width, 30 if width > 1 else 0, min_gates=0)
            for f in (c.as_bijection(), c.as_bijection().inverse()):
                fast, slow = _both_checks(f)
                assert fast == slow
                assert fast.ok, (width, c)


def test_array_check_matches_scalar_walk_on_faulty_tables(rng):
    """Sliced maps on tables with collisions and wrong backward entries,
    and Python-pass maps on tables that may escape too, both checked
    against the reference walk."""
    sliced, python = set(), set()
    for width in range(8):
        for faults in range(4):
            for _ in range(12):
                fwd, back = _faulty_tables(rng, width, faults, ("collision", "backward"))
                for backward in (back, None):
                    fast, slow = _both_checks(sliced_table_map(width, fwd, backward))
                    assert fast == slow, (fwd, back, backward)
                    sliced.add(fast.reason)
                fwd, back = _faulty_tables(rng, width, faults)
                for backward in (back.__getitem__, None):
                    f = Bijection(width, fwd.__getitem__, backward, "table")
                    check = check_bijection_exhaustive(f)
                    assert check == reference_walk(f), (fwd, back, backward)
                    python.add(check.reason)
    assert sliced == {"", "collision", "inverse"}
    assert python == {"", "escape", "collision", "inverse"}


def test_sliced_field_edges(monkeypatch):
    add1 = sliced_table_map(3, [(v + 1) & 7 for v in range(8)], [(v - 1) & 7 for v in range(8)])
    assert add1.inverse().sliced == add1.sliced[::-1]
    assert increment(3).inverse().sliced is None
    assert list(images(add1.inverse())) == [(v - 1) & 7 for v in range(8)]
    assert check_bijection_exhaustive(add1.inverse()).ok

    def never(*args, **kwargs):
        raise AssertionError("evaluated a map wider than the cap")

    monkeypatch.setattr(kernel, "state_slices", never)
    with pytest.raises(ValueError):
        check_bijection_exhaustive(Bijection(21, never, never, "wide", sliced=(never, never)))
    monkeypatch.undo()
    empty = sliced_table_map(0, [0], [0])
    assert all(chk.ok for chk in _both_checks(empty))
    assert list(images(empty)) == [0]


def test_cat_map_origin_fixed():
    f = cat_map(5)
    origin = cat_pack(5, 0, 0)
    assert f.apply(origin) == origin


def test_cat_map_matches_matrix_and_fixes_out_of_domain():
    f = cat_map(5)
    for v in range(1 << f.width):
        x = Bitstring(v, f.width)
        a, b = cat_unpack(5, x)
        y = f.apply(x)
        if a < 5 and b < 5:
            assert cat_unpack(5, y) == ((2 * a + b) % 5, (a + b) % 5)
        else:
            assert y == x


def test_cat_map_inverse_exhaustive():
    assert check_bijection_exhaustive(cat_map(5)).ok
    assert check_bijection_exhaustive(cat_map(8)).ok


def test_add_const_wraps():
    f = add_const(3, 5)
    assert f.forward(6) == 3
    assert f.backward(3) == 6


def test_add_const_takes_constants_past_the_decimal_digit_limit():
    # 2**20000 - 1 has 6021 decimal digits, over Python's default limit of
    # 4300 for int-to-text conversion, so the label must not print it
    f = add_const(20000, 2**20000 - 1)
    x = Bitstring(12345, 20000)
    want = x.value
    for _ in range(3):
        want = f.forward(want)
    assert want == x.value - 3
    assert iterate_bijection(f, 3, x).value == want


def test_rotate_left_moves_msb_down():
    f = rotate_left(4)
    assert f.apply(Bitstring.from_text("1000")).to_text() == "0001"
    assert f.apply(Bitstring.from_text("0110")).to_text() == "1100"


def test_rotation_order_equals_width():
    f = rotate_left(5)
    for v in range(32):
        x = Bitstring(v, 5)
        assert iterate_bijection(f, 5, x) == x


def test_stock_maps_leap_whole_powers_at_any_width():
    # the sums' orbits are 2**256 steps long, so only their power leap
    # answers; the rotation leaps at the same n
    n = 10**40 + 7
    x = Bitstring(2**255 + 12345, 256)
    for f, want in (
        (add_const(256, 3), (x.value + 3 * n) % 2**256),
        (increment(256), (x.value + n) % 2**256),
        (rotate_left(256), (x.value << n % 256 | x.value >> 256 - n % 256) % 2**256),
    ):
        assert iterate_bijection(f, n, x).value == want, f.label
        assert iterate_bijection(f, -n, Bitstring(want, 256)) == x, f.label
        assert iterate_bijection(f.inverse(), n, Bitstring(want, 256)) == x, f.label


def test_power_is_square_and_multiply():
    # n of b bits, p of them set: exactly b - 1 squarings and p - 1
    # products, none with the identity, which only n = 0 returns
    one, m, calls = object(), 10**9 + 7, []

    def times(a, b):
        assert a is not one and b is not one
        calls.append(1)
        return a * b % m

    for n in [*range(70), 10**20 + 7]:
        calls.clear()
        got = kernel.power(times, one, 3, n)
        assert got is one if n == 0 else got == pow(3, n, m)
        assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0), n


def test_stock_maps_step_by_their_closed_forms():
    # every state, at widths up to 9 and cat moduli up to 40
    cases = [(add_const(w, c), _add_forms(w, c)) for w in range(1, 10) for c in (1, 37, -5, 3 << w)]
    cases += [(rotate_left(w), _rotl_forms(w)) for w in range(1, 10)]
    cases += [(cat_map(n), _cat_forms(n)) for n in range(1, 41)]
    for f, (step, back) in cases:
        for v in range(1 << f.width):
            assert (f.forward(v), f.backward(v)) == (step(v), back(v)), (f.label, v)


def test_cat_map_leaps_at_a_wide_modulus():
    # an 80-bit torus, whose orbits the walk would never finish: the leap
    # runs back to its start, and splits as f^(n+1) = f o f^n = f^n o f
    f, n = cat_map(10**12 + 39), 10**20 + 7
    x = cat_pack(10**12 + 39, 12345, 10**12 + 38)
    y = iterate_bijection(f, n, x)
    assert iterate_bijection(f, -n, y) == x
    assert iterate_bijection(f, n + 1, x) == f.apply(y) == iterate_bijection(f, n, f.apply(x))
    assert iterate_bijection(f, 2 * n, x) == iterate_bijection(f, n, y)


def test_from_permutation_swap():
    f = from_permutation([1, 0, 2, 3], 2)
    assert f.forward(0) == 1
    assert f.backward(0) == 1
    assert check_bijection_exhaustive(f).ok
    g = from_permutation((v ^ 1 for v in range(4)), 2)
    assert [g.forward(v) for v in range(4)] == [1, 0, 3, 2] and g.backward(3) == 2


def test_from_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        from_permutation([0, 0, 2, 3], 2)


def test_builtins_are_bijective():
    fs = builtin_bijections()
    assert len({f.label for f in fs}) == len(fs)
    for f in fs:
        if f.width <= 10:
            assert check_bijection_exhaustive(f).ok, f.label


@pytest.mark.parametrize("fault", ["escape", "collision", "inverse"])
def test_chunked_table_matches_the_python_pass_past_the_first_chunk(rng, fault):
    """A fault planted in a later chunk of a 13-bit map gives the same
    result with sliced evaluators, whose round trip fails and leaves the
    check to the pass over the scalar images, as without them.  An
    escape has no sliced form, so it is checked on the scalar map alone."""
    width = 13
    size = 1 << width
    for at in (STATE_CHUNK, STATE_CHUNK + 1, rng.randrange(STATE_CHUNK, size), size - 1):
        fwd, back = _faulty_tables(rng, width, 0)
        if fault == "escape":
            fwd[at] = rng.choice([-1, size + at])
        elif fault == "collision":
            fwd[at] = fwd[rng.randrange(at)]
        else:
            back[fwd[at]] = (at + 1) % size
        python = check_bijection_exhaustive(Bijection(width, fwd.__getitem__, back.__getitem__, "t"))
        assert python == reference_walk(Bijection(width, fwd.__getitem__, back.__getitem__))
        if fault != "escape":
            assert check_bijection_exhaustive(sliced_table_map(width, fwd, back)) == python
        assert python.reason == fault and python.witness[1 if fault == "collision" else 0].value == at


def test_a_passing_sliced_check_builds_no_table(rng, monkeypatch):
    """Backward after forward on every chunk proves a sliced map a
    bijection, so a passing circuit check fills no table; a map that fails
    the round trip fills its forward table once, and the pass over it
    gives the reference witness and reason."""
    tables = []
    fill = kernel.images
    monkeypatch.setattr(kernel, "images", lambda f: tables.append(f.width) or fill(f))
    for width in (0, 1, 5, 12, 13):
        c = random_reversible_circuit(rng, width, 40 if width > 1 else 0, min_gates=0)
        assert check_bijection_exhaustive(c.as_bijection()).ok
        assert check_bijection_exhaustive(c.as_bijection().inverse()).ok
    assert tables == []
    fwd, back = _faulty_tables(rng, 13, 0)
    back[fwd[5000]] = 17
    check = check_bijection_exhaustive(sliced_table_map(13, fwd, back))
    assert check == BijectionCheck(False, (Bitstring(5000, 13), Bitstring(17, 13)), "inverse")
    assert tables == [13]


def test_a_round_trip_through_wires_outside_the_chunk_is_no_pass():
    # forward sets a bit above the chunk's 8 states and backward clears it:
    # the pair round-trips, but that bit is no state's image, so the round
    # trip proves nothing and the pass over the colliding scalar forward
    # reports the collision
    def fwd(wires, ones):
        return [wires[0] | ones + 1] + wires[1:]

    def back(wires, ones):
        return [wires[0] & ones] + wires[1:]

    f = Bijection(3, lambda v: v & ~1, lambda v: v, "stray", sliced=(fwd, back))
    check = check_bijection_exhaustive(f)
    assert check == reference_walk(f) and not check.ok


def test_state_slices_hold_every_state_bit_by_bit():
    # twice over, so the second pass reads the cached counting wires
    for k in (0, 1, 3, 12, 13, 12, 3):
        chunks = list(kernel.state_slices(k))
        assert [s for states, _ in chunks for s in states] == list(range(1 << k))
        for states, wires in chunks:
            for i, wire in enumerate(wires):
                bit = k - 1 - i
                assert wire == sum((x >> bit & 1) << j for j, x in enumerate(states)), (k, i)


def test_sliced_maps_are_asked_one_chunk_at_a_time():
    sizes = []

    def flip(wires, ones):
        sizes.append(ones.bit_length())
        wires[-1] ^= ones
        return wires

    f = Bijection(13, lambda v: v ^ 1, lambda v: v ^ 1, "flip", sliced=(flip, flip))
    assert list(images(f)) == [v ^ 1 for v in range(1 << 13)]
    sizes.clear()
    assert check_bijection_exhaustive(f).ok
    assert sizes == [STATE_CHUNK] * 4


def test_a_failing_sliced_check_reads_only_up_to_its_failing_chunk():
    """A 14-bit sliced map whose forward clears bit 0 collides at input 1,
    in chunk 0 of four, and its identity backward is no inverse: the round
    trip fails on chunk 0, so the sliced forward is asked for chunk 0 once
    and for no other chunk, and the pass over the scalar images stops at
    input 1, after at most two calls of the scalar forward."""
    asked, called = [], []

    def clear_low(wires, ones):
        asked.append(tuple(wires[:2]))  # bits 13 and 12: the chunk's own
        return wires[:-1] + [0]

    keep = lambda wires, ones: wires  # noqa: E731
    f = Bijection(14, lambda v: called.append(v) or v & ~1, lambda v: v, "clear-low",
                  sliced=(clear_low, keep))
    want = BijectionCheck(False, (Bitstring(0, 14), Bitstring(1, 14)), "collision")
    assert check_bijection_exhaustive(f) == want
    assert asked == [(0, 0)] and len(called) <= 2
    assert reference_walk(f) == want


def test_exhaustive_check_of_a_20_wire_circuit_stays_in_bounded_memory():
    c = random_reversible_circuit(random.Random(20), 20, 60, min_gates=60)
    tracemalloc.start()
    try:
        assert check_bijection_exhaustive(c.as_bijection()).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 << 20, peak


def reference_cycle_lengths(step, size):
    """The literal cycle walk through a callable, which assumes a
    permutation: the reference ``cycle_lengths`` must match."""
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = step(x)
            length += 1
        yield length


def test_cycle_reader_matches_the_literal_walk(rng):
    tables = [list(range(n)) for n in (0, 1, 2, 4096)]
    tables += [[(x + 1) % n for x in range(n)] for n in (1, 2, 4096)]
    for n in [0, 1, 2, 3, 4096] + [rng.randint(3, 4096) for _ in range(30)]:
        table = list(range(n))
        rng.shuffle(table)
        tables.append(table)
    parities = set()
    for table in tables:
        n = len(table)
        want = list(reference_cycle_lengths(table.__getitem__, n))
        assert cycle_lengths(table) == want
        assert cycle_lengths(array("q", table)) == want
        assert parity(table) == ("even" if (n - len(want)) % 2 == 0 else "odd")
        if n:
            # one reflected point per piece, so the table path, not the exchange's
            t = PiecewiseLinearBijection(n, tuple(Piece(x, x + 1, -1, y + x) for x, y in enumerate(table)))
            assert permutation_order(t) == lcm(*want)
            parities.add(parity(table))
    assert parities == {"even", "odd"}


@pytest.mark.parametrize("table", [[0, 0, 2, 3], [1, 2, 3, -1], [1, 2, 3, 4], [3, 0, 0, 1]])
def test_cycle_reader_rejects_tables_that_are_not_permutations(table):
    for read in (cycle_lengths, parity, inverse_table, lambda t: from_permutation(t, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            read(table)


def test_inverse_table_inverts(rng):
    assert inverse_table([]) == ()
    for n in (1, 2, 7, 16):
        table = list(range(n))
        rng.shuffle(table)
        inv = inverse_table(table)
        assert isinstance(inv, tuple)
        assert [table[v] for v in inv] == list(range(n))
        assert inverse_table(inv) == tuple(table)


def test_from_permutation_rejects_a_table_of_the_wrong_length():
    for table, width in [([], 0), ([1, 0], 2), ([0, 1, 2, 3], 1), ([0, 1, 2, 3], 3)]:
        with pytest.raises(ValueError):
            from_permutation(table, width)
