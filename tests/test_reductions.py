"""Sweep-summation and clocked compilers, oracle circuits and their compiler."""

import pytest

from ibx.circuits import CircuitError, ClassicalCircuit, ClassicalGate
from ibx.kernel import (
    Bijection,
    Bitstring,
    WidthMismatchError,
    add_const,
    cat_map,
    check_bijection_exhaustive,
    identity,
    increment,
    iterate,
    iterate_bijection,
    pack_fields,
    rotate_left,
    unpack_fields,
)
from ibx.reductions import (
    MAX_ORACLE_TABLE_WIDTH,
    ClockedState,
    OracleCircuit,
    OracleGate,
    ReductionError,
    Schedule,
    compile_iteration_to_invertible,
    compile_oracle_circuit,
    eval_oracle_circuit,
    inversion_by_iteration,
    run_schedule,
)

from conftest import assert_leaps_are_walks, logged_run


def test_sweep_identity_returns_input():
    x = Bitstring.from_text("101")
    assert run_schedule(inversion_by_iteration(identity(3), x)) == x


def test_sweep_increment_example():
    # 2-bit increment at x=10: four sweep steps deposit f(x)=11.
    s = inversion_by_iteration(increment(2), Bitstring.from_text("10"))
    assert s.total_iterations == 4
    assert run_schedule(s).to_text() == "11"


def test_sweep_deposit_happens_at_the_target_step():
    f = increment(3)
    x = Bitstring(5, 3)
    s = inversion_by_iteration(f, x)
    before = iterate_bijection(s.g, x.value, s.start)
    after = iterate_bijection(s.g, x.value + 1, s.start)
    assert s.extract(before).value == 0
    assert s.extract(after).value == f.forward(x.value)


def test_sweep_g_is_bijective():
    s = inversion_by_iteration(increment(3), Bitstring(0, 3))
    assert check_bijection_exhaustive(s.g).ok


def test_sweep_width_mismatch():
    with pytest.raises(WidthMismatchError):
        inversion_by_iteration(increment(3), Bitstring(0, 4))


def test_clock_identity_any_n():
    x = Bitstring.from_text("0110")
    s = compile_iteration_to_invertible(identity(4), 9, x)
    assert run_schedule(s) == x


def test_clock_increment_example():
    # 0 + 5 mod 8 = 5.
    s = compile_iteration_to_invertible(increment(3), 5, Bitstring.from_text("000"))
    assert run_schedule(s).to_text() == "101"


def test_clock_g_is_bijective():
    s = compile_iteration_to_invertible(increment(2), 3, Bitstring(0, 2))
    assert check_bijection_exhaustive(s.g).ok


def test_clock_total_counts_full_cycles():
    f = increment(2)
    s = compile_iteration_to_invertible(f, 6, Bitstring(0, 2))
    assert s.total_iterations == 6 * ((1 << 2) + 3)


def test_clock_accepts_forward_only_bijections():
    f = Bijection(3, lambda v: (v + 3) & 7, None, "add3")
    s = compile_iteration_to_invertible(f, 4, Bitstring(1, 3))
    assert run_schedule(s).value == (1 + 12) & 7
    assert check_bijection_exhaustive(s.g).ok


def test_clock_matches_direct_iteration(rng):
    pool = [identity(3), increment(3), rotate_left(3), increment(4)]
    for _ in range(15):
        f = rng.choice(pool)
        n = rng.randint(0, 20)
        x = Bitstring(rng.randrange(1 << f.width), f.width)
        s = compile_iteration_to_invertible(f, n, x)
        assert run_schedule(s) == iterate_bijection(f, n, x)


def test_clock_out_of_range_codes_are_fixed():
    s = compile_iteration_to_invertible(increment(2), 2, Bitstring(0, 2))
    fixed = [
        v
        for v in range(1 << s.g.width)
        if s.codec.decode(v) is None
    ]
    assert fixed, "codec leaves no slack, test needs a different width"
    for v in fixed[:16]:
        assert s.g.forward(v) == v
        assert s.g.backward(v) == v


def test_sweep_image_outside_the_width_raises():
    f = Bijection(3, lambda v: v + 8)
    x = Bitstring(1, 3)
    with pytest.raises(ValueError, match="out of range for width 3"):
        f.apply(x)
    s = inversion_by_iteration(f, x)
    with pytest.raises(ValueError, match="value 9 out of range for width 3"):
        run_schedule(s)
    # Backward, the step that undoes the deposit raises too.
    past = (x.value + 1) << 3
    with pytest.raises(ValueError, match="value 9 out of range for width 3"):
        s.g.backward(past)
    # Only the target's image is asked for, so other points may misbehave.
    assert run_schedule(inversion_by_iteration(Bijection(3, lambda v: v if v == 1 else -1), x)) == x


@pytest.mark.parametrize("fn", [lambda v: v + 8, lambda v: -1])
def test_clock_stash_checks_the_image_both_ways(fn):
    # a declared backward gets past the table check, so the stash itself checks
    f = Bijection(3, fn, lambda v: v)
    s = compile_iteration_to_invertible(f, 2, Bitstring(1, 3))
    with pytest.raises(ValueError, match="out of range for width 3"):
        run_schedule(s)
    # The state one step past the stash: stepping back undoes the stash.
    after_stash = s.codec.encode(ClockedState(0, 1, (1, 0, 0)))
    with pytest.raises(ValueError, match="out of range for width 3"):
        s.g.backward(after_stash)


def _literal_runs(g, start, steps):
    """iterate_bijection's answers from start, steps ahead and then the same
    steps back, next to the literal loop's."""
    got = iterate_bijection(g, steps, start)
    want = iterate(g, steps, start)
    back = iterate(g.inverse(), steps, want)
    return (got, iterate_bijection(g, -steps, got)), (want, back)


def test_clock_leaps_equal_the_literal_walk(rng):
    for k in range(1, 6):
        for _ in range(2):
            table = list(range(1 << k))
            rng.shuffle(table)
            f = Bijection(k, table.__getitem__, None, "forward-only")
            for n in (0, 1, 7, 30):
                x = rng.randrange(1 << k)
                s = compile_iteration_to_invertible(f, n, Bitstring(x, k))
                total = s.total_iterations
                for steps in (0, total // 2, total, total + 7):
                    got, want = _literal_runs(s.g, s.start, steps)
                    assert got == want, (k, n, steps)
                for v in (rng.randrange(1 << s.g.width) for _ in range(4)):
                    got, want = _literal_runs(s.g, Bitstring(v, s.g.width), 2 * (1 << k) + 9)
                    assert got == want, (k, n, v)
                expect = x
                for _ in range(n):
                    expect = table[expect]
                assert run_schedule(s).value == expect


def test_clock_leaps_take_every_whole_little_hand_cycle_left(rng):
    n = 5
    for k in range(1, 6):
        table = list(range(1 << k))
        rng.shuffle(table)
        f = Bijection(k, table.__getitem__, None, "forward-only")
        s = compile_iteration_to_invertible(f, n, Bitstring(0, k))
        g, m = s.g, (1 << k) + 3
        for c1 in range(n + 1):
            for a in rng.sample(range(1 << k), min(1 << k, 6)):
                v = s.codec.encode(ClockedState(c1, 0, (a, 0, 0)))
                assert g.leap(v, m - 1) == (g.forward(v), 1) and g.leap(v, 1 - m) == (g.backward(v), 1)
                for j, extra in ((1, 0), (2, m - 1), (n + 3, m // 2)):
                    start = Bitstring(v, g.width)
                    ahead = iterate(g, j * m, start).value
                    behind = iterate(g.inverse(), j * m, start).value
                    assert g.leap(v, j * m + extra) == (ahead, j * m), (k, c1, a, j)
                    assert g.leap(v, -j * m - extra) == (behind, j * m), (k, c1, a, j)


def test_clock_answers_a_huge_n_in_one_leap(rng):
    n = 10**20 + 7
    x = Bitstring(0b10110101, 8)
    s = compile_iteration_to_invertible(add_const(8, 37), n, x)
    final = iterate_bijection(s.g, s.total_iterations, s.start)
    assert s.extract(final).value == (x.value + 37 * n) % 256
    assert iterate_bijection(s.g, -s.total_iterations, final) == s.start
    table = list(range(32))
    rng.shuffle(table)
    f = Bijection(5, table.__getitem__, None, "forward-only")
    y = Bitstring(rng.randrange(32), 5)
    assert run_schedule(compile_iteration_to_invertible(f, n, y)) == iterate_bijection(f, n, y)


@pytest.mark.parametrize("k", [64, 4096])
@pytest.mark.parametrize("make", [lambda k: add_const(k, 37), rotate_left])
def test_clock_runs_a_wide_map_by_its_own_power(make, k, rng):
    n = 10**20 + 7
    f, x = make(k), Bitstring(rng.getrandbits(k), k)
    s = compile_iteration_to_invertible(f, n, x)
    assert run_schedule(s) == iterate_bijection(f, n, x)
    final = iterate_bijection(s.g, s.total_iterations, s.start)
    assert iterate_bijection(s.g, -s.total_iterations, final) == s.start


def _clock_runs(rng, total):
    """Tick counts that end in a little-hand cycle or past the schedule:
    the whole schedule, 5 short and 5 over, random counts, each either way."""
    counts = [total, total - 5, total + 5, rng.randrange(total), rng.randrange(3 * total), rng.randrange(97)]
    return counts + [-c for c in counts]


@pytest.mark.parametrize("n", [3, 10**20 + 7])
def test_clock_runs_are_a_fixed_number_of_moves(n, rng):
    """At 64 bits a run from the start, or back from where it ended, is at
    most 6 engine moves: the whole cycles at once, then the stash and the
    xor tick, the sweep's run to the firing candidate, its firing tick and
    the run after it (a clear tick would end the cycle), whatever n."""
    k = 64
    for f in (add_const(k, 37), rotate_left(k)):
        s = compile_iteration_to_invertible(f, n, Bitstring(rng.getrandbits(k), k))
        for steps in _clock_runs(rng, s.total_iterations):
            end, moves = logged_run(s.g, steps, s.start)
            assert len(moves) <= 6, (f.label, steps, moves)
            back, moves = logged_run(s.g, -steps, end)
            assert back == s.start and len(moves) <= 6, (f.label, steps, moves)


def test_clock_runs_equal_the_literal_walk(rng):
    # forward-only tables and maps that declare their backward, from the
    # start and from any state, off the cycle edges included
    for k in range(1, 7):
        table = rng.sample(range(1 << k), 1 << k)
        back = [table.index(v) for v in range(1 << k)]
        maps = [Bijection(k, table.__getitem__, None, "forward-only"), Bijection(k, table.__getitem__,
                back.__getitem__), add_const(k, rng.randrange(1 << k)), rotate_left(k)]
        for f in maps:
            s = compile_iteration_to_invertible(f, rng.randint(1, 3), Bitstring(rng.randrange(1 << k), k))
            starts = [s.start] + [Bitstring(rng.randrange(1 << s.g.width), s.g.width) for _ in range(2)]
            for start in starts:
                for steps in _clock_runs(rng, s.total_iterations):
                    got, want = _literal_runs(s.g, start, steps)
                    assert got == want, (k, f.label, start, steps)


@pytest.mark.parametrize("fn", [lambda v: v // 2, lambda v: v + 1 if v < 6 else 99, lambda v: 0])
def test_clock_refuses_a_forward_only_f_that_is_no_permutation(fn):
    # f collides, or sends an input outside 3 bits: refused before any schedule
    f = Bijection(3, fn, None, "no permutation of 3 bits")
    for n in (0, 1, 4):
        with pytest.raises(ReductionError, match="not a permutation"):
            compile_iteration_to_invertible(f, n, Bitstring(0, 3))


def test_clock_raises_where_the_walk_raises_when_an_image_escapes():
    f = Bijection(3, lambda v: v + 1, lambda v: v - 1, "escapes at 7")
    s = compile_iteration_to_invertible(f, 5, Bitstring(4, 3))
    with pytest.raises(ValueError, match="value 8 out of range for width 3"):
        iterate(s.g, s.total_iterations, s.start)
    with pytest.raises(ValueError, match="value 8 out of range for width 3"):
        run_schedule(s)


def test_clock_width_cap():
    # the one table cap: a forward-only map one bit past it is refused
    w = MAX_ORACLE_TABLE_WIDTH + 1
    wide = Bijection(w, lambda v: v, None, "wide")
    with pytest.raises(ReductionError, match=f"table cap {w - 1}"):
        compile_iteration_to_invertible(wide, 1, Bitstring(0, w))


def test_schedule_guards():
    with pytest.raises(ReductionError):
        Schedule(identity(2), -1, Bitstring(0, 2), lambda b: b)
    with pytest.raises(WidthMismatchError):
        Schedule(identity(2), 1, Bitstring(0, 3), lambda b: b)


def test_oracle_circuit_no_gates():
    oc = OracleCircuit(3, (), (0, 1, 2))
    g = increment(3)
    for v in range(8):
        x = Bitstring(v, 3)
        assert eval_oracle_circuit(oc, g, x) == x
        assert run_schedule(compile_oracle_circuit(oc, g, x)) == x


def test_oracle_gate_power_of_increment():
    # Wires 0,1 hold the count, s = wires 2,3, t fresh on 4,5.
    oc = OracleCircuit(
        4,
        (OracleGate((0, 1), (2, 3), (4, 5)),),
        (4, 5),
    )
    g = increment(2)
    for v in range(16):
        x = Bitstring(v, 4)
        count = v >> 2
        s_in = v & 3
        want = (s_in + count) & 3
        assert eval_oracle_circuit(oc, g, x).value == want
        assert run_schedule(compile_oracle_circuit(oc, g, x)).value == want


def test_xor_feeding_an_oracle_gate():
    # count = a xor b decides whether the 1-bit increment (a NOT) fires.
    oc = OracleCircuit(
        3,
        (
            ClassicalGate("xor", 3, (0, 1)),
            OracleGate((3,), (2,), (4,)),
        ),
        (4,),
    )
    g = increment(1)
    for v in range(8):
        x = Bitstring(v, 3)
        a, b, s_in = x.bit(2), x.bit(1), x.bit(0)
        want = s_in ^ (a ^ b)
        assert eval_oracle_circuit(oc, g, x).value == want
        assert run_schedule(compile_oracle_circuit(oc, g, x)).value == want


def test_chained_oracle_gates():
    oc = OracleCircuit(
        4,
        (
            OracleGate((0, 1), (2, 3), (4, 5)),
            OracleGate((0, 1), (4, 5), (6, 7)),
        ),
        (6, 7),
    )
    g = increment(2)
    for v in range(16):
        x = Bitstring(v, 4)
        count = v >> 2
        want = ((v & 3) + 2 * count) & 3
        assert eval_oracle_circuit(oc, g, x).value == want
        assert run_schedule(compile_oracle_circuit(oc, g, x)).value == want


def test_oracle_clock_reads_and_writes_a_wide_contiguous_field(rng):
    # 3000-wire s and t lists, running down the bit positions by one and
    # then reversed: the one gather and scatter read and write either order
    w = 3000
    for order in (1, -1):
        s = tuple(range(2, 2 + w))[::order]
        t = tuple(range(2 + w, 2 + 2 * w))[::order]
        oc = OracleCircuit(2 + w, (OracleGate((0, 1), s, t),), t)
        g = add_const(w, rng.getrandbits(w))
        for _ in range(4):
            x = Bitstring(rng.getrandbits(2 + w), 2 + w)
            assert run_schedule(compile_oracle_circuit(oc, g, x)) == eval_oracle_circuit(oc, g, x)


def test_oracle_clock_reads_and_writes_scattered_wires_bit_by_bit():
    # n runs up the bit positions, s and the outputs skip and reorder them,
    # and t mixes both, while a classical gate between them reads and
    # writes single wires; each list is gathered and scattered by place
    oc = OracleCircuit(
        6,
        (
            ClassicalGate("xor", 6, (0, 3)),
            OracleGate((5, 4), (0, 2, 6), (9, 7, 8)),
        ),
        (8, 1, 9, 7),
    )
    g = rotate_left(3)
    for v in range(1 << 6):
        x = Bitstring(v, 6)
        assert run_schedule(compile_oracle_circuit(oc, g, x)) == eval_oracle_circuit(oc, g, x)


def _one_counted_gate(w):
    """t := g^(n)(s) for a 1-bit count n on input wire 0, s on the next w
    inputs, and t on w more wires, which are the outputs."""
    t = tuple(range(1 + w, 1 + 2 * w))
    return OracleCircuit(1 + w, (OracleGate((0,), tuple(range(1, 1 + w)), t),), t)


def test_forward_only_oracles_are_tabulated_up_to_the_cap():
    # past the cap nothing is tabulated; at it, x ^ 1 compiles, runs
    # forward to the direct evaluation and back to its start
    w = MAX_ORACLE_TABLE_WIDTH
    wide = Bijection(w + 1, lambda v: v ^ 1, None, "fwd-only")
    with pytest.raises(ReductionError, match=f"table cap {w}"):
        compile_oracle_circuit(_one_counted_gate(w + 1), wide, Bitstring(0, w + 2))
    g = Bijection(w, lambda v: v ^ 1, None, "fwd-only")
    oc = _one_counted_gate(w)
    for v in (0, 1, 6, 1 << w, (1 << w + 1) - 1):
        x = Bitstring(v, w + 1)
        s = compile_oracle_circuit(oc, g, x)
        end = iterate_bijection(s.g, s.total_iterations, s.start)
        assert s.extract(end) == eval_oracle_circuit(oc, g, x)
        assert iterate_bijection(s.g, -s.total_iterations, end) == s.start


def test_oracle_compiler_synthesizes_missing_backward():
    g = Bijection(2, lambda v: (v + 1) & 3, None, "fwd-only")
    oc = OracleCircuit(4, (OracleGate((0, 1), (2, 3), (4, 5)),), (4, 5))
    for v in range(16):
        x = Bitstring(v, 4)
        assert run_schedule(compile_oracle_circuit(oc, g, x)) == eval_oracle_circuit(
            oc, g, x
        )


def test_oracle_compiler_rejects_a_forward_only_oracle_that_is_not_injective():
    g = Bijection(2, lambda v: 0, None, "constant")
    oc = OracleCircuit(4, (OracleGate((0, 1), (2, 3), (4, 5)),), (4, 5))
    with pytest.raises(ValueError, match="not a permutation"):
        compile_oracle_circuit(oc, g, Bitstring(0, 4))


def test_oracle_compiler_leaves_an_uncalled_oracle_alone():
    # no gate calls g, so g is not tabulated, and its collisions do not matter
    g = Bijection(2, lambda v: 0, None, "constant")
    oc = OracleCircuit(2, (ClassicalGate("and", 2, (0, 1)),), (2,))
    x = Bitstring.from_text("11")
    assert eval_oracle_circuit(oc, g, x) == Bitstring(1, 1)
    assert run_schedule(compile_oracle_circuit(oc, g, x)) == Bitstring(1, 1)


# Three inputs; the oracle gate reads its count off wire 0 and s off wires
# 1, 2, and writes t onto the fresh wires 3, 4.
TWO_WIRE_ORACLE = OracleCircuit(3, (OracleGate((0,), (1, 2), (3, 4)),), (3, 4))


def test_oracle_width_is_checked_before_compiling():
    x = Bitstring.from_text("111")
    with pytest.raises(WidthMismatchError, match="oracle width does not match s wires"):
        eval_oracle_circuit(TWO_WIRE_ORACLE, increment(3), x)
    with pytest.raises(WidthMismatchError, match="oracle width does not match s wires"):
        compile_oracle_circuit(TWO_WIRE_ORACLE, increment(3), x)
    # Checked even where the gate would never fire (count 0) and with no
    # backward evaluator to tabulate.
    with pytest.raises(WidthMismatchError):
        compile_oracle_circuit(TWO_WIRE_ORACLE, Bijection(3, lambda v: v), Bitstring(0, 3))


def test_oracle_images_outside_the_width_raise():
    x = Bitstring.from_text("111")
    escapes = Bijection(2, lambda v: v + 4, lambda v: v - 4)
    with pytest.raises(ValueError, match="value 7 out of range for width 2"):
        eval_oracle_circuit(TWO_WIRE_ORACLE, escapes, x)
    with pytest.raises(ValueError, match="value 7 out of range for width 2"):
        run_schedule(compile_oracle_circuit(TWO_WIRE_ORACLE, escapes, x))
    # A forward oracle that stays in range and a backward one that does not:
    # the forward run is fine, running it back raises.
    back_escapes = Bijection(2, lambda v: (v + 1) & 3, lambda v: v - 4)
    s = compile_oracle_circuit(TWO_WIRE_ORACLE, back_escapes, x)
    final = iterate_bijection(s.g, s.total_iterations, s.start)
    assert s.extract(final).to_text() == "00"
    with pytest.raises(ValueError, match="out of range for width 2"):
        iterate_bijection(s.g.inverse(), s.total_iterations, final)


# (circuit, oracle width): boolean gates before, after and between oracle
# gates, whose counts are read off inputs and off a gate's output.
SMALL_ORACLE_CIRCUITS = [
    (
        OracleCircuit(
            4,
            (OracleGate((0, 1), (2, 3), (4, 5)), ClassicalGate("copy", 6, (4,))),
            (5, 6),
        ),
        2,
    ),
    (
        OracleCircuit(
            3, (ClassicalGate("xor", 3, (0, 1)), OracleGate((3,), (2,), (4,))), (4,)
        ),
        1,
    ),
    (
        OracleCircuit(
            2,
            (
                ClassicalGate("and", 2, (0, 1)),
                ClassicalGate("not", 3, (2,)),
                OracleGate((0,), (3,), (4,)),
                ClassicalGate("or", 5, (1, 4)),
            ),
            (2, 5),
        ),
        1,
    ),
]


def _one_gate(f, count, s):
    """One oracle gate applying f count times to s, and its input."""
    cbits, w = max(1, count.bit_length()), f.width
    t = tuple(range(cbits + w, cbits + 2 * w))
    oc = OracleCircuit(cbits + w, (OracleGate(tuple(range(cbits)), tuple(range(cbits, cbits + w)), t),), t)
    return oc, Bitstring(pack_fields([(count, cbits), (s, w)]), cbits + w)


def _engine_moves(schedule):
    """run_schedule's answer and the engine moves it took."""
    final, moves = logged_run(schedule.g, schedule.total_iterations, schedule.start)
    return schedule.extract(final), moves


def test_sweep_leaps_equal_the_literal_walk(rng):
    for k in range(1, 4):
        size = 1 << k
        for x in range(size):
            table = [rng.randrange(size) for _ in range(size)]  # only f(x) is asked
            s = inversion_by_iteration(Bijection(k, table.__getitem__, None, "table"), Bitstring(x, k))
            for v in range(size * size):  # every state
                assert_leaps_are_walks(s.g.leap, s.g.forward, s.g.backward, v, (1, 2, size - 1, size, 3 * size))
                # b comes back within 2**k sweeps, so the last count is past a full period
                for steps in (size - 1, size, size * size + 3):
                    got, want = _literal_runs(s.g, Bitstring(v, 2 * k), steps)
                    assert got == want, (k, x, v, steps)
            assert run_schedule(s).value == table[x]


def test_sweep_is_three_engine_moves_at_the_widest_width(rng):
    """The sweep has no width cap of its own: at 64 and 4096 bits a whole
    sweep is still three engine moves."""
    for k in (64, 4096):
        f = add_const(k, rng.randrange(1 << k))
        for x in (0, 1, rng.randrange(2, 1 << k), (1 << k) - 1):
            s = inversion_by_iteration(f, Bitstring(x, k))
            answer, moves = _engine_moves(s)
            assert answer.value == f.forward(x)
            # up to the target, its one adding tick, and on to the wrap
            assert moves == [x] * (x > 0) + [1] + [(1 << k) - 1 - x] * (x < (1 << k) - 1)
            final = iterate_bijection(s.g, s.total_iterations, s.start)
            assert iterate_bijection(s.g, -s.total_iterations, final) == s.start


def _oracle_maps(rng, k):
    """A stock map with a power of its own, a random permutation table with
    its inverse, and the same table forward only."""
    table = rng.sample(range(1 << k), 1 << k)
    back = [table.index(v) for v in range(1 << k)]
    return [add_const(k, rng.randrange(1, 1 << k)), Bijection(k, table.__getitem__, back.__getitem__),
            Bijection(k, table.__getitem__, None, "forward-only")]


def test_oracle_clock_leaps_equal_the_literal_walk(rng):
    for oc, k in SMALL_ORACLE_CIRCUITS:
        for f in _oracle_maps(rng, k):
            x = Bitstring(rng.randrange(1 << oc.inputs), oc.inputs)
            s = compile_oracle_circuit(oc, f, x)
            g, m, total = s.g, s.codec.m_small, s.total_iterations
            for v in range(1 << g.width):  # every state, off-contract counters included
                assert_leaps_are_walks(g.leap, g.forward, g.backward, v, (1, 2, m, total))
            for v in [s.start.value] + rng.sample(range(1 << g.width), 6):
                for steps in (total // 2, total, total + 7, 4 * total + 1):
                    got, want = _literal_runs(g, Bitstring(v, g.width), steps)
                    assert got == want, (oc, f.label, v, steps)
            assert run_schedule(s) == eval_oracle_circuit(oc, f, x)


def test_oracle_clock_answers_a_huge_count_in_four_moves(rng):
    # the copy tick, the active run, the idle run and the spare slot
    n = 10**20 + 7
    for f in [cat_map(5)] + _oracle_maps(rng, 5):
        oc, x = _one_gate(f, n, rng.randrange(1 << f.width))
        s = compile_oracle_circuit(oc, f, x)
        answer, moves = _engine_moves(s)
        s_in = Bitstring(x.value & (1 << f.width) - 1, f.width)
        assert answer == eval_oracle_circuit(oc, f, x) == iterate_bijection(f, n, s_in)
        m = s.codec.m_small
        assert moves == [1, n, m - 1 - n, m], f.label
        final = iterate_bijection(s.g, s.total_iterations, s.start)
        assert iterate_bijection(s.g, -s.total_iterations, final) == s.start


@pytest.mark.parametrize("fn", [lambda v: v // 2, lambda v: v ^ 1 if v < 6 else 99])
def test_oracle_clock_equals_the_walk_when_g_is_no_permutation_of_its_width(fn):
    # g collides, or sends inputs the runs from 0 never reach outside 3 bits
    g = Bijection(3, fn, lambda v: v, "not a permutation")
    for count in (1, 5):
        oc, x = _one_gate(g, count, 0)
        s = compile_oracle_circuit(oc, g, x)
        for steps in (s.total_iterations, s.total_iterations + 20):
            got, want = _literal_runs(s.g, s.start, steps)
            assert got == want
        assert run_schedule(s) == eval_oracle_circuit(oc, g, x)


def test_oracle_clock_raises_where_the_walk_raises_when_an_image_escapes():
    g = Bijection(3, lambda v: v + 1, lambda v: v - 1, "escapes at 7")
    for count in (5, 10**20):
        oc, x = _one_gate(g, count, 4)
        s = compile_oracle_circuit(oc, g, x)
        with pytest.raises(ValueError, match="value 8 out of range for width 3"):
            iterate(s.g, s.total_iterations, s.start)
        with pytest.raises(ValueError, match="value 8 out of range for width 3"):
            run_schedule(s)


def test_oracle_circuit_wiring_guards():
    with pytest.raises(ReductionError):
        OracleCircuit(2, (OracleGate((0,), (1,), (1,)),), (1,))
    with pytest.raises(ReductionError):
        OracleCircuit(2, (OracleGate((0,), (5,), (2,)),), (2,))
    with pytest.raises(ReductionError):
        OracleCircuit(1, (), (3,))


# Boolean gate lists that break the wiring rule, with the message both
# circuit classes give: (inputs, gates, outputs, message).
MISWIRED = [
    (2, (ClassicalGate("and", 2, (0, 5)),), (2,), "gate reads undefined wire 5"),
    (2, (ClassicalGate("not", 2, (2,)),), (2,), "gate reads undefined wire 2"),
    (2, (ClassicalGate("not", 2, (0,)), ClassicalGate("not", 2, (1,))), (2,), "wire 2 written twice"),
    (2, (ClassicalGate("xor", 1, (0, 1)),), (1,), "wire 1 written twice"),
    (2, (ClassicalGate("xor", 0, (5, 1)),), (0,), "wire 0 written twice"),
    (1, (), (3,), "output names undefined wire 3"),
    (2, (ClassicalGate("copy", 2, (0,)),), (2, 3), "output names undefined wire 3"),
]


@pytest.mark.parametrize("inputs, gates, outputs, message", MISWIRED)
def test_boolean_and_oracle_circuits_share_one_wiring_rule(inputs, gates, outputs, message):
    with pytest.raises(CircuitError, match=f"^{message}$"):
        ClassicalCircuit(inputs, gates, outputs)
    with pytest.raises(ReductionError, match=f"^{message}$"):
        OracleCircuit(inputs, gates, outputs)


@pytest.mark.parametrize(
    "gate, message",
    [
        (OracleGate((0,), (1,), (2, 2)), "wire 2 written twice"),
        (OracleGate((0,), (1,), (1,)), "wire 1 written twice"),
        (OracleGate((0,), (5,), (2,)), "gate reads undefined wire 5"),
        (OracleGate((2,), (1,), (2,)), "gate reads undefined wire 2"),
    ],
)
def test_oracle_gates_follow_the_wiring_rule(gate, message):
    with pytest.raises(ReductionError, match=f"^{message}$"):
        OracleCircuit(2, (gate,), ())


@pytest.mark.parametrize("t_wires", [(3,), (3, 4, 5)])
def test_oracle_gates_write_as_many_t_wires_as_they_read_s_wires(t_wires):
    # Accepted with increment(2) at x = 111, (3,) would drop the oracle's
    # high bit on both paths, and (3, 4, 5) would compile and run to 000
    # while the direct evaluator raises IndexError.
    with pytest.raises(ReductionError, match=f"^oracle gate has 2 s wires but {len(t_wires)} t wires$"):
        OracleCircuit(3, (OracleGate((0,), (1, 2), t_wires),), t_wires)


def test_oracle_circuit_rejects_unknown_gate_objects():
    with pytest.raises(ReductionError, match="unknown gate object"):
        OracleCircuit(2, ((0, 1),), ())


def test_all_wires_are_the_inputs_reads_and_writes():
    oc = OracleCircuit(
        2, (ClassicalGate("and", 4, (0, 1)), OracleGate((4,), (0, 1), (6, 7))), (7,)
    )
    assert oc.all_wires() == [0, 1, 4, 6, 7]


# ---------------------------------------------------------------------------
# The clocked steps against a literal reference: the fields unpacked and
# packed by the kernel's pack_fields/unpack_fields at widths computed here,
# one ClockedState per step, and the payload rule written out again.


def _ref_widths(codec):
    w1 = max(1, (codec.m_big - 1).bit_length())
    w2 = max(1, (codec.m_small - 1).bit_length())
    return (w1, w2) + codec.payload_widths


def _ref_decode(codec, v):
    c1, c2, *payload = unpack_fields(v, _ref_widths(codec))
    if c1 >= codec.m_big or c2 >= codec.m_small:
        return None
    return ClockedState(c1, c2, tuple(payload))


def _ref_encode(codec, st):
    return pack_fields(list(zip((st.c1, st.c2) + st.payload, _ref_widths(codec))))


def _ref_clocked(codec, act):
    def fwd(v):
        st = _ref_decode(codec, v)
        if st is None:
            return v
        payload = act(st.c1, st.c2, st.payload, False)
        c1, c2 = st.c1, st.c2 + 1
        if c2 == codec.m_small:
            c1, c2 = (c1 + 1) % codec.m_big, 0
        return _ref_encode(codec, ClockedState(c1, c2, payload))

    def back(v):
        st = _ref_decode(codec, v)
        if st is None:
            return v
        c1, c2 = st.c1, st.c2 - 1
        if c2 < 0:
            c1, c2 = (c1 - 1) % codec.m_big, codec.m_small - 1
        payload = act(c1, c2, st.payload, True)
        return _ref_encode(codec, ClockedState(c1, c2, payload))

    return fwd, back


def _ref_clock_act(f):
    """compile_iteration_to_invertible's rule, as its docstring states it."""
    k = f.width
    size = 1 << k

    def act(c1, c2, payload, reverse):
        a, b, c = payload
        if c2 == 0:
            return a, b ^ f.forward(a), c
        if c2 == 1:
            return a ^ b, b, c
        if c2 < size + 2:
            if reverse:
                c = (c - 1) % size
                if f.forward(c) == b:
                    a ^= c
                return a, b, c
            if f.forward(c) == b:
                a ^= c
            return a, b, (c + 1) % size
        return a, b ^ a, c

    return act


_REF_BOOL = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a: 1 - a,
    "copy": lambda a: a,
}


def _ref_oracle_act(oc, g):
    """compile_oracle_circuit's rule, on a wire vector whose first wire is
    the most significant bit."""
    wires = oc.all_wires()
    pos = {w: len(wires) - 1 - i for i, w in enumerate(wires)}

    def read(vec, ws):
        out = 0
        for w in ws:
            out = (out << 1) | ((vec >> pos[w]) & 1)
        return out

    def write(vec, ws, value):
        for i, w in enumerate(ws):
            bit = (value >> (len(ws) - 1 - i)) & 1
            vec = (vec & ~(1 << pos[w])) | (bit << pos[w])
        return vec

    def act(c1, c2, payload, reverse):
        (vec,) = payload
        if c1 >= len(oc.gates):
            return payload
        gate = oc.gates[c1]
        if isinstance(gate, ClassicalGate):
            if c2 == 0:
                bit = _REF_BOOL[gate.kind](*(read(vec, (a,)) for a in gate.args))
                vec ^= bit << pos[gate.out]
            return (vec,)
        count = read(vec, gate.n_wires)
        if c2 == 0:
            return (vec ^ write(0, gate.t_wires, read(vec, gate.s_wires)),)
        if c2 <= count:
            t = read(vec, gate.t_wires)
            vec = write(vec, gate.t_wires, g.backward(t) if reverse else g.forward(t))
        return (vec,)

    return act


def _assert_matches_reference(s, act):
    """Compare every state of the codec's width; returns how many of them
    have a counter out of range."""
    codec = s.codec
    assert codec.widths == _ref_widths(codec)
    assert codec.width == sum(_ref_widths(codec)) == s.g.width
    ref_fwd, ref_back = _ref_clocked(codec, act)
    out_of_range = 0
    for v in range(1 << codec.width):
        st = _ref_decode(codec, v)
        assert codec.decode(v) == st
        if st is None:
            out_of_range += 1
            assert s.g.forward(v) == v and s.g.backward(v) == v
        else:
            assert codec.encode(st) == v
        y = s.g.forward(v)
        assert y == ref_fwd(v)
        assert s.g.backward(v) == ref_back(v)
        assert s.g.backward(y) == v
    return out_of_range


@pytest.mark.parametrize(
    "f, n, x",
    [
        (increment(2), 3, 1),
        (rotate_left(3), 2, 5),
        (Bijection(3, lambda v: (v + 3) & 7, None, "add3"), 1, 6),
        (identity(1), 0, 1),
    ],
)
def test_clock_steps_match_the_literal_reference(f, n, x):
    s = compile_iteration_to_invertible(f, n, Bitstring(x, f.width))
    assert _assert_matches_reference(s, _ref_clock_act(f)) > 0


@pytest.mark.parametrize("oc, k", SMALL_ORACLE_CIRCUITS)
def test_oracle_steps_match_the_literal_reference(oc, k):
    g = increment(k)
    s = compile_oracle_circuit(oc, g, Bitstring(1, oc.inputs))
    assert _assert_matches_reference(s, _ref_oracle_act(oc, g)) > 0


def test_states_off_the_clock_move_every_tick_at_once():
    oc, k = SMALL_ORACLE_CIRCUITS[0]
    clock = compile_iteration_to_invertible(increment(2), 5, Bitstring(0, 2))
    oracle = compile_oracle_circuit(oc, increment(k), Bitstring(1, oc.inputs))
    for s in (clock, oracle):
        off = [v for v in range(1 << s.g.width) if s.codec.decode(v) is None]
        assert off
        for v in off:
            for r in (1, -1, 7, -7, 10**20):
                assert s.g.leap(v, r) == (v, abs(r))


def test_codec_join_rejects_fields_that_do_not_fit():
    s = compile_iteration_to_invertible(increment(2), 3, Bitstring(0, 2))
    with pytest.raises(ValueError):
        s.codec.encode(ClockedState(0, 0, (4, 0, 0)))
    with pytest.raises(ValueError):
        s.codec.encode(ClockedState(4, 0, (0, 0, 0)))


def test_sweep_steps_match_the_literal_reference():
    f = rotate_left(3)
    x = Bitstring(6, 3)
    s = inversion_by_iteration(f, x)

    def ftilde(a):
        return f.forward(a) if a == x.value else 0

    for v in range(1 << 6):
        a, b = unpack_fields(v, (3, 3))
        prev = (a - 1) & 7
        assert s.g.forward(v) == pack_fields([((a + 1) & 7, 3), ((b + ftilde(a)) & 7, 3)])
        assert s.g.backward(v) == pack_fields([(prev, 3), ((b - ftilde(prev)) & 7, 3)])
        assert s.extract(Bitstring(v, 6)).value == b
