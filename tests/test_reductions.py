"""Sweep-summation and clocked compilers, oracle circuits and their compiler."""

import pytest

from ibx.circuits import ClassicalGate
from ibx.kernel import (
    Bijection,
    Bitstring,
    WidthMismatchError,
    check_bijection_exhaustive,
    identity,
    increment,
    iterate_bijection,
    rotate_left,
)
from ibx.reductions import (
    MAX_CLOCK_WIDTH,
    MAX_SWEEP_WIDTH,
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


def test_sweep_width_cap():
    wide = Bijection(MAX_SWEEP_WIDTH + 1, lambda v: v, lambda v: v, "wide")
    with pytest.raises(ReductionError):
        inversion_by_iteration(wide, Bitstring(0, MAX_SWEEP_WIDTH + 1))


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


def test_clock_width_cap():
    wide = Bijection(MAX_CLOCK_WIDTH + 1, lambda v: v, None, "wide")
    with pytest.raises(ReductionError):
        compile_iteration_to_invertible(wide, 1, Bitstring(0, MAX_CLOCK_WIDTH + 1))


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


def test_oracle_circuit_wiring_guards():
    with pytest.raises(ReductionError):
        OracleCircuit(2, (OracleGate((0,), (1,), (1,)),), (1,))
    with pytest.raises(ReductionError):
        OracleCircuit(2, (OracleGate((0,), (5,), (2,)),), (2,))
    with pytest.raises(ReductionError):
        OracleCircuit(1, (), (3,))
