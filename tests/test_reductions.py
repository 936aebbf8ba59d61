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
    pack_fields,
    rotate_left,
    unpack_fields,
)
from ibx.reductions import (
    MAX_CLOCK_WIDTH,
    MAX_SWEEP_WIDTH,
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


@pytest.mark.parametrize(
    "oc, k",
    [
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
    ],
)
def test_oracle_steps_match_the_literal_reference(oc, k):
    g = increment(k)
    s = compile_oracle_circuit(oc, g, Bitstring(1, oc.inputs))
    assert _assert_matches_reference(s, _ref_oracle_act(oc, g)) > 0


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
