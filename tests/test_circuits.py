"""Reversible gate sets, parity, boolean circuits, and the two lifts."""

import dataclasses
import random

import numpy as np
import pytest

from ibx.circuits import (
    CLASSICAL_ARITY,
    GATE_ARITY,
    CircuitError,
    ClassicalCircuit,
    ClassicalGate,
    ReversibleCircuit,
    bennett_lift,
    circuit_parity_report,
    eval_classical,
    eval_reversible,
    exact_lift,
    gate,
    invert_circuit,
    iterate_circuit,
    negation_map,
    parity,
    permutation_of,
    reversible_to_classical,
    verify_lift,
)
from ibx.formats import write_circuit
from ibx.kernel import Bitstring, IterationProblem, check_bijection_exhaustive, iterate

from conftest import random_reversible_circuit


def test_gate_arities_are_fixed():
    assert GATE_ARITY == {"not": 1, "swap": 2, "cnot": 2, "toffoli": 3, "fredkin": 3}
    assert CLASSICAL_ARITY == {"and": 2, "or": 2, "xor": 2, "not": 1, "copy": 1}


def test_empty_circuit_is_identity():
    c = ReversibleCircuit(3, ())
    for v in range(8):
        assert c.eval_int(v) == v


def test_every_gate_is_an_involution():
    specimens = [
        gate("not", 2),
        gate("swap", 0, 3),
        gate("cnot", 1, 2),
        gate("toffoli", 0, 1, 3),
        gate("fredkin", 3, 0, 2),
    ]
    for g in specimens:
        c = ReversibleCircuit(4, (g, g))
        for v in range(16):
            assert c.eval_int(v) == v, g


def test_invert_reverses_gate_order(rng, make_circuit):
    for _ in range(20):
        c = make_circuit(rng, 5, 12)
        inv = invert_circuit(c)
        for v in range(32):
            assert inv.eval_int(c.eval_int(v)) == v


def test_iterate_circuit(rng, make_circuit):
    c = make_circuit(rng, 4, 8)
    x = Bitstring(rng.randrange(16), 4)
    expected = x
    for _ in range(7):
        expected = eval_reversible(c, expected)
    assert iterate_circuit(c, 7, x) == expected
    assert iterate_circuit(c, 0, x) == x


def test_iterate_circuit_huge_n_stops_at_the_orbit_return():
    c = ReversibleCircuit(3, (gate("toffoli", 0, 1, 2), gate("cnot", 2, 0), gate("not", 1)))
    f = c.as_bijection()
    n = 10**20
    for v in range(8):
        x = Bitstring(v, 3)
        orbit = 1
        while iterate(IterationProblem(f, orbit, x)) != x:
            orbit += 1
        assert orbit <= 8
        assert iterate_circuit(c, n, x) == iterate(IterationProblem(f, n % orbit, x))


def test_gate_rejects_bad_wiring():
    with pytest.raises(CircuitError):
        gate("cnot", 1, 1)
    with pytest.raises(CircuitError):
        gate("nand", 0, 1)
    with pytest.raises(CircuitError):
        ReversibleCircuit(2, (gate("not", 5),))


def _eval_by_wires(c, v):
    """Reference semantics: each gate rewrites a list of wire values."""
    bits = [(v >> (c.width - 1 - w)) & 1 for w in range(c.width)]
    for g in c.gates:
        w = g.wires
        if g.kind == "not":
            bits[w[0]] ^= 1
        elif g.kind == "swap":
            bits[w[0]], bits[w[1]] = bits[w[1]], bits[w[0]]
        elif g.kind == "cnot":
            bits[w[1]] ^= bits[w[0]]
        elif g.kind == "toffoli":
            bits[w[2]] ^= bits[w[0]] & bits[w[1]]
        elif bits[w[0]]:
            bits[w[1]], bits[w[2]] = bits[w[2]], bits[w[1]]
    return sum(b << (c.width - 1 - w) for w, b in enumerate(bits))


def test_array_eval_matches_scalar_eval_and_wire_semantics(rng):
    for width in range(13):
        kinds = [k for k, a in GATE_ARITY.items() if a <= width]
        gates = []
        for _ in range(rng.randint(0, 30) if kinds else 0):
            kind = rng.choice(kinds)
            gates.append(gate(kind, *rng.sample(range(width), GATE_ARITY[kind])))
        c = ReversibleCircuit(width, tuple(gates))
        states = range(1 << width)
        scalar = [c.eval_int(v) for v in states]
        assert scalar == [_eval_by_wires(c, v) for v in states], width
        assert c.eval_int(np.arange(1 << width)).tolist() == scalar
        assert permutation_of(c) == scalar
        assert c.eval_int_reversed(np.array(scalar)).tolist() == list(states)


def test_evaluation_leaves_circuit_values_alone(rng, make_circuit):
    a = make_circuit(rng, 6, 20)
    b = ReversibleCircuit(a.width, tuple(gate(g.kind, *g.wires) for g in a.gates))
    a.eval_int(5)
    a.eval_int_reversed(np.arange(64))
    assert vars(a) == vars(b)  # evaluation leaves no trace
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and "_program" not in repr(a)
    assert write_circuit(a) == write_circuit(b)


def test_permutation_of_identity():
    assert permutation_of(ReversibleCircuit(3, ())) == list(range(8))


def test_permutation_of_not_on_one_wire():
    assert permutation_of(ReversibleCircuit(1, (gate("not", 0),))) == [1, 0]


def test_permutation_of_cnot():
    # Control on wire 0 (text MSB): 00 and 01 fixed, 10 and 11 swap.
    c = ReversibleCircuit(2, (gate("cnot", 0, 1),))
    assert permutation_of(c) == [0, 1, 3, 2]


def test_parity_of_small_permutations():
    assert parity(range(8)) == "even"
    assert parity([1, 0, 2]) == "odd"
    assert parity([1, 2, 0]) == "even"


def test_negation_map_is_odd():
    f = negation_map(3)
    perm = [f.forward(v) for v in range(8)]
    assert parity(perm) == "odd"
    swapped = sum(1 for v in range(8) if perm[v] != v)
    assert swapped // 2 == (8 - 2) // 2  # three swapped pairs
    assert check_bijection_exhaustive(f).ok


def test_negation_map_widths():
    for w in range(2, 8):
        f = negation_map(w)
        perm = [f.forward(v) for v in range(1 << w)]
        assert parity(perm) == "odd"
        assert sum(1 for v in perm if perm[v] != v) == (1 << w) - 2


def test_narrow_gates_leave_parity_even(rng, make_circuit):
    for _ in range(40):
        width = rng.randint(2, 6)
        c = make_circuit(rng, width, 30)
        assert parity(permutation_of(c)) == "even"
        assert circuit_parity_report(c) == "even"


def test_full_width_gates_can_be_odd():
    assert circuit_parity_report(ReversibleCircuit(1, (gate("not", 0),))) == "odd"
    assert circuit_parity_report(ReversibleCircuit(2, (gate("swap", 0, 1),))) == "odd"


def test_eval_classical_basics():
    c_not = ClassicalCircuit(1, (ClassicalGate("not", 1, (0,)),), (1,))
    assert eval_classical(c_not, Bitstring.from_text("1")).to_text() == "0"
    c_and = ClassicalCircuit(2, (ClassicalGate("and", 2, (0, 1)),), (2,))
    assert eval_classical(c_and, Bitstring.from_text("11")).to_text() == "1"


def full_adder():
    """(a, b, cin) -> (carry, sum)."""
    gates = (
        ClassicalGate("xor", 3, (0, 1)),
        ClassicalGate("xor", 4, (3, 2)),
        ClassicalGate("and", 5, (0, 1)),
        ClassicalGate("and", 6, (3, 2)),
        ClassicalGate("or", 7, (5, 6)),
    )
    return ClassicalCircuit(3, gates, (7, 4))


def test_full_adder_truth_table():
    c = full_adder()
    assert eval_classical(c, Bitstring.from_text("111")).to_text() == "11"
    for v in range(8):
        x = Bitstring(v, 3)
        a, b, cin = x.bit(2), x.bit(1), x.bit(0)
        out = eval_classical(c, x)
        assert out.value == a + b + cin


def test_classical_circuit_rejects_rewrites():
    with pytest.raises(CircuitError):
        ClassicalCircuit(2, (ClassicalGate("not", 1, (0,)),), (1,))
    with pytest.raises(CircuitError):
        ClassicalCircuit(1, (ClassicalGate("not", 1, (3,)),), (1,))


def increment3():
    gates = (
        ClassicalGate("not", 3, (2,)),
        ClassicalGate("xor", 4, (1, 2)),
        ClassicalGate("and", 5, (1, 2)),
        ClassicalGate("xor", 6, (0, 5)),
    )
    return ClassicalCircuit(3, gates, (6, 4, 3))


def decrement3():
    gates = (
        ClassicalGate("not", 3, (2,)),
        ClassicalGate("xor", 4, (1, 3)),
        ClassicalGate("not", 5, (1,)),
        ClassicalGate("and", 6, (3, 5)),
        ClassicalGate("xor", 7, (0, 6)),
    )
    return ClassicalCircuit(3, gates, (7, 4, 3))


def test_increment_decrement_are_inverse():
    up, down = increment3(), decrement3()
    for v in range(8):
        x = Bitstring(v, 3)
        assert eval_classical(up, x).value == (v + 1) % 8
        assert eval_classical(down, x).value == (v - 1) % 8


def test_bennett_lift_identity():
    wiring = ClassicalCircuit(3, (), (0, 1, 2))
    lift = bennett_lift(wiring)
    for v in range(8):
        x = Bitstring(v, 3)
        final = eval_reversible(lift.circuit, lift.embed(x))
        assert lift.extract(final) == x
    assert verify_lift(lift, wiring)


def test_bennett_lift_matches_boolean_eval():
    c = full_adder()
    lift = bennett_lift(c)
    for v in range(8):
        x = Bitstring(v, 3)
        final = eval_reversible(lift.circuit, lift.embed(x))
        assert lift.extract(final) == eval_classical(c, x)
    assert verify_lift(lift, c)


def test_exact_lift_increment():
    lift = exact_lift(increment3(), decrement3())
    assert not lift.garbage_wires
    pad = lift.pad_len
    for v in range(8):
        x = Bitstring(v, 3)
        embedded = lift.embed(x)
        assert embedded.to_text() == "0" * pad + x.to_text()
        final = eval_reversible(lift.circuit, embedded)
        want = (v + 1) % 8
        assert final.to_text() == "0" * pad + Bitstring(want, 3).to_text()
    assert verify_lift(lift, increment3())


def test_exact_lift_pure_wiring_rotation(rng):
    width = 8
    cf = ClassicalCircuit(width, (), tuple(range(1, width)) + (0,))
    cfi = ClassicalCircuit(width, (), (width - 1,) + tuple(range(width - 1)))
    lift = exact_lift(cf, cfi)
    pad = lift.pad_len
    for _ in range(100):
        v = rng.randrange(1 << width)
        x = Bitstring(v, width)
        final = eval_reversible(lift.circuit, lift.embed(x))
        want = eval_classical(cf, x)
        assert final.to_text() == "0" * pad + want.to_text()


def test_exact_lift_rejects_a_pair_inverse_at_all_but_one_14_bit_input():
    k = 14
    odd_one = Bitstring.from_text("10110011100101")
    # cfi is the identity, except that it flips the last bit at odd_one.
    gates, match, fresh = [], None, k
    for i in range(k):
        literal = i
        if not odd_one.bit(k - 1 - i):
            gates.append(ClassicalGate("not", fresh, (i,)))
            literal, fresh = fresh, fresh + 1
        if match is not None:
            gates.append(ClassicalGate("and", fresh, (match, literal)))
            literal, fresh = fresh, fresh + 1
        match = literal
    gates.append(ClassicalGate("xor", fresh, (k - 1, match)))
    cfi = ClassicalCircuit(k, tuple(gates), tuple(range(k - 1)) + (fresh,))
    identity = ClassicalCircuit(k, (), tuple(range(k)))
    assert eval_classical(cfi, odd_one) != odd_one
    with pytest.raises(CircuitError, match="mutually inverse at input 10110011100101$"):
        exact_lift(identity, cfi)


def test_exact_lift_samples_wide_pairs():
    k = 70
    cf = ClassicalCircuit(k, (), tuple(range(1, k)) + (0,))
    cfi = ClassicalCircuit(k, (), (k - 1,) + tuple(range(k - 1)))
    lift = exact_lift(cf, cfi)
    sample = random.Random(1)
    for _ in range(20):
        x = Bitstring(sample.randrange(1 << k), k)
        final = eval_reversible(lift.circuit, lift.embed(x))
        assert lift.extract(final) == eval_classical(cf, x)
    with pytest.raises(CircuitError, match="not mutually inverse"):
        exact_lift(cf, cf)


def test_verify_lift_on_a_lift_wider_than_62_wires(rng, make_circuit):
    c = make_circuit(rng, 6, 40, min_gates=40)
    cf = reversible_to_classical(c)
    lift = exact_lift(cf, reversible_to_classical(invert_circuit(c)))
    assert lift.circuit.width > 62
    assert verify_lift(lift, cf)
    for v in range(64):
        x = Bitstring(v, 6)
        assert lift.extract(eval_reversible(lift.circuit, lift.embed(x))) == eval_reversible(c, x)
    # The last gate clears a scratch wire; flipping an output wire instead
    # changes every answer.
    gates = lift.circuit.gates[:-1] + (gate("not", lift.out_wires[-1]),)
    broken = dataclasses.replace(lift, circuit=ReversibleCircuit(lift.circuit.width, gates))
    assert not verify_lift(broken, cf)


def _refuse_object_arrays(monkeypatch):
    """Make numpy's arange and array raise when asked for dtype=object."""
    for name in ("arange", "array"):

        def guarded(*args, _real=getattr(np, name), **kwargs):
            if "dtype" in kwargs and np.dtype(kwargs["dtype"]) == np.dtype(object):
                raise AssertionError("built an object array")
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def test_wide_lifts_use_no_object_arrays(rng, make_circuit, monkeypatch):
    c = make_circuit(rng, 6, 40, min_gates=40)
    cf = reversible_to_classical(c)
    cfi = reversible_to_classical(invert_circuit(c))
    _refuse_object_arrays(monkeypatch)
    lift = exact_lift(cf, cfi)
    assert lift.circuit.width > 62
    assert verify_lift(lift, cf)
    k = 70
    rotate = ClassicalCircuit(k, (), tuple(range(1, k)) + (0,))
    exact_lift(rotate, ClassicalCircuit(k, (), (k - 1,) + tuple(range(k - 1))))
    with pytest.raises(CircuitError, match="not mutually inverse"):
        exact_lift(rotate, rotate)


def test_reversible_to_classical_round_trip(rng, make_circuit):
    for _ in range(10):
        width = rng.randint(1, 5)
        c = make_circuit(rng, max(width, 2), 10)
        conv = reversible_to_classical(c)
        for v in range(1 << c.width):
            x = Bitstring(v, c.width)
            assert eval_classical(conv, x) == eval_reversible(c, x)
