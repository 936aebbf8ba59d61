"""Reversible gate sets, parity, boolean circuits, and the two lifts."""

import dataclasses
import itertools
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibx.circuits import (
    CLASSICAL_ARITY,
    GATE_ARITY,
    CircuitError,
    ClassicalCircuit,
    ClassicalGate,
    MAX_PERMUTATION_WIDTH,
    _pack_bits,
    _run_wires,
    _unpack,
    ReversibleCircuit,
    bennett_lift,
    circuit_parity,
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
from ibx.formats import MAX_WIRES, write_circuit
from ibx.kernel import (
    MAX_EXHAUSTIVE_WIDTH,
    Bitstring,
    check_bijection_exhaustive,
    images,
    iterate,
)

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
        while iterate(f, orbit, x) != x:
            orbit += 1
        assert orbit <= 8
        assert iterate_circuit(c, n, x) == iterate(f, n % orbit, x)


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


def test_sliced_eval_matches_scalar_eval_and_wire_semantics(rng):
    """The whole-map tables, which ``_deltas`` fills from sliced runs of the
    gates, both ways, read by ``eval_int``, ``permutation_of`` and
    ``images``, against the one-state wire rule."""
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
        assert permutation_of(c) == scalar
        back = list(images(c.as_bijection().inverse()))
        assert [back[y] for y in scalar] == list(states)
        assert list(images(invert_circuit(c).as_bijection())) == [c.eval_int_reversed(v) for v in states]


def _every_kind_circuit(rng, width, count, not_share):
    """One gate of each kind that fits, then ``count`` more, a ``not_share``
    of them nots, in a shuffled order."""
    kinds = [k for k, a in GATE_ARITY.items() if a <= width]
    picks = list(kinds)
    for _ in range(count if kinds else 0):
        picks.append("not" if rng.random() < not_share else rng.choice(kinds))
    rng.shuffle(picks)
    return ReversibleCircuit(
        width, tuple(gate(k, *rng.sample(range(width), GATE_ARITY[k])) for k in picks)
    )


def test_scalar_steps_match_the_wire_rule_both_ways(rng):
    for width in range(13):
        for not_share in (0.0, 0.5, 0.9):
            c = _every_kind_circuit(rng, width, rng.randint(0, 40), not_share)
            undo = invert_circuit(c)
            states = range(1 << width)
            assert [c.eval_int(v) for v in states] == [_eval_by_wires(c, v) for v in states]
            assert [c.eval_int_reversed(v) for v in states] == [_eval_by_wires(undo, v) for v in states]


def test_every_circuit_of_up_to_three_gates_on_three_wires_matches_the_wire_rule():
    """Every kind on every ordered wire choice, in every sequence of at most
    three gates: a not before, between and after each other kind, on a
    control, a target or either side of a swap or fredkin."""
    gates = [gate(kind, *wires) for kind, arity in GATE_ARITY.items()
             for wires in itertools.permutations(range(3), arity)]
    states = list(range(8))
    for count in range(4):
        for gs in itertools.product(gates, repeat=count):
            c = ReversibleCircuit(3, gs)
            ys = [_eval_by_wires(c, v) for v in states]
            assert [c.eval_int(v) for v in states] == ys, gs
            assert [c.eval_int_reversed(y) for y in ys] == states, gs


@pytest.mark.parametrize("width", range(MAX_PERMUTATION_WIDTH, MAX_EXHAUSTIVE_WIDTH + 2))
def test_scalar_evaluation_on_both_sides_of_the_lowering_cap(rng, width):
    """Circuits are lowered to one table up to MAX_PERMUTATION_WIDTH wires."""
    c = _every_kind_circuit(rng, width, 80, 0.3)
    undo = invert_circuit(c)
    # the widest circuit with a table carries it; one wire wider carries none
    assert (set(vars(c)) > {"width", "gates"}) == (width <= MAX_PERMUTATION_WIDTH)
    assert c.table_sizes() == ([1 << width] if width <= MAX_PERMUTATION_WIDTH else [])
    for v in (rng.randrange(1 << width) for _ in range(200)):
        y, back = _eval_by_wires(c, v), _eval_by_wires(undo, v)
        assert (c.eval_int(v), c.eval_int_reversed(v)) == (y, back)
        # bits above the width, and a negative int's sign, pass through
        assert c.eval_int(v | 1 << 50) == y | 1 << 50
        assert c.eval_int_reversed(v | 1 << 50) == back | 1 << 50
        assert c.eval_int(v - (1 << 60)) == y - (1 << 60)
        assert c.eval_int_reversed(v - (1 << 60)) == back - (1 << 60)
        assert int(c.eval_int(np.int64(v))) == y
        assert int(c.eval_int_reversed(np.int64(v))) == back


def _sample_states(rng, width):
    return range(1 << width) if width <= 12 else [rng.randrange(1 << width) for _ in range(300)]


@pytest.mark.parametrize("width", [1, 3, 7, 12, 16, MAX_EXHAUSTIVE_WIDTH])
def test_fused_edge_circuits_match_the_wire_rule(rng, width):
    """The empty circuit, an all-not circuit and every single-gate circuit
    that fits, both ways."""
    cases = [
        ReversibleCircuit(width, ()),
        ReversibleCircuit(width, tuple(gate("not", rng.randrange(width)) for _ in range(9))),
    ]
    for kind, arity in GATE_ARITY.items():
        if arity <= width:
            cases.append(ReversibleCircuit(width, (gate(kind, *rng.sample(range(width), arity)),)))
    for c in cases:
        undo = invert_circuit(c)
        for v in _sample_states(rng, width):
            assert c.eval_int(v) == _eval_by_wires(c, v), c
            assert c.eval_int_reversed(v) == _eval_by_wires(undo, v), c


@pytest.mark.parametrize("width", range(MAX_PERMUTATION_WIDTH + 1))
def test_narrow_circuits_step_by_one_whole_table(rng, width):
    """Up to MAX_PERMUTATION_WIDTH wires, every circuit, the empty and the
    nots-only ones too, has one table each way: an array of 16-bit deltas,
    indexed by the state.  On every state both ways equal ``_run_wires``,
    and bits above the width and a negative int's sign pass through."""
    cases = [
        ReversibleCircuit(width, ()),
        ReversibleCircuit(width, tuple(gate("not", rng.randrange(width)) for _ in range(9 if width else 0))),
        _every_kind_circuit(rng, width, 30, 0.5),
        _every_kind_circuit(rng, width, 60, 0.1),
    ]
    for c in cases:
        mask, forward, backward = c._table
        assert mask == (1 << width) - 1
        assert c.table_sizes() == [1 << width]
        for table in (forward, backward):
            assert isinstance(table, array) and table.typecode == "H" and len(table) == 1 << width
        for v in range(1 << width):
            y = _pack_bits(_run_wires(c.gates, _unpack(v, width)))
            back = _pack_bits(_run_wires(c.gates[::-1], _unpack(v, width)))
            assert (c.eval_int(v), c.eval_int_reversed(v)) == (y, back), c
            assert c.eval_int_reversed(y) == v
            for high in (5 << width, -(1 << width + 7)):
                assert c.eval_int(v + high) == y + high
                assert c.eval_int_reversed(v + high) == back + high


def test_wide_circuits_carry_no_tables():
    for width in (MAX_EXHAUSTIVE_WIDTH + 1, MAX_WIRES):
        top = width - 1
        c = ReversibleCircuit(width, (gate("fredkin", 0, top // 2, top), gate("not", top)))
        assert set(vars(c)) == {"width", "gates"}
        assert c.eval_int(0) == 1 and c.eval_int_reversed(1) == 0


def test_evaluation_leaves_circuit_values_alone(rng, make_circuit):
    a = make_circuit(rng, 6, 20)
    b = ReversibleCircuit(a.width, tuple(gate(g.kind, *g.wires) for g in a.gates))
    a.eval_int(5)
    a.eval_int_reversed(5)
    assert check_bijection_exhaustive(a.as_bijection()).ok  # runs both sliced evaluators
    assert vars(a) == vars(b)  # evaluation leaves no trace
    assert a == b and hash(a) == hash(b)
    # the repr shows the two fields and nothing the construction added
    assert repr(a) == repr(b) == f"ReversibleCircuit(width={a.width!r}, gates={a.gates!r})"
    assert write_circuit(a) == write_circuit(b)


def _literal_pack(bits, out=0):
    """The bit packer as a literal loop: one shift of the whole int per bit."""
    for b in bits:
        out = (out << 1) | b
    return out


@pytest.mark.parametrize("width", [0, 1, 2, 21, 63, 64, 65, 1000, 65_536, 131_073])
def test_bit_packer_equals_the_literal_loop(rng, width):
    bits = [rng.getrandbits(1) for _ in range(width)]
    assert _pack_bits(iter(bits)) == _literal_pack(bits)
    for out in (-5, (1 << 21) - 1)[: 1 if width > 1000 else 2]:  # the literal loop is O(width**2)
        assert _pack_bits(bits, out) == _literal_pack(bits, out)
    if width <= 21:  # numpy prefixes, as a state drawn from an int64 array
        for out in (np.int64(-3), np.int64((1 << 21) - 1)):
            got, want = _pack_bits(bits, out), _literal_pack(bits, out)
            assert got == want and type(got) is type(want) is np.int64


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


def test_closed_form_parity_matches_the_cycle_count(rng):
    kinds = list(GATE_ARITY)
    for _ in range(60):
        width = rng.randint(4, 10)
        gates = []
        for _ in range(rng.randint(0, 25)):
            kind = rng.choice(kinds)
            gates.append(gate(kind, *rng.sample(range(width), GATE_ARITY[kind])))
        c = ReversibleCircuit(width, tuple(gates))
        assert circuit_parity(c) == parity(permutation_of(c)) == "even"


def test_narrow_circuit_parity_reads_the_table(rng):
    for width in (1, 2, 3):
        for count in range(4):
            c = ReversibleCircuit(width, tuple(gate("not", rng.randrange(width)) for _ in range(count)))
            assert circuit_parity(c) == parity(permutation_of(c))
    assert circuit_parity(ReversibleCircuit(3, (gate("toffoli", 0, 1, 2),))) == "odd"


def test_full_width_gates_can_be_odd():
    assert parity(permutation_of(ReversibleCircuit(1, (gate("not", 0),)))) == "odd"
    assert parity(permutation_of(ReversibleCircuit(2, (gate("swap", 0, 1),)))) == "odd"


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


# The lift checks run a chunk of states at once, one Python int per wire.
# These are the same checks one state at a time.


def scalar_first_non_inverse(cf, cfi):
    """The least input x with cfi(cf(x)) != x among every input, or above
    MAX_EXHAUSTIVE_WIDTH among exact_lift's 1000 seeded samples; None if
    there is none."""
    k = cf.inputs
    if k <= MAX_EXHAUSTIVE_WIDTH:
        inputs = range(1 << k)
    else:
        sample = random.Random(0)
        inputs = [sample.randrange(1 << k) for _ in range(1000)]
    bad = [x for x in inputs if eval_classical(cfi, eval_classical(cf, Bitstring(x, k))).value != x]
    return min(bad, default=None)


def scalar_verify_lift(lift, circuit):
    k = circuit.inputs
    if len(lift.out_wires) != len(circuit.outputs):
        return False
    for v in range(1 << k):
        x = Bitstring(v, k)
        if lift.extract(eval_reversible(lift.circuit, lift.embed(x))) != eval_classical(circuit, x):
            return False
    return True


def lift_pair(r, k, max_gates):
    """A circuit on k wires as a boolean circuit, and a boolean circuit for
    its inverse, or half the time for the inverse of the circuit with one
    gate dropped, which is wrong on some inputs or on none."""
    c = random_reversible_circuit(r, k, max_gates)
    other = c
    if r.random() < 0.5:
        drop = r.randrange(len(c.gates))
        other = ReversibleCircuit(k, c.gates[:drop] + c.gates[drop + 1 :])
    return reversible_to_classical(c), reversible_to_classical(invert_circuit(other))


def assert_inverse_check_is_the_scalar_one(cf, cfi):
    first = scalar_first_non_inverse(cf, cfi)
    if first is None:
        return exact_lift(cf, cfi)
    want = Bitstring(first, cf.inputs).to_text()
    with pytest.raises(CircuitError, match=f"^circuits are not mutually inverse at input {want}$"):
        exact_lift(cf, cfi)
    return None


@settings(max_examples=40, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_sliced_lift_checks_equal_the_scalar_loop(r):
    k = r.randint(2, 7)
    cf, cfi = lift_pair(r, k, 12)
    lift = assert_inverse_check_is_the_scalar_one(cf, cfi)
    lifts = [bennett_lift(cf)] + ([lift] if lift else [])
    for good in lifts:
        # one gate more, on a random wire, breaks some answers or none
        broken = dataclasses.replace(good, circuit=ReversibleCircuit(
            good.circuit.width, good.circuit.gates + (gate("not", r.randrange(good.circuit.width)),)))
        for candidate in (good, broken):
            assert verify_lift(candidate, cf) == scalar_verify_lift(candidate, cf)
        assert verify_lift(good, cf)


@settings(max_examples=6, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_sliced_inverse_check_above_the_exhaustive_width_equals_the_scalar_loop(r):
    # 1000 seeded samples instead of every input; toffoli gates make a
    # dropped gate wrong on only some of them
    k = r.randint(MAX_EXHAUSTIVE_WIDTH + 1, MAX_EXHAUSTIVE_WIDTH + 4)
    c = random_reversible_circuit(r, k, 6)
    c = ReversibleCircuit(k, c.gates + (gate("toffoli", *r.sample(range(k), 3)),))
    drop = r.randrange(len(c.gates))
    for other in (c, ReversibleCircuit(k, c.gates[:drop] + c.gates[drop + 1 :])):
        assert_inverse_check_is_the_scalar_one(
            reversible_to_classical(c), reversible_to_classical(invert_circuit(other)))


def test_the_first_failing_input_is_the_least_one_in_any_chunk():
    # cf flips the last wire where the first two are set, so the inputs
    # from 3 * 2**(k-2) up fail; from k = 13 the first lies past chunk 0
    for k in (3, 5, 12, 13, 15):
        cf = reversible_to_classical(ReversibleCircuit(k, (gate("toffoli", 0, 1, k - 1),)))
        identity = ClassicalCircuit(k, (), tuple(range(k)))
        assert scalar_first_non_inverse(cf, identity) == 3 << (k - 2)
        assert_inverse_check_is_the_scalar_one(cf, identity)


def test_reversible_to_classical_round_trip(rng, make_circuit):
    for _ in range(10):
        width = rng.randint(1, 5)
        c = make_circuit(rng, max(width, 2), 10)
        conv = reversible_to_classical(c)
        for v in range(1 << c.width):
            x = Bitstring(v, c.width)
            assert eval_classical(conv, x) == eval_reversible(c, x)
