"""Reversible circuits over {NOT, SWAP, CNOT, TOFFOLI, FREDKIN} and the two
lifts from ordinary boolean circuits into them.

Wire convention: wire 0 is the leftmost character of an assignment's text
form, i.e. the most significant bit.  Wire i therefore lives at bit position
``width - 1 - i`` of the integer encoding.  Every gate in the set is an
involution, so a circuit is inverted by reversing its gate list.
``_run_wires`` is the one statement of what a gate does to a state: it runs
a list with one value per wire, a bit for one state or a Python int whose
bit j is the wire at state j of many (bit-slicing).  The exhaustive check's
round trip and the lift checks run a chunk of states so.  A reversible
circuit of at most ``MAX_PERMUTATION_WIDTH`` wires is also compiled once, at
construction, to one table of its whole map each way, an ``array`` of deltas
on the integer encoding, filled by running its gates on every state as
slices; a single Python int then takes one lookup, and its permutation, the
one image reader of a circuit, is read off the forward table.  A wider
circuit runs its wire list.  Boolean circuits evaluate single states on a
list of bits.  State slices and cycles come from ``kernel``; the module is
pure Python.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from functools import partial
from operator import xor
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .kernel import (MAX_EXHAUSTIVE_WIDTH, Bijection, Bitstring, WidthMismatchError, cycle_lengths,
                     _DIGITS, _Frozen, _VALUES, iterate_bijection, state_slices)

GATE_ARITY = {"not": 1, "swap": 2, "cnot": 2, "toffoli": 3, "fredkin": 3}
MAX_GATE_ARITY = max(GATE_ARITY.values())

# Reversible gates emitted per boolean gate by the garbage-producing lift.
# OR costs six (two complementations on each input plus one on the result).
LIFT_GATE_FACTOR = 6


class CircuitError(ValueError):
    """Malformed circuit description."""


class _GateFields(NamedTuple):
    kind: str
    wires: Tuple[int, ...]


class ReversibleGate(_GateFields):
    """One gate application; ``wires`` are distinct wire indices.

    Semantics: not a -> flip a; swap a b; cnot c t -> flip t if c;
    toffoli c1 c2 t -> flip t if c1 and c2; fredkin c a b -> swap a,b if c.
    Checked at construction.
    """

    __slots__ = ()

    def __new__(cls, kind: str, wires: Tuple[int, ...]) -> "ReversibleGate":
        if kind not in GATE_ARITY:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if len(wires) != GATE_ARITY[kind]:
            raise CircuitError(f"{kind} takes {GATE_ARITY[kind]} wires, got {len(wires)}")
        if len(set(wires)) != len(wires):
            raise CircuitError(f"{kind} wires must be distinct, got {wires}")
        if any(w < 0 for w in wires):
            raise CircuitError("wire indices must be nonnegative")
        return tuple.__new__(cls, (kind, wires))


def _run_wires(gates: Iterable[ReversibleGate], v: list, ones=1) -> list:
    """Apply ``gates`` in place to ``v``, one value per wire, wire 0 first,
    and return ``v``.  A value is a bit for one state, or a Python int whose
    bit j is the wire at state j of S sliced states; ``ones`` is the value
    whose every state is 1: 1 for a bit, 2**S - 1 for a slice.  Every
    evaluator of a reversible gate runs here: wide circuits on one state,
    whole-state tables, lifts and their checks, and the tables of ``_deltas``."""
    for kind, w in gates:
        if kind == "not":
            v[w[0]] ^= ones
        elif kind == "cnot":
            v[w[1]] ^= v[w[0]]
        elif kind == "toffoli":
            v[w[2]] ^= v[w[0]] & v[w[1]]
        elif kind == "swap":
            v[w[0]], v[w[1]] = v[w[1]], v[w[0]]
        else:  # fredkin: swap a and b where c is set
            c, a, b = w
            m = v[c] & (v[a] ^ v[b])
            v[a] ^= m
            v[b] ^= m
    return v


# The widest circuit tabulated whole: its table, and its permutation.
MAX_PERMUTATION_WIDTH = 12

# Per bit i of a byte lane, the translation of a delta slice's digits to one
# byte per state with bit i set where the wire changed.
_CHANGED = tuple(bytes.maketrans(b"01", bytes((0, 1 << i))) for i in range(8))


def _deltas(gates: Sequence[ReversibleGate], width: int) -> array:
    """The XOR that ``gates`` apply at every state of ``width`` wires: item x
    is ``y ^ x`` for the image y of x.  ``_run_wires`` runs the gates on all
    states at once, the one chunk of ``kernel.state_slices``; each wire's
    changes are read off its binary digits by ``bytes.translate``, eight
    wires to a byte lane, two lanes an item."""
    size = 1 << width
    (_, before), = state_slices(width)  # wire 0, the top state bit, first
    after = _run_wires(gates, list(before), (1 << size) - 1)
    lanes = [0, 0]
    for bit, (b, a) in enumerate(zip(before[::-1], after[::-1])):
        digits = format(b ^ a, f"0{size}b").encode()
        lanes[bit >> 3] |= int.from_bytes(digits.translate(_CHANGED[bit & 7]), "big")
    items = bytearray(2 * size)
    low = 0 if sys.byteorder == "little" else 1  # the low lane's byte in an item
    items[low::2] = lanes[0].to_bytes(size, "little")
    items[1 - low::2] = lanes[1].to_bytes(size, "little")
    return array("H", items)


class ReversibleCircuit(_Frozen):
    """A circuit of ``width`` wires.  One of at most
    ``MAX_PERMUTATION_WIDTH`` wires carries one table of its whole map each
    way, nots included, which ``_deltas`` fills from ``_run_wires`` at
    construction and keeps outside the compared fields: an ``array`` of
    deltas indexed by the state, at most 4096 entries whatever the gate
    count.  A wider circuit carries none and runs its wire list, so neither
    a huge width nor a long gate list builds huge tables."""

    _fields = ("width", "gates")
    width: int
    gates: Tuple[ReversibleGate, ...]

    # (mask, forward deltas, backward deltas) or None, set per instance at
    # widths <= MAX_PERMUTATION_WIDTH
    _table = None

    def __init__(self, width: int, gates: Tuple[ReversibleGate, ...]) -> None:
        if width < 0:
            raise CircuitError("width must be nonnegative")
        for g in gates:
            if max(g.wires, default=-1) >= width:
                raise CircuitError(f"gate {g} references a wire beyond width {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", gates)
        if width <= MAX_PERMUTATION_WIDTH:
            table = ((1 << width) - 1, _deltas(gates, width), _deltas(gates[::-1], width))
            object.__setattr__(self, "_table", table)

    def eval_int(self, value: int) -> int:
        """The circuit on the integer encoding of one state; bits above the
        width (and a negative int's sign) pass through.  A circuit with a
        table takes one lookup; one without runs its wire list."""
        if self._table is not None:
            mask, forward, _ = self._table
            return value ^ forward[value & mask]
        wires = _run_wires(self.gates, _unpack(value, self.width))
        return _pack_bits(wires, value >> self.width)

    def eval_int_reversed(self, value: int) -> int:
        """The inverse of ``eval_int``: one lookup in the backward table, or
        the wire list reversed."""
        if self._table is not None:
            mask, _, backward = self._table
            return value ^ backward[value & mask]
        wires = _run_wires(reversed(self.gates), _unpack(value, self.width))
        return _pack_bits(wires, value >> self.width)

    def table_sizes(self) -> List[int]:
        """The entry count of the forward table, ``[2**width]``; ``[]`` on
        the wire list."""
        return [] if self._table is None else [len(self._table[1])]

    def as_bijection(self) -> Bijection:
        return Bijection(
            self.width,
            self.eval_int,
            self.eval_int_reversed,
            label="circuit",
            sliced=(partial(_run_wires, self.gates), partial(_run_wires, self.gates[::-1])),
        )


def gate(kind: str, *wires: int) -> ReversibleGate:
    return ReversibleGate(kind, tuple(wires))


def eval_reversible(circuit: ReversibleCircuit, a: Bitstring) -> Bitstring:
    if a.width != circuit.width:
        raise WidthMismatchError(
            f"assignment width {a.width} does not match circuit width {circuit.width}"
        )
    return Bitstring(circuit.eval_int(a.value), circuit.width)


def invert_circuit(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Every gate in the set is its own inverse, so reversing the list suffices."""
    return ReversibleCircuit(circuit.width, tuple(reversed(circuit.gates)))


def iterate_circuit(circuit: ReversibleCircuit, n: int, a: Bitstring) -> Bitstring:
    return iterate_bijection(circuit.as_bijection(), n, a)


def permutation_of(circuit: ReversibleCircuit) -> List[int]:
    """The circuit's permutation of [0, 2**w), off its forward table; capped at w <= 12."""
    if circuit.width > MAX_PERMUTATION_WIDTH:
        raise CircuitError(
            f"width {circuit.width} exceeds permutation tabulation cap {MAX_PERMUTATION_WIDTH}"
        )
    forward = circuit._table[1]
    return list(map(xor, range(len(forward)), forward))


def parity(perm: Sequence[int]) -> str:
    """'even' or 'odd', from cycle structure: sign = (-1)^(n - #cycles).
    Raises ValueError when ``perm`` is not a permutation of [0, n)."""
    return "even" if (len(perm) - len(cycle_lengths(perm))) % 2 == 0 else "odd"


def circuit_parity(circuit: ReversibleCircuit) -> str:
    """Parity of the circuit's permutation.  A gate on m < w wires repeats
    its own permutation on 2**(w - m) copies, an even number, so it is even;
    no gate touches more than MAX_GATE_ARITY wires, so every circuit wider
    than that is even, without evaluating a state.  Narrower circuits count
    the cycles of their ``permutation_of``, at most 8 images."""
    if circuit.width > MAX_GATE_ARITY:
        return "even"
    return parity(permutation_of(circuit))


def negation_map(width: int) -> Bijection:
    """Two's-complement negation x -> (-x) mod 2**w.

    Fixes 0 and the top value 2**(w-1); the other values pair up into
    (2**w - 2) / 2 swapped pairs, so the permutation is odd for w > 1.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    size = 1 << width

    def neg(x: int) -> int:
        return (size - x) % size

    return Bijection(width, neg, neg, label=f"negate/{width}")


# ---------------------------------------------------------------------------
# Boolean circuits and their reversible lifts.

CLASSICAL_ARITY = {"and": 2, "or": 2, "xor": 2, "not": 1, "copy": 1}


class _ClassicalGateFields(NamedTuple):
    kind: str
    out: int
    args: Tuple[int, ...]


class ClassicalGate(_ClassicalGateFields):
    """One boolean gate writing wire ``out``, checked at construction."""

    __slots__ = ()

    def __new__(cls, kind: str, out: int, args: Tuple[int, ...]) -> "ClassicalGate":
        if kind not in CLASSICAL_ARITY:
            raise CircuitError(f"unknown boolean gate {kind!r}")
        if len(args) != CLASSICAL_ARITY[kind]:
            raise CircuitError(f"{kind} takes {CLASSICAL_ARITY[kind]} arguments")
        return tuple.__new__(cls, (kind, out, args))

    @property
    def reads(self) -> Tuple[int, ...]:
        return self.args

    @property
    def writes(self) -> Tuple[int, ...]:
        return (self.out,)


def _check_wiring(inputs: int, gates: Sequence, outputs: Sequence[int], error: type) -> None:
    """Raise ``error`` unless each gate reads only wires defined before it
    (the inputs [0, inputs) or an earlier gate's writes) and writes only
    fresh wires, and every output is defined."""
    defined = set(range(inputs))
    for g in gates:
        fresh = set()
        for w in g.writes:
            if w in defined or w in fresh:
                raise error(f"wire {w} written twice")
            fresh.add(w)
        for a in g.reads:
            if a not in defined:
                raise error(f"gate reads undefined wire {a}")
        defined |= fresh
    for w in outputs:
        if w not in defined:
            raise error(f"output names undefined wire {w}")


class _ClassicalCircuitFields(NamedTuple):
    inputs: int
    gates: Tuple[ClassicalGate, ...]
    outputs: Tuple[int, ...]


class ClassicalCircuit(_ClassicalCircuitFields):
    """Acyclic boolean circuit: wires [0, inputs) are inputs, each gate
    writes one fresh wire, and ``outputs`` lists the designated result wires
    in text order (first listed is the most significant output bit).  The
    wiring is checked at construction."""

    __slots__ = ()

    def __new__(cls, inputs: int, gates: Tuple[ClassicalGate, ...],
                outputs: Tuple[int, ...]) -> "ClassicalCircuit":
        if inputs < 0:
            raise CircuitError("input count must be nonnegative")
        _check_wiring(inputs, gates, outputs, CircuitError)
        return tuple.__new__(cls, (inputs, gates, outputs))

    @property
    def gate_wires(self) -> Tuple[int, ...]:
        return tuple(g.out for g in self.gates)


_BOOL_FN = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a: 1 - a,
    "copy": lambda a: a,
}


def _unpack(x: int, width: int) -> list:
    """The wires of a ``width``-bit state, wire i being bit ``width - 1 - i``,
    read off its binary digits in time linear in the width."""
    return list(format(x & (1 << width) - 1 | 1 << width, "b")[1:].encode().translate(_VALUES))


def _pack_bits(bits: Iterable[int], out: int = 0) -> int:
    """Bits, most significant first, packed after ``out``: ``_unpack``'s
    mirror, read as binary digits in time linear in their number."""
    raw = bytes(bits)
    return out << len(raw) | int(raw.translate(_DIGITS) or b"0", 2)


def _eval_classical(circuit: ClassicalCircuit, inputs: list, ones=1) -> list:
    """The output wires for a list of input wires (bits or slices, with
    ``ones`` as in ``_run_wires``)."""
    values = dict(enumerate(inputs))
    for kind, out, reads in circuit.gates:
        args = [values[a] for a in reads]
        values[out] = args[0] ^ ones if kind == "not" else _BOOL_FN[kind](*args)
    return [values[w] for w in circuit.outputs]


def _sliced(states: Sequence[int], k: int) -> list:
    """The wires of k-bit ``states`` as slices: wire i is the int whose bit j
    is wire i of states[j]."""
    columns = zip(*(format(x, f"0{k}b") for x in states))
    return [int("".join(column)[::-1], 2) for column in columns]


def eval_classical(circuit: ClassicalCircuit, x: Bitstring) -> Bitstring:
    if x.width != circuit.inputs:
        raise WidthMismatchError(
            f"input width {x.width} does not match circuit inputs {circuit.inputs}"
        )
    outputs = _eval_classical(circuit, _unpack(x.value, x.width))
    return Bitstring(_pack_bits(outputs), len(outputs))


class LiftResult(NamedTuple):
    """A reversible embedding of a boolean computation.

    The circuit acts on ``pad_len`` leading zero wires followed by the
    payload.  ``embed`` pads an input; ``extract`` reads the designated
    output, the wires ``out_wires`` in order, off a final assignment.
    ``garbage_wires`` lists the wires that end up holding junk intermediate
    values (empty for the exact lift).
    """

    circuit: ReversibleCircuit
    pad_len: int
    payload_width: int
    garbage_wires: Tuple[int, ...]
    out_wires: Tuple[int, ...]

    def embed(self, x: Bitstring) -> Bitstring:
        if x.width != self.payload_width:
            raise WidthMismatchError(f"payload width {x.width}, expected {self.payload_width}")
        return Bitstring(x.value, self.circuit.width)

    def extract(self, final: Bitstring) -> Bitstring:
        width = self.circuit.width
        if final.width != width:
            raise WidthMismatchError(f"assignment width {final.width}, expected {width}")
        wires = _unpack(final.value, width)
        return Bitstring(_pack_bits(wires[w] for w in self.out_wires), len(self.out_wires))


def _lift_gate_sequence(
    circuit: ClassicalCircuit, wire_of: Dict[int, int]
) -> List[ReversibleGate]:
    """Reversible encoding of each boolean gate into its zeroed target wire.

    Inputs are only used as controls (OR briefly complements them but puts
    them back), so the source wires are preserved and the whole sequence can
    be uncomputed by reversal.
    """
    gates: List[ReversibleGate] = []
    for g in circuit.gates:
        out = wire_of[g.out]
        args = [wire_of[a] for a in g.args]
        if g.kind in ("and", "or") and len(set(args)) == 1:
            gates.append(gate("cnot", args[0], out))  # x op x == x
        elif g.kind == "xor" and len(set(args)) == 1:
            pass  # x xor x == 0; target already holds zero
        elif g.kind == "and":
            gates.append(gate("toffoli", args[0], args[1], out))
        elif g.kind == "or":
            a, b = args
            gates.append(gate("not", a))
            gates.append(gate("not", b))
            gates.append(gate("toffoli", a, b, out))
            gates.append(gate("not", a))
            gates.append(gate("not", b))
            gates.append(gate("not", out))
        elif g.kind == "xor":
            gates.append(gate("cnot", args[0], out))
            gates.append(gate("cnot", args[1], out))
        elif g.kind == "not":
            gates.append(gate("cnot", args[0], out))
            gates.append(gate("not", out))
        else:  # copy
            gates.append(gate("cnot", args[0], out))
    return gates


def bennett_lift(circuit: ClassicalCircuit) -> LiftResult:
    """Garbage-producing reversible lift: one fresh zero wire per gate.

    Wire layout, left to right: garbage gate wires, designated gate wires,
    then the payload inputs.  Inputs survive on the payload wires; gate wires
    not named as outputs keep their intermediate values and are reported as
    garbage.  Gate count is at most LIFT_GATE_FACTOR per boolean gate.
    """
    k = circuit.inputs
    out_set = set(circuit.outputs)
    garbage_src = [w for w in circuit.gate_wires if w not in out_set]
    kept_src = [w for w in circuit.gate_wires if w in out_set]
    pad = len(circuit.gates)
    width = pad + k

    wire_of: Dict[int, int] = {}
    for idx, w in enumerate(garbage_src + kept_src):
        wire_of[w] = idx
    for i in range(k):
        wire_of[i] = pad + i

    lifted = ReversibleCircuit(width, tuple(_lift_gate_sequence(circuit, wire_of)))
    return LiftResult(
        circuit=lifted,
        pad_len=pad,
        payload_width=k,
        garbage_wires=tuple(range(len(garbage_src))),
        out_wires=tuple(wire_of[w] for w in circuit.outputs),
    )


def exact_lift(cf: ClassicalCircuit, cfi: ClassicalCircuit) -> LiftResult:
    """Garbage-free reversible lift of an invertible boolean function.

    Given circuits for a k-bit bijection f and for its inverse, produce a
    reversible circuit g with g(pad(x)) = pad(f(x)): the payload is replaced
    in place and every padding wire returns to zero.

    The construction XORs the payload into a scratch register, computes f
    there, folds f(x) back into the payload (making it x xor f(x)), uncomputes,
    refreshes the scratch to f(x), and repeats the dance with the inverse
    circuit to erase the leftover x.  Both sub-computations are uncomputed by
    reversal, which is what clears all the padding.
    """
    k = cf.inputs
    if cfi.inputs != k or len(cf.outputs) != k or len(cfi.outputs) != k:
        raise CircuitError("both circuits must map k bits to k bits")
    if k <= MAX_EXHAUSTIVE_WIDTH:
        batches: Iterable = state_slices(k)
    else:
        rng = random.Random(0)
        sample = sorted(rng.randrange(1 << k) for _ in range(1000))
        batches = [(sample, _sliced(sample, k))]
    for states, x in batches:
        ones = (1 << len(states)) - 1
        back = _eval_classical(cfi, _eval_classical(cf, x, ones), ones)
        wrong = 0
        for a, b in zip(x, back):
            wrong |= a ^ b
        if wrong:  # states ascend, so the lowest wrong bit is the first input
            first = Bitstring(states[(wrong & -wrong).bit_length() - 1], k).to_text()
            raise CircuitError(f"circuits are not mutually inverse at input {first}")

    anc_f = len(cf.gates)
    anc_i = len(cfi.gates)
    scratch0 = anc_f + anc_i  # start of the k scratch wires
    payload0 = scratch0 + k
    width = payload0 + k
    scratch = list(range(scratch0, scratch0 + k))
    payload = list(range(payload0, payload0 + k))

    map_f: Dict[int, int] = {i: scratch[i] for i in range(k)}
    for idx, w in enumerate(cf.gate_wires):
        map_f[w] = idx
    map_i: Dict[int, int] = {i: scratch[i] for i in range(k)}
    for idx, w in enumerate(cfi.gate_wires):
        map_i[w] = anc_f + idx

    sim_f = _lift_gate_sequence(cf, map_f)
    sim_i = _lift_gate_sequence(cfi, map_i)
    out_f = [map_f[w] for w in cf.outputs]
    out_i = [map_i[w] for w in cfi.outputs]

    def xor_into_scratch() -> List[ReversibleGate]:
        return [gate("cnot", payload[j], scratch[j]) for j in range(k)]

    gates: List[ReversibleGate] = []
    gates += xor_into_scratch()
    gates += sim_f
    gates += [gate("cnot", out_f[j], payload[j]) for j in range(k)]
    gates += reversed(sim_f)
    gates += xor_into_scratch()
    gates += sim_i
    gates += [gate("cnot", out_i[j], payload[j]) for j in range(k)]
    gates += reversed(sim_i)
    gates += xor_into_scratch()

    return LiftResult(
        circuit=ReversibleCircuit(width, tuple(gates)),
        pad_len=width - k,
        payload_width=k,
        garbage_wires=(),
        out_wires=tuple(payload),
    )


def reversible_to_classical(circuit: ReversibleCircuit) -> ClassicalCircuit:
    """Expand a reversible circuit into boolean gates, one fresh wire per
    intermediate value.  Used to feed reversible test functions to the lifts."""
    k = circuit.width
    cur = list(range(k))  # classical wire currently holding each circuit wire
    fresh = itertools.count(k)
    gates: List[ClassicalGate] = []

    def emit(kind: str, *args: int) -> int:
        out = next(fresh)
        gates.append(ClassicalGate(kind, out, tuple(args)))
        return out

    for g in circuit.gates:
        w = g.wires
        if g.kind == "not":
            cur[w[0]] = emit("not", cur[w[0]])
        elif g.kind == "swap":
            cur[w[0]], cur[w[1]] = cur[w[1]], cur[w[0]]
        elif g.kind == "cnot":
            cur[w[1]] = emit("xor", cur[w[1]], cur[w[0]])
        elif g.kind == "toffoli":
            t = emit("and", cur[w[0]], cur[w[1]])
            cur[w[2]] = emit("xor", cur[w[2]], t)
        else:  # fredkin: b' = b ^ m, c' = c ^ m with m = a & (b ^ c)
            u = emit("xor", cur[w[1]], cur[w[2]])
            m = emit("and", cur[w[0]], u)
            cur[w[1]] = emit("xor", cur[w[1]], m)
            cur[w[2]] = emit("xor", cur[w[2]], m)

    return ClassicalCircuit(k, tuple(gates), tuple(cur))


def verify_lift(lift: LiftResult, circuit: ClassicalCircuit) -> bool:
    """Exhaustively check a lift against its boolean circuit, a chunk of
    inputs at once as slices."""
    k = circuit.inputs
    if k > MAX_EXHAUSTIVE_WIDTH:
        raise ValueError(f"exhaustive lift verification capped at {MAX_EXHAUSTIVE_WIDTH} input bits")
    if k != lift.payload_width:
        raise WidthMismatchError(f"payload width {k}, expected {lift.payload_width}")
    if len(lift.out_wires) != len(circuit.outputs):
        return False
    pad = [0] * (lift.circuit.width - k)
    for states, x in state_slices(k):
        ones = (1 << len(states)) - 1
        want = _eval_classical(circuit, x, ones)
        got = _run_wires(lift.circuit.gates, pad + x, ones)
        if any(got[w] != b for w, b in zip(lift.out_wires, want)):
            return False
    return True
