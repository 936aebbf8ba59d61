"""Reversible circuits over {NOT, SWAP, CNOT, TOFFOLI, FREDKIN} and the two
lifts from ordinary boolean circuits into them.

Wire convention: wire 0 is the leftmost character of an assignment's text
form, i.e. the most significant bit.  Wire i therefore lives at bit position
``width - 1 - i`` of the integer encoding.  Every gate in the set is an
involution, so a circuit is inverted by reversing its gate list.  Both
kinds of circuit are evaluated on a list with one value per wire (a bit, or
an int64 0/1 array over many states: bit-slicing), so any width runs on
int64 arrays.  numpy is imported only by the whole-state-space functions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple

from .kernel import MAX_EXHAUSTIVE_WIDTH, Bijection, Bitstring, WidthMismatchError, cycle_lengths, iterate_bijection

if TYPE_CHECKING:
    import numpy as np

GATE_ARITY = {"not": 1, "swap": 2, "cnot": 2, "toffoli": 3, "fredkin": 3}

# Reversible gates emitted per boolean gate by the garbage-producing lift.
# OR costs six (two complementations on each input plus one on the result).
LIFT_GATE_FACTOR = 6


class CircuitError(ValueError):
    """Malformed circuit description."""


@dataclass(frozen=True)
class ReversibleGate:
    """One gate application; ``wires`` are distinct wire indices.

    Semantics: not a -> flip a; swap a b; cnot c t -> flip t if c;
    toffoli c1 c2 t -> flip t if c1 and c2; fredkin c a b -> swap a,b if c.
    """

    kind: str
    wires: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if len(self.wires) != GATE_ARITY[self.kind]:
            raise CircuitError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} wires, got {len(self.wires)}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise CircuitError(f"{self.kind} wires must be distinct, got {self.wires}")
        if any(w < 0 for w in self.wires):
            raise CircuitError("wire indices must be nonnegative")


def _run_wires(gates: Iterable[ReversibleGate], v: list) -> list:
    """Apply ``gates`` in place to ``v``, one value per wire, wire 0 first (a
    bit for one state, or an int64 0/1 array for many), and return ``v``."""
    for g in gates:
        w = g.wires
        kind = g.kind
        if kind == "not":
            v[w[0]] = 1 - v[w[0]]
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


@dataclass(frozen=True)
class ReversibleCircuit:
    width: int
    gates: Tuple[ReversibleGate, ...]

    def __post_init__(self) -> None:
        if self.width < 0:
            raise CircuitError("width must be nonnegative")
        for g in self.gates:
            if max(g.wires, default=-1) >= self.width:
                raise CircuitError(f"gate {g} references a wire beyond width {self.width}")

    def eval_int(self, value):
        """The circuit on an int, or elementwise on an array of states; bits
        above the width pass through."""
        wires = _run_wires(self.gates, _unpack(value, self.width))
        return _pack_bits(wires, value >> self.width)

    def eval_int_reversed(self, value):
        wires = _run_wires(reversed(self.gates), _unpack(value, self.width))
        return _pack_bits(wires, value >> self.width)

    def as_bijection(self, label: str = "") -> Bijection:
        return Bijection(
            self.width,
            self.eval_int,
            self.eval_int_reversed,
            label=label or "circuit",
            arrays=True,
        )


def gate(kind: str, *wires: int) -> ReversibleGate:
    return ReversibleGate(kind, tuple(wires))


# Exhaustive walks evaluate this many states per array, so memory stays near
# 32 KiB per live wire at any circuit width.
STATE_CHUNK = 1 << 12


def _state_chunks(count: int) -> Iterator[np.ndarray]:
    """States 0 .. count-1 in ascending int64 arrays of at most STATE_CHUNK."""
    import numpy as np

    for lo in range(0, count, STATE_CHUNK):
        yield np.arange(lo, min(count, lo + STATE_CHUNK))


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


MAX_PERMUTATION_WIDTH = 12


def permutation_of(circuit: ReversibleCircuit) -> List[int]:
    """The permutation of [0, 2**w) the circuit realizes; capped at w <= 12."""
    if circuit.width > MAX_PERMUTATION_WIDTH:
        raise CircuitError(
            f"width {circuit.width} exceeds permutation tabulation cap {MAX_PERMUTATION_WIDTH}"
        )
    import numpy as np

    return circuit.eval_int(np.arange(1 << circuit.width)).tolist()


def parity(perm: Sequence[int]) -> str:
    """'even' or 'odd', from cycle structure: sign = (-1)^(n - #cycles)."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    cycles = sum(1 for _ in cycle_lengths(perm.__getitem__, n))
    return "even" if (n - cycles) % 2 == 0 else "odd"


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


@dataclass(frozen=True)
class ClassicalGate:
    kind: str
    out: int
    args: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in CLASSICAL_ARITY:
            raise CircuitError(f"unknown boolean gate {self.kind!r}")
        if len(self.args) != CLASSICAL_ARITY[self.kind]:
            raise CircuitError(f"{self.kind} takes {CLASSICAL_ARITY[self.kind]} arguments")


@dataclass(frozen=True)
class ClassicalCircuit:
    """Acyclic boolean circuit: wires [0, inputs) are inputs, each gate
    writes one fresh wire, and ``outputs`` lists the designated result wires
    in text order (first listed is the most significant output bit)."""

    inputs: int
    gates: Tuple[ClassicalGate, ...]
    outputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.inputs < 0:
            raise CircuitError("input count must be nonnegative")
        defined = set(range(self.inputs))
        for g in self.gates:
            if g.out in defined:
                raise CircuitError(f"wire {g.out} written twice")
            for a in g.args:
                if a not in defined:
                    raise CircuitError(f"gate reads undefined wire {a}")
            defined.add(g.out)
        for w in self.outputs:
            if w not in defined:
                raise CircuitError(f"output names undefined wire {w}")

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


def _unpack(x, width: int) -> list:
    """The wires of a ``width``-bit state (an int, or elementwise an array),
    wire 0 first: wire i is bit ``width - 1 - i``."""
    return [(x >> (width - 1 - i)) & 1 for i in range(width)]


def _pack_bits(bits: Iterable, out=0):
    """Bits (ints or arrays), most significant first, packed after ``out``."""
    for b in bits:
        out = (out << 1) | b
    return out


def _eval_classical(circuit: ClassicalCircuit, inputs: list) -> list:
    """The output wires for a list of input wires (bits, or arrays)."""
    values = dict(enumerate(inputs))
    for g in circuit.gates:
        values[g.out] = _BOOL_FN[g.kind](*(values[a] for a in g.args))
    return [values[w] for w in circuit.outputs]


def eval_classical(circuit: ClassicalCircuit, x: Bitstring) -> Bitstring:
    if x.width != circuit.inputs:
        raise WidthMismatchError(
            f"input width {x.width} does not match circuit inputs {circuit.inputs}"
        )
    outputs = _eval_classical(circuit, _unpack(x.value, x.width))
    return Bitstring(_pack_bits(outputs), len(outputs))


@dataclass(frozen=True)
class LiftResult:
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
    import numpy as np

    if k <= MAX_EXHAUSTIVE_WIDTH:
        batches: Iterable[list] = (_unpack(x, k) for x in _state_chunks(1 << k))
    else:
        rng = random.Random(0)
        sample = [_unpack(rng.randrange(1 << k), k) for _ in range(1000)]
        batches = [[np.array(wire) for wire in zip(*sample)]]
    for x in batches:
        back = _eval_classical(cfi, _eval_classical(cf, x))
        bad = np.flatnonzero(np.any([b != a for a, b in zip(x, back)], axis=0))
        if bad.size:
            first = Bitstring(min(_pack_bits(int(a[i]) for a in x) for i in bad), k).to_text()
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


def circuit_parity_report(circuit: ReversibleCircuit) -> str:
    """Convenience: parity of the circuit's permutation."""
    return parity(permutation_of(circuit))


def verify_lift(lift: LiftResult, circuit: ClassicalCircuit) -> bool:
    """Exhaustively check a lift against its boolean circuit, every input at once."""
    k = circuit.inputs
    if k > MAX_EXHAUSTIVE_WIDTH:
        raise ValueError(f"exhaustive lift verification capped at {MAX_EXHAUSTIVE_WIDTH} input bits")
    if k != lift.payload_width:
        raise WidthMismatchError(f"payload width {k}, expected {lift.payload_width}")
    if len(lift.out_wires) != len(circuit.outputs):
        return False
    import numpy as np

    pad = [0] * (lift.circuit.width - k)
    for x in _state_chunks(1 << k):
        want = _eval_classical(circuit, _unpack(x, k))
        got = _run_wires(lift.circuit.gates, pad + _unpack(x, k))
        if not all(np.all(got[w] == b) for w, b in zip(lift.out_wires, want)):
            return False
    return True
