"""Compilers that turn questions about arbitrary maps into pure iteration.

Each compiler emits a Schedule: a bijection g, an exact iteration count, a
start state, and an extraction map, with the contract that running g for
exactly that many steps from the start and extracting yields the answer.

The clocked bijections here share a discipline: a wide counter c1 and a
narrow counter c2 are packed in front of the payload fields, each step first
ticks the clock (c2, carrying into c1 on wraparound), and the payload action
is keyed by the value c2 showed when the step began.  States whose counter
fields decode out of range are fixed points, which keeps every map total.
ClockedCodec is the single place that lays out the (c1, c2, payload) bits:
the clocked steps, the start states and the extraction maps all go through
its split and join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .kernel import (
    Bijection,
    Bitstring,
    WidthMismatchError,
    from_permutation,
    iterate_bijection,
)


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ClockedState:
    c1: int
    c2: int
    payload: Tuple[int, ...]


@dataclass(frozen=True)
class ClockedCodec:
    """Bit packing for (c1, c2, payload...) states, first field most
    significant.

    Field widths are the minimum that hold modulus-1.  The shifts and masks
    are computed once, at construction, into two closures: ``split`` reads a
    state as (c1, c2, payload), or None when a counter is at or beyond its
    modulus, and ``join`` packs the fields back, raising ValueError for a
    field that does not fit its width.  A clocked step calls them directly;
    decode and encode wrap them for ClockedState values.
    """

    m_big: int
    m_small: int
    payload_widths: Tuple[int, ...]
    widths: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    split: Callable[[int], Optional[Tuple[int, int, Tuple[int, ...]]]] = field(
        init=False, repr=False, compare=False
    )
    join: Callable[[int, int, Tuple[int, ...]], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m_big, m_small = self.m_big, self.m_small
        w1 = max(1, (m_big - 1).bit_length())
        w2 = max(1, (m_small - 1).bit_length())
        widths = (w1, w2) + self.payload_widths
        s1, s2, *shifts = [sum(widths[i + 1 :]) for i in range(len(widths))]
        mask1, mask2 = (1 << w1) - 1, (1 << w2) - 1
        fields = tuple(zip(shifts, [(1 << w) - 1 for w in self.payload_widths]))

        def split(value: int) -> Optional[Tuple[int, int, Tuple[int, ...]]]:
            c1, c2 = (value >> s1) & mask1, (value >> s2) & mask2
            if c1 >= m_big or c2 >= m_small:
                return None
            return c1, c2, tuple([(value >> s) & m for s, m in fields])

        def join(c1: int, c2: int, payload: Tuple[int, ...]) -> int:
            if not (0 <= c1 <= mask1 and 0 <= c2 <= mask2):
                raise ValueError(f"counters ({c1}, {c2}) do not fit in ({w1}, {w2}) bits")
            acc = c1 << s1 | c2 << s2
            for p, (s, m) in zip(payload, fields):
                if not 0 <= p <= m:
                    raise ValueError(f"payload value {p} does not fit in {m.bit_length()} bits")
                acc |= p << s
            return acc

        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "width", sum(widths))
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "join", join)

    def encode(self, state: ClockedState) -> int:
        return self.join(state.c1, state.c2, state.payload)

    def decode(self, value: int) -> Optional[ClockedState]:
        parts = self.split(value)
        return None if parts is None else ClockedState(*parts)


@dataclass(frozen=True)
class Schedule:
    """A compiled iteration job.  ``codec`` is set by the clocked compilers
    so callers can inspect intermediate states."""

    g: Bijection
    total_iterations: int
    start: Bitstring
    extract: Callable[[Bitstring], Bitstring]
    codec: Optional[ClockedCodec] = None

    def __post_init__(self) -> None:
        if self.total_iterations < 0:
            raise ReductionError("iteration total must be nonnegative")
        if self.start.width != self.g.width:
            raise WidthMismatchError("schedule start width does not match its bijection")


PayloadAction = Callable[[int, int, Tuple[int, ...], bool], Tuple[int, ...]]


def _clocked(codec: ClockedCodec, act: PayloadAction, label: str) -> Bijection:
    """The clocked bijection over ``codec``'s states.

    Forward ticks c2, carrying into c1 on wraparound, and transforms the
    payload by ``act(c1, c2, payload, False)`` keyed by the hands the step
    began with.  Backward unticks first, then undoes the action with
    ``act(c1, c2, payload, True)`` keyed by the same hands.
    """
    m_big, m_small = codec.m_big, codec.m_small
    split, join = codec.split, codec.join

    def fwd(v: int) -> int:
        st = split(v)
        if st is None:
            return v
        c1, c2, payload = st
        payload = act(c1, c2, payload, False)
        c2 += 1
        if c2 == m_small:
            c1, c2 = (c1 + 1) % m_big, 0
        return join(c1, c2, payload)

    def back(v: int) -> int:
        st = split(v)
        if st is None:
            return v
        c1, c2, payload = st
        c2 -= 1
        if c2 < 0:
            c1, c2 = (c1 - 1) % m_big, m_small - 1
        return join(c1, c2, act(c1, c2, payload, True))

    return Bijection(codec.width, fwd, back, label=label)


def run_schedule(schedule: Schedule) -> Bitstring:
    final = iterate_bijection(schedule.g, schedule.total_iterations, schedule.start)
    return schedule.extract(final)


MAX_SWEEP_WIDTH = 20
MAX_CLOCK_WIDTH = 8


def inversion_by_iteration(f: Bijection, x: Bitstring) -> Schedule:
    """Collapse a pointwise question about f into pure iteration.

    The emitted g walks a counter a over every k-bit value while adding
    ftilde(a) into an accumulator b, where ftilde(y) is f(y) when y = x and
    zero otherwise.  Exactly one term of the sweep is nonzero, so after all
    2**k steps b holds f(x).  The point is the shape of the reduction, not
    the answer: any function with a cheap point test (the inverse of f
    included, via the indicator f(y) = x) can be summed out the same way,
    and g itself only ever consults f forward.
    """
    k = f.width
    if k > MAX_SWEEP_WIDTH:
        raise ReductionError(f"width {k} exceeds sweep cap {MAX_SWEEP_WIDTH}")
    if x.width != k:
        raise WidthMismatchError("target width does not match bijection width")
    size = 1 << k
    mask = size - 1
    target = x.value

    def ftilde(a: int) -> int:
        return f.forward(a) if a == target else 0

    def fwd(v: int) -> int:
        a, b = (v >> k) & mask, v & mask
        return ((a + 1) & mask) << k | (b + ftilde(a)) & mask

    def back(v: int) -> int:
        a, b = (v >> k) & mask, v & mask
        prev = (a - 1) & mask
        return prev << k | (b - ftilde(prev)) & mask

    g = Bijection(2 * k, fwd, back, label=f"sweep-sum[{f.label}]")

    def extract(final: Bitstring) -> Bitstring:
        return Bitstring(final.value & mask, k)

    return Schedule(g, size, Bitstring(0, 2 * k), extract)


def compile_iteration_to_invertible(f: Bijection, n: int, x: Bitstring) -> Schedule:
    """Compile "apply f n times to x" into iterating one invertible map.

    f may be handed over forward-only; the compiled g is still invertible.
    g acts on tuples (c1, c2, a, b, c).  One full little-hand cycle of
    M = 2**k + 3 steps advances a by one application of f:

      c2 = 0            b ^= f(a)        (stash the image)
      c2 = 1            a ^= b           (a becomes a ^ f(a))
      1 < c2 < 2**k+2   if f(c) = b: a ^= c; then c += 1 mod 2**k
                        (sweep c over all candidates; only c = old a fires,
                         leaving a = f(a))
      c2 = 2**k+2       b ^= a           (clear the stash)

    The clock ticks first each step, but the payload action is keyed by the
    pre-tick c2, so starting from (0,0,x,0,0) the c2=0 action runs on the
    very first step.  After n*M steps the a field holds f applied n times.
    """
    k = f.width
    if k > MAX_CLOCK_WIDTH:
        raise ReductionError(f"width {k} exceeds clock cap {MAX_CLOCK_WIDTH}")
    if x.width != k:
        raise WidthMismatchError("input width does not match bijection width")
    if n < 0:
        raise ReductionError("iteration count must be nonnegative")
    size = 1 << k
    mask = size - 1
    m_small = size + 3
    m_big = n + 1
    codec = ClockedCodec(m_big, m_small, (k, k, k))
    sweep_end = size + 2

    def act(c1: int, c2: int, payload: Tuple[int, ...], reverse: bool) -> Tuple[int, ...]:
        a, b, c = payload
        if c2 == 0:
            return a, b ^ f.forward(a), c
        if c2 == 1:
            return a ^ b, b, c
        if c2 < sweep_end:
            if reverse:
                c = (c - 1) & mask
            if f.forward(c) == b:
                a ^= c
            return a, b, c if reverse else (c + 1) & mask
        return a, b ^ a, c  # c2 == sweep_end, the last little-hand value

    g = _clocked(codec, act, f"clock[{f.label}]")
    start = Bitstring(codec.encode(ClockedState(0, 0, (x.value, 0, 0))), codec.width)

    def extract(final: Bitstring) -> Bitstring:
        st = codec.decode(final.value)
        if st is None:
            raise ReductionError("final state decodes out of range")
        return Bitstring(st.payload[0], k)

    return Schedule(g, n * m_small, start, extract, codec=codec)


# ---------------------------------------------------------------------------
# Oracle circuits: boolean circuits with extra gates that iterate a bijection.


@dataclass(frozen=True)
class OracleGate:
    """t := g^(n)(s), where n is read off the n_wires as a binary numeral
    (first listed wire most significant) and s, t have the oracle's width."""

    n_wires: Tuple[int, ...]
    s_wires: Tuple[int, ...]
    t_wires: Tuple[int, ...]


@dataclass(frozen=True)
class OracleCircuit:
    inputs: int
    gates: Tuple[object, ...]  # ClassicalGate | OracleGate, in dependency order
    outputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        from .circuits import ClassicalGate

        defined = set(range(self.inputs))
        for g in self.gates:
            if isinstance(g, ClassicalGate):
                if g.out in defined:
                    raise ReductionError(f"wire {g.out} written twice")
                for a in g.args:
                    if a not in defined:
                        raise ReductionError(f"gate reads undefined wire {a}")
                defined.add(g.out)
            elif isinstance(g, OracleGate):
                for a in g.n_wires + g.s_wires:
                    if a not in defined:
                        raise ReductionError(f"oracle gate reads undefined wire {a}")
                for t in g.t_wires:
                    if t in defined:
                        raise ReductionError(f"wire {t} written twice")
                    defined.add(t)
                if len(set(g.t_wires)) != len(g.t_wires):
                    raise ReductionError("oracle target wires must be distinct")
            else:
                raise ReductionError(f"unknown gate object {g!r}")
        for w in self.outputs:
            if w not in defined:
                raise ReductionError(f"output names undefined wire {w}")

    def all_wires(self) -> List[int]:
        wires = set(range(self.inputs))
        for g in self.gates:
            if isinstance(g, OracleGate):
                wires.update(g.n_wires + g.s_wires + g.t_wires)
            else:
                wires.add(g.out)
                wires.update(g.args)
        wires.update(self.outputs)
        return sorted(wires)

    def max_oracle_count(self) -> int:
        worst = 0
        for g in self.gates:
            if isinstance(g, OracleGate):
                worst = max(worst, (1 << len(g.n_wires)) - 1)
        return worst


def eval_oracle_circuit(oc: OracleCircuit, g_oracle: Bijection, x: Bitstring) -> Bitstring:
    """Direct evaluator, used as the oracle the compiled schedule is tested
    against."""
    from .circuits import _BOOL_FN, ClassicalGate, _pack_bits

    if x.width != oc.inputs:
        raise WidthMismatchError("input width does not match circuit inputs")
    k = oc.inputs
    values = {i: x.bit(k - 1 - i) for i in range(k)}
    for g in oc.gates:
        if isinstance(g, ClassicalGate):
            values[g.out] = _BOOL_FN[g.kind](*(values[a] for a in g.args))
        else:
            count = _pack_bits(values[w] for w in g.n_wires)
            s = Bitstring(_pack_bits(values[w] for w in g.s_wires), len(g.s_wires))
            if g_oracle.width != len(g.s_wires):
                raise WidthMismatchError("oracle width does not match s wires")
            t = iterate_bijection(g_oracle, count, s)
            for idx, w in enumerate(g.t_wires):
                values[w] = t.bit(len(g.t_wires) - 1 - idx)
    return Bitstring(_pack_bits(values[w] for w in oc.outputs), len(oc.outputs))


def _inverse_via_table(f: Bijection) -> Callable[[int], int]:
    if f.width > 16:
        raise ReductionError(
            "oracle bijection carries no backward evaluator and is too wide to tabulate"
        )
    return from_permutation([f.forward(v) for v in range(1 << f.width)], f.width).backward


def compile_oracle_circuit(
    oc: OracleCircuit, g_oracle: Bijection, x: Bitstring
) -> Schedule:
    """Compile an oracle-circuit evaluation into iterating one bijection h.

    h carries (c1, c2, wire vector).  The little hand c2 runs modulo
    N = (largest possible oracle count) + 1; its wraparound advances the big
    hand c1 modulo M = (gate count) + 1.  While c1 points at a boolean gate,
    the gate's value is XORed into its target once, at c2 = 0.  While c1
    points at an oracle gate, c2 = 0 copies s onto the zeroed target t and
    each later tick with c2 at most the gate's count replaces t by g(t).
    After M*N steps every gate has fired and the clock is back at zero.
    """
    from .circuits import _BOOL_FN, ClassicalGate, _pack_bits

    if x.width != oc.inputs:
        raise WidthMismatchError("input width does not match circuit inputs")
    wires = oc.all_wires()
    w_count = len(wires)
    pos = {w: w_count - 1 - i for i, w in enumerate(wires)}  # bit position per wire
    m_small = oc.max_oracle_count() + 1
    m_big = len(oc.gates) + 1
    codec = ClockedCodec(m_big, m_small, (w_count,))

    backward_oracle = g_oracle.backward or _inverse_via_table(g_oracle)

    def read(vec: int, ws: Sequence[int]) -> int:
        return _pack_bits((vec >> pos[w]) & 1 for w in ws)

    def write(vec: int, ws: Sequence[int], value: int) -> int:
        for idx, w in enumerate(reversed(ws)):
            bit = (value >> idx) & 1
            vec = (vec & ~(1 << pos[w])) | (bit << pos[w])
        return vec

    def act(c1: int, c2: int, payload: Tuple[int, ...], reverse: bool) -> Tuple[int, ...]:
        (vec,) = payload
        if c1 >= len(oc.gates):
            return payload
        g = oc.gates[c1]
        if isinstance(g, ClassicalGate):
            if c2 == 0:
                val = _BOOL_FN[g.kind](*(((vec >> pos[a]) & 1) for a in g.args))
                vec ^= val << pos[g.out]
            return (vec,)
        count = read(vec, g.n_wires)
        if c2 == 0:
            vec ^= write(0, g.t_wires, read(vec, g.s_wires))
            return (vec,)
        if 0 < c2 <= count:
            t = read(vec, g.t_wires)
            t2 = backward_oracle(t) if reverse else g_oracle.forward(t)
            vec = write(vec, g.t_wires, t2)
        return (vec,)

    h = _clocked(codec, act, "oracle-clock")

    vec0 = write(0, range(oc.inputs), x.value)
    start = Bitstring(codec.encode(ClockedState(0, 0, (vec0,))), codec.width)

    def extract(final: Bitstring) -> Bitstring:
        st = codec.decode(final.value)
        if st is None:
            raise ReductionError("final state decodes out of range")
        return Bitstring(read(st.payload[0], oc.outputs), len(oc.outputs))

    return Schedule(h, m_big * m_small, start, extract, codec=codec)
