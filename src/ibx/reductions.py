"""Compilers that turn questions about arbitrary maps into pure iteration.

Each compiler emits a Schedule: a bijection g, an exact iteration count, a
start state, and an extraction map, with the contract that running g for
exactly that many steps from the start and extracting yields the answer.

Every map here is one signed move, ``move(state, r) -> (state', j)``
with 1 <= j <= |r|: the state exactly j ticks on (r > 0) or back (r < 0).
The move is the map's leap (see ``kernel.iterate_map``), and
``kernel.one_move`` builds the map from it, with its step and step back
the moves of 1 and -1, so the engine never calls a step and each tick
rule is written once.

The clocked maps share a discipline: a wide counter c1 and a narrow
counter c2 are packed in front of one payload word, each tick advances c2,
carrying into c1 on wraparound, and maps the word keyed by the hands the
tick began with.  States whose counters are out of range are fixed points,
which keeps every map total.  ClockedCodec lays out the (c1, c2, payload
word) bits; ``_clocked`` alone reads, guards and packs the hands, and each
compiler's move unpacks its own fields.  A move's word is packed
unchecked; a move that applies an outside map checks that map's image
where it enters the state.  Both clocked compilers run their outside map
f^j by one rule, ``_power_of``, under one cap on the tables it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .kernel import (
    Bijection,
    Bitstring,
    WidthMismatchError,
    from_permutation,
    images,
    iterate_bijection,
    iterate_map,
    one_move,
    pack_fields,
    unpack_fields,
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
    """Bit layout of (c1, c2, payload word) states, c1 most significant.

    The counters take the fewest bits that hold modulus-1; the payload word
    is the low ``sum(payload_widths)`` bits.  A clocked move reads only c1,
    c2 and the word.  ``encode`` and ``decode`` go through the kernel's
    pack_fields/unpack_fields and split the word into the payload fields,
    first field most significant: decode gives None when a counter is at or
    beyond its modulus, and encode raises ValueError for a field that does
    not fit its width.
    """

    m_big: int
    m_small: int
    payload_widths: Tuple[int, ...]

    @property
    def widths(self) -> Tuple[int, ...]:
        w1 = max(1, (self.m_big - 1).bit_length())
        w2 = max(1, (self.m_small - 1).bit_length())
        return (w1, w2) + self.payload_widths

    @property
    def width(self) -> int:
        return sum(self.widths)

    def encode(self, state: ClockedState) -> int:
        fields = (state.c1, state.c2) + state.payload
        return pack_fields(list(zip(fields, self.widths, strict=True)))

    def decode(self, value: int) -> Optional[ClockedState]:
        c1, c2, *payload = unpack_fields(value, self.widths)
        if c1 >= self.m_big or c2 >= self.m_small:
            return None
        return ClockedState(c1, c2, tuple(payload))


@dataclass(frozen=True)
class Schedule:
    """A compiled iteration job.  The clocked compilers set ``codec`` to
    their state layout, so callers can decode intermediate states."""

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


# move(c1, c2, payload word, r) -> (word', j), 1 <= j <= |r|: the word
# after the j ticks that start at hands (c1, c2) (r > 0) or end by undoing
# the tick at those hands (r < 0).
ClockMove = Callable[[int, int, int, int], Tuple[int, int]]


def _clocked(codec: ClockedCodec, move: ClockMove, label: str) -> Bijection:
    """The clocked bijection over ``codec``'s states, one signed move.

    Its move decodes the hands, calls ``move(c1, c2, word, r)`` with the
    hands of the first tick applied (r > 0) or undone (r < 0), and packs
    the word with the hands moved by the result's j ticks, c2 carrying into
    c1 on wraparound; ``kernel.one_move`` builds the map from it.  A
    state whose counters are out of range is a fixed point: it moves all
    |r| ticks at once, so the engine ends such a run in one move.
    """
    m_big, m_small, period = codec.m_big, codec.m_small, codec.m_big * codec.m_small
    w2 = codec.widths[1]
    s2 = sum(codec.payload_widths)
    s1 = s2 + w2
    m2, word_mask = (1 << w2) - 1, (1 << s2) - 1

    def hop(v: int, r: int) -> Tuple[int, int]:
        c1, c2 = v >> s1, v >> s2 & m2
        if c1 >= m_big or c2 >= m_small:
            return v, abs(r)
        t = (c1 * m_small + c2 - (r < 0)) % period  # the first tick applied or undone
        word, j = move(*divmod(t, m_small), v & word_mask, r)
        c1, c2 = divmod((t + j if r > 0 else t + 1 - j) % period, m_small)
        return c1 << s1 | c2 << s2 | word, j

    return one_move(codec.width, hop, label)


def _clocked_schedule(
    g: Bijection, codec: ClockedCodec, total: int, payload: Tuple[int, ...], answer: Callable
) -> Schedule:
    """Run g ``total`` ticks from hands (0, 0) over ``payload``; the answer
    is ``answer`` of the final payload, and a final state whose counters
    are out of range raises ReductionError."""

    def extract(final: Bitstring) -> Bitstring:
        st = codec.decode(final.value)
        if st is None:
            raise ReductionError("final state decodes out of range")
        return answer(st.payload)

    start = Bitstring(codec.encode(ClockedState(0, 0, payload)), codec.width)
    return Schedule(g, total, start, extract, codec=codec)


def _image(y: int, width: int) -> int:
    """y, checked to lie in [0, 2**width): an outside map's image enters a
    state only through here."""
    if y < 0 or y >> width:
        raise ValueError(f"value {y} out of range for width {width}")
    return y


def run_schedule(schedule: Schedule) -> Bitstring:
    final = iterate_bijection(schedule.g, schedule.total_iterations, schedule.start)
    return schedule.extract(final)


# widest forward-only map either clocked compiler runs, from a table of its images
MAX_ORACLE_TABLE_WIDTH = 16


def _power_of(f: Bijection) -> Callable[[int, int], int]:
    """f^j(y) for signed j, as both clocked compilers run f: by
    ``kernel.iterate_map``, every image checked by ``_image``, on f's own
    forward, backward and leap when f declares a backward (trusted to be
    its inverse), else on the one table ``from_permutation`` builds of a
    forward-only f's images, up to ``MAX_ORACLE_TABLE_WIDTH`` bits.  Both
    compilers' one precondition: ReductionError, before anything is built,
    for a forward-only f past that cap or whose table is no permutation."""
    k = f.width
    if f.backward is None:
        if k > MAX_ORACLE_TABLE_WIDTH:
            raise ReductionError(f"forward-only oracle is wider than the table cap {MAX_ORACLE_TABLE_WIDTH}")
        try:
            f = from_permutation(images(f), k)
        except ValueError as e:
            raise ReductionError("forward-only oracle is not a permutation") from e

    def step(t: int) -> int:
        return _image(f.forward(t), k)

    def back(t: int) -> int:
        return _image(f.backward(t), k)

    return lambda y, j: _image(iterate_map(step, j, y, back, f.leap), k)


def inversion_by_iteration(f: Bijection, x: Bitstring) -> Schedule:
    """Collapse a pointwise question about f into pure iteration.

    The emitted g walks a counter a over every k-bit value while adding
    f(a) into an accumulator b when a = x and nothing otherwise.  Exactly
    one term of the sweep is nonzero, so after all 2**k steps b holds f(x).
    The point is the shape of the reduction, not the answer: any function
    with a cheap point test (the inverse of f included, via the indicator
    f(y) = x) can be summed out the same way, and g itself only ever
    consults f forward.

    Every other tick only counts, so g's one move runs a, with b unchanged,
    from any a != x forward to a = x, across the wrap if need be, and back
    from any a != x + 1 to a = x + 1.  Standing there, it takes the tick at
    a = x alone, adding f(x) into b or taking it back out, and checks the
    image there, so it raises where the literal walk raises.  A whole sweep
    is three engine moves (two when x = 0), at any k.
    """
    k = f.width
    if x.width != k:
        raise WidthMismatchError("target width does not match bijection width")
    size = 1 << k
    mask = size - 1
    target = x.value

    def move(v: int, r: int) -> Tuple[int, int]:
        # a moves in the direction d of r up to the adding tick's a, or takes that tick
        d = 1 if r > 0 else -1
        a, b, stop = v >> k, v & mask, (target + (d < 0)) & mask
        j = min(d * (stop - a) & mask, d * r)
        if j:
            return (a + d * j & mask) << k | b, j
        return (a + d & mask) << k | (b + d * _image(f.forward(target), k)) & mask, 1

    g = one_move(2 * k, move, f"sweep-sum[{f.label}]")

    def extract(final: Bitstring) -> Bitstring:
        return Bitstring(final.value & mask, k)

    return Schedule(g, size, Bitstring(0, 2 * k), extract)


def compile_iteration_to_invertible(f: Bijection, n: int, x: Bitstring) -> Schedule:
    """Compile "apply f n times to x" into iterating one invertible map.

    f may be handed over forward-only if it is a permutation of its k bits
    (else ReductionError, by ``_power_of``); the compiled g is invertible.
    g acts on states (c1, c2, a, b, c) whose payload word is
    a << 2k | b << k | c.  One full little-hand cycle of M = 2**k + 3 steps
    advances a by one application of f:

      c2 = 0            b ^= f(a)        (stash the image)
      c2 = 1            a ^= b           (a becomes a ^ f(a))
      1 < c2 < 2**k+2   if f(c) = b: a ^= c; then c += 1 mod 2**k
                        (sweep c over all candidates; only c = old a fires,
                         leaving a = f(a))
      c2 = 2**k+2       b ^= a           (clear the stash)

    Each tick's rule is keyed by the c2 it began with, so starting from
    (0,0,x,0,0) the c2=0 rule runs on the very first step.  After n*M steps
    the a field holds f applied n times.  The stash tick raises ValueError,
    in either direction, when f(a) does not fit in k bits.

    g's move (see ``_clocked``) runs f^j by ``_power_of``, as the oracle
    compiler does.  With that power it takes every whole little-hand cycle
    left at once: from (c1, 0, a, 0, 0) with r steps left and
    j = |r| // M >= 1, a becomes f^j(a) (f^-j(a) when r < 0) and
    ``_clocked`` moves c1 by j mod (n + 1), j * M steps either way; the
    move is keyed by c2 = 0 forward and by c2 = M - 1, the tick a step back
    undoes, backward.  In a sweep it runs c straight to the firing
    candidate f^-1(b) or to the sweep's end, whichever comes first within
    |r|, and takes the firing tick alone, a ^= f^-1(b), either way: no sweep
    tick calls f.  The stash, xor and clear ticks are one tick of the rule
    above each, raising where the walk raises.  So a move costs O(1) calls
    of f's power (one leap for the stock maps), and any run is a handful of
    moves at any n and k.
    """
    k = f.width
    if x.width != k:
        raise WidthMismatchError("input width does not match bijection width")
    if n < 0:
        raise ReductionError("iteration count must be nonnegative")
    power = _power_of(f)
    size = 1 << k
    mask = size - 1
    m_small = size + 3
    m_big = n + 1
    codec = ClockedCodec(m_big, m_small, (k, k, k))
    sweep_end = size + 2
    k2 = 2 * k

    def move(c1: int, c2: int, word: int, r: int) -> Tuple[int, int]:
        # word = a << 2k | b << k | c; d is the direction of the run
        b, c, d = word >> k & mask, word & mask, 1 if r > 0 else -1
        cycles = abs(r) // m_small
        if cycles and c2 == (0 if r > 0 else m_small - 1) and not b | c:  # at a cycle's edge
            return power(word >> k2, d * cycles) << k2, cycles * m_small
        if c2 == 0:
            return word ^ _image(f.forward(word >> k2), k) << k, 1
        if c2 == 1:
            return word ^ b << k2, 1
        if c2 == sweep_end:  # the last little-hand value
            return word ^ (word >> k2) << k, 1
        # a sweep tick: those before the firing candidate f^-1(b) fire nothing
        fire = power(b, -1)
        j = min((fire - c if r > 0 else c - 1 - fire) & mask, sweep_end - c2 if r > 0 else c2 - 1, abs(r))
        if not j:  # the firing tick
            word, j = word ^ fire << k2, 1
        return word - c | (c + d * j) & mask, j

    g = _clocked(codec, move, f"clock[{f.label}]")
    return _clocked_schedule(g, codec, n * m_small, (x.value, 0, 0), lambda p: Bitstring(p[0], k))


# ---------------------------------------------------------------------------
# Oracle circuits: boolean circuits with extra gates that iterate a bijection.


@dataclass(frozen=True)
class OracleGate:
    """t := g^(n)(s), where n is read off the n_wires as a binary numeral
    (first listed wire most significant) and s, t have the oracle's width."""

    n_wires: Tuple[int, ...]
    s_wires: Tuple[int, ...]
    t_wires: Tuple[int, ...]

    @property
    def reads(self) -> Tuple[int, ...]:
        return self.n_wires + self.s_wires

    @property
    def writes(self) -> Tuple[int, ...]:
        return self.t_wires


@dataclass(frozen=True)
class OracleCircuit:
    """A boolean circuit (see circuits.ClassicalCircuit) whose gates may
    also be oracle gates; the same wiring rule applies to both kinds, and
    an oracle gate writes as many t wires as it reads s wires."""

    inputs: int
    gates: Tuple[object, ...]  # ClassicalGate | OracleGate, in dependency order
    outputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        from .circuits import ClassicalGate, _check_wiring

        for g in self.gates:
            if not isinstance(g, (ClassicalGate, OracleGate)):
                raise ReductionError(f"unknown gate object {g!r}")
        _check_wiring(self.inputs, self.gates, self.outputs, ReductionError)
        for g in self.gates:
            if isinstance(g, OracleGate) and len(g.t_wires) != len(g.s_wires):
                raise ReductionError(
                    f"oracle gate has {len(g.s_wires)} s wires but {len(g.t_wires)} t wires"
                )

    def all_wires(self) -> List[int]:
        wires = set(range(self.inputs))
        for g in self.gates:
            wires.update(g.reads, g.writes)
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
    from .circuits import _BOOL_FN, ClassicalGate, _pack_bits, _unpack

    if x.width != oc.inputs:
        raise WidthMismatchError("input width does not match circuit inputs")
    values = dict(enumerate(_unpack(x.value, x.width)))
    for g in oc.gates:
        if isinstance(g, ClassicalGate):
            values[g.out] = _BOOL_FN[g.kind](*(values[a] for a in g.args))
        else:
            count = _pack_bits(values[w] for w in g.n_wires)
            s = Bitstring(_pack_bits(values[w] for w in g.s_wires), len(g.s_wires))
            if g_oracle.width != len(g.s_wires):
                raise WidthMismatchError("oracle width does not match s wires")
            t = iterate_bijection(g_oracle, count, s)
            values.update(zip(g.t_wires, _unpack(t.value, t.width)))
    return Bitstring(_pack_bits(values[w] for w in oc.outputs), len(oc.outputs))


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
    The wire vector holds ``oc.all_wires()`` in order, first most
    significant.  Every wire list (inputs, outputs, a gate's arguments and
    target, n, s, t) goes through one gather and one scatter, linear in the
    wire count: ``circuits._unpack`` the vector, index each wire by its
    place, ``circuits._pack_bits`` the bits.  The oracle's width must
    equal every oracle gate's s wires (WidthMismatchError, before anything
    is built), and a move raises ValueError when the oracle, either way,
    returns a value that does not fit in its width.  g runs by
    ``_power_of``, the clock compiler's rule and precondition: a declared
    backward is trusted to be g's inverse, and a forward-only g is
    tabulated up to ``MAX_ORACLE_TABLE_WIDTH`` bits and must be a
    permutation (ReductionError before anything is built).  A circuit with
    no oracle gate never calls g, so g is then neither tabulated nor
    checked.

    h's move (see ``_clocked``) takes a gate's firing tick c2 = 0 alone,
    its own inverse, and every other run of ticks that act alike at once,
    as far as the steps left allow.  Idle runs (the spare value of c1, c2
    >= 1 at a boolean gate, c2 above an oracle gate's count as its n wires
    read now) run forward to the wrap and back to the run's first tick.
    An oracle gate's active run c2 = 1..count takes t to g^j(t), or g^-j(t)
    backward, by that power: g's own leaps when it declares them (the stock
    maps), and otherwise a walk that stops at t's first return, so a move
    costs at most about twice t's cycle length in calls of g, raises where
    the walk raises, and costs no more calls than the walk.  A run of the
    whole schedule is then at most three moves a gate and one for the spare
    slot, at any count.
    """
    from .circuits import _BOOL_FN, _pack_bits, _unpack

    if x.width != oc.inputs:
        raise WidthMismatchError("input width does not match circuit inputs")
    for g in oc.gates:
        if isinstance(g, OracleGate) and len(g.s_wires) != g_oracle.width:
            raise WidthMismatchError("oracle width does not match s wires")
    power = _power_of(g_oracle) if any(isinstance(g, OracleGate) for g in oc.gates) else None
    wires = oc.all_wires()
    w_count = len(wires)
    place = {w: i for i, w in enumerate(wires)}  # the place in the unpacked vector
    m_small = oc.max_oracle_count() + 1
    m_big = len(oc.gates) + 1
    codec = ClockedCodec(m_big, m_small, (w_count,))

    def read(vec: int, ws: Sequence[int]) -> int:
        bits = _unpack(vec, w_count)
        return _pack_bits([bits[place[w]] for w in ws])

    def write(vec: int, ws: Sequence[int], value: int) -> int:
        bits = _unpack(vec, w_count)
        for w, bit in zip(ws, _unpack(value, len(ws))):
            bits[place[w]] = bit
        return _pack_bits(bits)

    def move(c1: int, c2: int, vec: int, r: int) -> Tuple[int, int]:
        # ticks lo..hi of big-hand value c1, c2 among them, act alike: t := g(t)
        # on an active oracle gate's t wires, or idle
        if c1 >= len(oc.gates):
            lo, hi, active = 0, m_small - 1, None
        else:
            g = oc.gates[c1]
            if c2 == 0:  # the gate fires: one tick, its own inverse
                if isinstance(g, OracleGate):
                    return vec ^ write(0, g.t_wires, read(vec, g.s_wires)), 1
                args = _unpack(read(vec, g.args), len(g.args))
                return vec ^ write(0, (g.out,), _BOOL_FN[g.kind](*args)), 1
            count = read(vec, g.n_wires) if isinstance(g, OracleGate) else 0
            lo, hi, active = (1, count, g) if c2 <= count else (count + 1, m_small - 1, None)
        j = min(hi - c2 + 1 if r > 0 else c2 - lo + 1, abs(r))
        if active is None:
            return vec, j
        return write(vec, active.t_wires, power(read(vec, active.t_wires), j if r > 0 else -j)), j

    h = _clocked(codec, move, "oracle-clock")
    vec0 = write(0, range(oc.inputs), x.value)
    return _clocked_schedule(
        h, codec, m_big * m_small, (vec0,), lambda p: Bitstring(read(p[0], oc.outputs), len(oc.outputs))
    )
