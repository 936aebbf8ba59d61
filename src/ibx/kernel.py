"""Fixed-width bitstrings, invertible maps on them, the iteration engine
and the whole-state-space evaluator.

``iterate_map`` is the package's one n-step engine, a single loop that
every stepper, from circuits to block automata, runs through in either
direction; a map that ticks a counter hands it one signed leap over those
runs, a closed-form power its ``power_leap`` (``power`` is the one square
and multiply), and any orbit shape ends the loop within a small multiple
of tail + cycle moves.  ``one_move`` builds a map whose leap always
answers, its step and step back the moves of 1 and -1: so each stock map
states only its power.  ``iterate`` is the literal loop it is tested
against.  ``images`` is the one pass over the whole state space,
``cycle_lengths`` the one cycle reader, and ``inverse_table`` the one
check and inverse of a permutation table.

Conventions used across the package:

* Bit index 0 is the least significant bit.  The text form of a bitstring is
  an ordinary binary numeral, most significant bit first, so ``"110"`` is the
  3-bit value 6.
* Multi-field values are packed most significant field first, mirroring the
  numeral order: ``pack_fields([(a, 3), (b, 2)])`` puts ``a`` in the high
  three bits.
* A Bijection's ``forward``/``backward`` evaluators work directly on the
  integer encoding.  They must be total: encodings that fall outside the
  intended domain map to themselves.
* ``images`` yields f's images in input order as Python ints, lazily:
  f.forward over the inputs, for every map, in pure Python.
  ``check_bijection_exhaustive`` is one pass over ``images``, unless a
  round trip through the map's sliced evaluators over ``state_slices``,
  the one whole-state enumerator, already proves it a bijection, so a
  failure costs that round trip, if any, and the inputs up to the
  failing one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

MAX_EXHAUSTIVE_WIDTH = 20

# bytes.translate tables between 0/1 byte values and the ASCII digits 0/1.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_VALUES = bytes.maketrans(b"01", b"\0\1")

T = TypeVar("T")


class WidthMismatchError(ValueError):
    """Raised when a value's width does not match the operation's width."""


class Bitstring:
    """Immutable fixed-width bit vector backed by an int.

    ``value`` holds the bits with index 0 least significant; ``width`` may be
    zero (the unique empty string).  A slotted class rather than a frozen
    dataclass, because leaf walks and schedules build one per step.
    """

    __slots__ = ("value", "width")
    value: int
    width: int

    def __init__(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for width {width}")
        _set_value(self, value)
        _set_width(self, width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Bitstring:
            return NotImplemented
        return self.value == other.value and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __reduce__(self):
        return Bitstring, (self.value, self.width)

    @classmethod
    def from_text(cls, text: str) -> "Bitstring":
        """Parse a binary numeral, most significant bit first."""
        if text and not set(text) <= {"0", "1"}:
            raise ValueError(f"not a binary numeral: {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def zeros(cls, width: int) -> "Bitstring":
        return cls(0, width)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise IndexError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> i) & 1

    @property
    def bits(self) -> Tuple[int, ...]:
        """Bits as a tuple indexed from the least significant end."""
        return tuple((self.value >> i) & 1 for i in range(self.width))

    def to_text(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def __repr__(self) -> str:
        return f"Bitstring('{self.to_text()}')"


_set_value = Bitstring.value.__set__  # type: ignore[attr-defined]
_set_width = Bitstring.width.__set__  # type: ignore[attr-defined]


def pack_fields(fields: Sequence[Tuple[int, int]]) -> int:
    """Pack (value, width) pairs into one int, first field most significant."""
    acc = 0
    for value, width in fields:
        if not 0 <= value < (1 << width):
            raise ValueError(f"field value {value} does not fit in {width} bits")
        acc = (acc << width) | value
    return acc


def unpack_fields(value: int, widths: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of pack_fields for the given widths, first field most significant."""
    out = []
    shift = sum(widths)
    for width in widths:
        shift -= width
        out.append((value >> shift) & ((1 << width) - 1))
    return tuple(out)


# leap(y, r) -> None, or (y', j) with 1 <= j <= |r| and y' exactly j
# literal steps from y, forward when r > 0 and backward when r < 0, r the
# signed count of steps left (never 0): how a map takes a run at once.
Leap = Callable[[T, int], Optional[Tuple[T, int]]]


@dataclass(frozen=True)
class Bijection:
    """A total invertible map on k-bit strings.

    ``forward`` and the optional ``backward`` act on the integer encoding.
    Out-of-domain encodings are the evaluator's problem: the contract is that
    they map to themselves, keeping the map total on all 2**width values.
    ``sliced`` optionally holds (forward, backward) on S states at once, as
    ``state_slices`` gives them: ``(wires, ones) -> wires``, with ones =
    2**S - 1, for a round trip that can prove a bijection; images, and so
    failures, come from ``forward``.  ``leap`` is an optional signed leap
    (see ``iterate_map``) over ``forward`` and ``backward`` runs.  These
    fields state what the evaluators can do; results are the same either way.
    """

    width: int
    forward: Callable[[int], int]
    backward: Optional[Callable[[int], int]] = None
    label: str = ""
    sliced: Optional[Tuple[Callable, Callable]] = None
    leap: Optional[Leap] = None

    def apply(self, x: Bitstring) -> Bitstring:
        if x.width != self.width:
            raise WidthMismatchError(f"expected width {self.width}, got {x.width}")
        return Bitstring(self.forward(x.value), self.width)

    def apply_inverse(self, y: Bitstring) -> Bitstring:
        if self.backward is None:
            raise ValueError(f"bijection {self.label or '<anon>'} carries no backward evaluator")
        if y.width != self.width:
            raise WidthMismatchError(f"expected width {self.width}, got {y.width}")
        return Bitstring(self.backward(y.value), self.width)

    def inverse(self) -> "Bijection":
        if self.backward is None:
            raise ValueError("cannot invert without a backward evaluator")
        leap = self.leap
        return replace(
            self, forward=self.backward, backward=self.forward, label=f"inv({self.label})",
            sliced=self.sliced and self.sliced[::-1], leap=leap and (lambda y, r: leap(y, -r)),
        )


def iterate(f: Bijection, n: int, x: Bitstring) -> Bitstring:
    """Reference loop: literally apply f n times (f's backward map -n
    times when n < 0).  This is the ground truth ``iterate_map`` is tested
    against, so it stays a plain loop with no shortcuts."""
    if x.width != f.width:
        raise WidthMismatchError(f"input width {x.width} does not match bijection width {f.width}")
    step = f.forward
    if n < 0:
        if f.backward is None:
            raise ValueError("a negative iteration count needs a backward map")
        step, n = f.backward, -n
    value = x.value
    for _ in range(n):
        value = step(value)
    return Bitstring(value, f.width)


def iterate_map(
    step: Callable[[T], T],
    n: int,
    x: T,
    back: Optional[Callable[[T], T]] = None,
    leap: Optional[Leap] = None,
) -> T:
    """Apply ``step`` n times to x; a negative n applies ``back`` -n times.

    One loop makes every move: a step of one, or a leap.  A map whose
    steps mostly tick a counter may pass ``leap``, one for both directions:
    ``leap(y, r)``, with r the signed count of steps left, returns None,
    and the engine takes one step, or (y', j) with 1 <= j <= |r| and y'
    exactly j literal steps from y, forward when r > 0 and backward when
    r < 0.  A map may state its step as a leap of one: a leap that always
    answers is the whole map, and the engine never calls ``step``.  After
    every move the engine compares the state with x and
    with a mark it moves to where it stands after 1, 2, 4, ... moves
    (Brent's cycle finding), since an orbit may never come back to x and
    leaps may jump over x forever.  A state met again at times t0 < t
    repeats every t - t0 steps, so the engine finishes with the remaining
    count modulo that return time, as exact as the literal loop.  With no
    leap, an orbit with a tail of mu steps into a cycle of lambda costs
    fewer than 4 (mu + lambda) + 2 steps at any n; a bijection (mu = 0)
    stops at its first return to x, fewer than two orbit lengths of steps.
    """
    sign = 1
    if n < 0:
        if back is None:
            raise ValueError("a negative iteration count needs a backward map")
        step, n, sign = back, -n, -1
    y, done = x, 0
    mark, marked_at, moves, stride = x, 0, 0, 1
    while done < n:
        if leap is None or (hop := leap(y, sign * (n - done))) is None:
            y, done = step(y), done + 1
        else:
            y, j = hop
            if not 1 <= j <= n - done:
                raise ValueError(f"leap of {j} steps with {n - done} left")
            done += j
        if y == x or y == mark:
            n = done + (n - done) % (done if y == x else done - marked_at)
        moves += 1
        if moves == stride:
            mark, marked_at, moves, stride = y, done, 0, 2 * stride
    return y


def power_leap(power: Callable[[T, int], T]) -> Leap:
    """The leap of a map with a closed-form signed power(y, n) = f^n(y):
    it takes every remaining step r at once, to power(y, r)."""
    return lambda y, r: (power(y, r), abs(r))


def power(compose: Callable[[T, T], T], identity: T, f: T, n: int) -> T:
    """f composed with itself n >= 0 times, by square and multiply: for n
    of b bits, b - 1 squarings and one associative ``compose`` per set bit
    past the first, never with ``identity`` (n = 0's answer).  The package's
    closed-form powers (affine maps mod M, the cat map's matrix) run here."""
    out = None
    while n:
        if n & 1:
            out = f if out is None else compose(f, out)
        n >>= 1
        if n:
            f = compose(f, f)
    return identity if out is None else out


def one_move(width: int, move: Callable[[int, int], Tuple[int, int]], label: str) -> Bijection:
    """The bijection whose leap ``move`` always answers: its step and step
    back are its moves of 1 and -1, so each direction is stated once, in
    the move, and the engine never calls either."""
    return Bijection(width, lambda v: move(v, 1)[0], lambda v: move(v, -1)[0], label=label, leap=move)


def iterate_bijection(f: Bijection, n: int, x: Bitstring) -> Bitstring:
    """f applied n times to x (f's backward map -n times when n < 0),
    leaping where f declares leaps."""
    if x.width != f.width:
        raise WidthMismatchError(f"input width {x.width} does not match bijection width {f.width}")
    return Bitstring(iterate_map(f.forward, n, x.value, f.backward, f.leap), f.width)


def cycle_lengths(table: Sequence[int]) -> List[int]:
    """Length of each cycle of the table of [0, n), walking every cycle
    once from its least state, in plain Python (a list or an ``array``).
    Raises ValueError("not a permutation") when an entry falls outside
    [0, n) or a walk does not close on its start: an O(n) check."""
    n = len(table)
    seen = bytearray(n)
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        x, length = start, 0
        while 0 <= x < n and not seen[x]:
            seen[x] = 1
            x = table[x]
            length += 1
        if x != start:
            raise ValueError("not a permutation")
        lengths.append(length)
    return lengths


def inverse_table(perm: Sequence[int]) -> Tuple[int, ...]:
    """The inverse of a table of [0, n), in one pass: inv[perm[i]] = i.
    Raises ValueError("not a permutation") on an entry outside [0, n) or
    on a repeated entry."""
    n = len(perm)
    inv = [-1] * n
    for i, v in enumerate(perm):
        if not 0 <= v < n or inv[v] >= 0:
            raise ValueError("not a permutation")
        inv[v] = i
    return tuple(inv)


@dataclass(frozen=True)
class BijectionCheck:
    ok: bool
    witness: Optional[Tuple[Bitstring, Bitstring]] = None
    reason: str = ""


def check_bijection_exhaustive(f: Bijection) -> BijectionCheck:
    """Evaluate all 2**width inputs and verify injectivity (and backward, if any).

    One pass over the inputs in order stops at the first failing input; at
    one input an escape from [0, 2**width) comes before a collision, and a
    collision before a backward mismatch.  On an escape the witness is
    (x, x), on a collision the image's first owner and x, and on a backward
    mismatch (x, backward(forward(x))), or (x, x) when that value is itself
    outside [0, 2**width) and so cannot be a witness.

    A map with sliced evaluators and a backward map first runs backward
    after forward on each chunk of ``state_slices`` and compares the result
    with the chunk's own wires.  On a finite set a left inverse proves a
    bijection, so when every chunk comes back the check passes at once.
    Otherwise the pass calls f.forward on each input up to the first failing
    one; an ``array('I')`` keeps each image's first owner, 4 bytes a state.
    """
    _check_cap(f.width)
    if f.backward is not None and f.sliced and _round_trips(f):
        return BijectionCheck(True)
    size, backward = 1 << f.width, f.backward
    owner = array("I", [0]) * size  # 1 + the first input seen to map to y, 0 while none has

    def failure(a: int, b: int, reason: str) -> BijectionCheck:
        return BijectionCheck(False, (Bitstring(a, f.width), Bitstring(b, f.width)), reason)

    for n, y in enumerate(images(f), 1):  # n inputs read, the last x = n - 1
        if not 0 <= y < size:
            return failure(n - 1, n - 1, "escape")
        if owner[y]:
            return failure(owner[y] - 1, n - 1, "collision")
        owner[y] = n
        if backward is not None and (back := backward(y)) != n - 1:
            return failure(n - 1, back if 0 <= back < size else n - 1, "inverse")
    return BijectionCheck(True)


def _check_cap(width: int) -> None:
    if width > MAX_EXHAUSTIVE_WIDTH:
        raise ValueError(f"width {width} exceeds exhaustive-check cap {MAX_EXHAUSTIVE_WIDTH}")


def _round_trips(f: Bijection) -> bool:
    """Whether f's sliced backward undoes its sliced forward on every chunk
    of ``state_slices``, with the forward wires ``width`` ints that hold
    only the chunk's states: a bit outside them is no state's image, so a
    round trip through it proves nothing."""
    forward, backward = f.sliced
    for states, wires in state_slices(f.width):
        ones = (1 << len(states)) - 1
        ys = forward(list(wires), ones)  # the evaluators may work in place
        if len(ys) != f.width or not all(0 <= y <= ones for y in ys) or backward(ys, ones) != wires:
            return False
    return True


# States per slice, so a sliced state space is 4096-bit ints at any width.
STATE_CHUNK = 1 << 12


@lru_cache(maxsize=None)  # one entry per chunk size, a power of two up to STATE_CHUNK
def _counting_wires(size: int) -> Tuple[int, ...]:
    """The wire of state bit b < log2(size) over ``size`` counting states:
    runs of 2**b zeros and 2**b ones."""
    ones = (1 << size) - 1
    runs = (1 << b for b in range(size.bit_length() - 1))
    return tuple(ones // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run) for run in runs)


def state_slices(k: int):
    """Every k-bit state, STATE_CHUNK at a time, as (states, wires): wire i
    is the int whose bit j is wire i of states[j].  Within a chunk the low
    bits of the state count up, so their wires repeat a fixed pattern; the
    high bits are the chunk's and hold for all of it."""
    size = min(1 << k, STATE_CHUNK)
    ones = (1 << size) - 1
    counting = _counting_wires(size)
    low = len(counting)
    for lo in range(0, 1 << k, size):
        wires = [counting[b] if b < low else ones * (lo >> b & 1) for b in range(k - 1, -1, -1)]
        yield range(lo, lo + size), wires


def images(f: Bijection) -> Iterator[int]:
    """f.forward on every state 0 .. 2**width - 1, in order, as a lazy
    iterator of Python ints, for widths up to ``MAX_EXHAUSTIVE_WIDTH``
    (checked at the call)."""
    _check_cap(f.width)
    return map(f.forward, range(1 << f.width))


def identity(width: int) -> Bijection:
    return Bijection(width, lambda x: x, lambda x: x, label=f"identity/{width}")


def increment(width: int) -> Bijection:
    """x + 1 modulo 2**width."""
    return replace(add_const(width, 1), label=f"increment/{width}")


def add_const(width: int, c: int) -> Bijection:
    """x + c modulo 2**width, one move (``one_move``): its power
    x -> x + n*c leaps every remaining step at once (``power_leap``)."""
    mask = (1 << width) - 1
    c &= mask
    return one_move(width, power_leap(lambda x, n: (x + n * c) & mask), f"add{c:#x}/{width}")


def rotate_left(width: int) -> Bijection:
    """Circular shift of the bit pattern toward the most significant end,
    one move (``one_move``): its power, a rotation by n mod width, leaps
    every remaining step at once (``power_leap``)."""
    if width == 0:
        return identity(0)
    mask = (1 << width) - 1

    def rotl(x: int, r: int) -> int:
        r %= width
        return ((x << r) & mask) | (x >> (width - r))

    return one_move(width, power_leap(rotl), f"rotl/{width}")


def from_permutation(perm: Iterable[int], width: int) -> Bijection:
    """Bijection from an explicit permutation table of [0, 2**width), given
    as any iterable of its entries in order."""
    table = tuple(perm)
    if len(table) != 1 << width:
        raise ValueError(f"table has {len(table)} entries, not {1 << width}")
    inv = inverse_table(table)
    return Bijection(width, lambda x: table[x], lambda x: inv[x], label=f"perm/{width}")


def cat_map(n: int) -> Bijection:
    """Discrete hyperbolic torus map on pairs drawn from [0, n) x [0, n).

    (x, y) -> ((2x + y) mod n, (x + y) mod n).  A pair is packed into
    2*ceil(log2 n) bits with x in the high half; pairs with a coordinate
    at n or above are fixed points.  One move (``one_move``): its power,
    the matrix ((2, 1), (1, 1)) or its inverse ((1, -1), (-1, 2)) raised
    mod n by ``power``, leaps every remaining step at once (``power_leap``).
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    half = max(n - 1, 0).bit_length()
    mask = (1 << half) - 1

    def times(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
        # 2x2 matrices mod n, as (top left, top right, bottom left, bottom right)
        return ((p[0] * q[0] + p[1] * q[2]) % n, (p[0] * q[1] + p[1] * q[3]) % n,
                (p[2] * q[0] + p[3] * q[2]) % n, (p[2] * q[1] + p[3] * q[3]) % n)

    def cat_power(v: int, r: int) -> int:
        x, y = v >> half, v & mask
        if x >= n or y >= n:
            return v
        a, b, c, d = power(times, (1, 0, 0, 1), (2, 1, 1, 1) if r > 0 else (1, -1, -1, 2), abs(r))
        return (((a * x + b * y) % n) << half) | ((c * x + d * y) % n)

    return one_move(2 * half, power_leap(cat_power), f"cat/{n}")


def cat_pack(n: int, x: int, y: int) -> Bitstring:
    half = max(n - 1, 0).bit_length()
    return Bitstring((x << half) | y, 2 * half)


def cat_unpack(n: int, bs: Bitstring) -> Tuple[int, int]:
    half = max(n - 1, 0).bit_length()
    return bs.value >> half, bs.value & ((1 << half) - 1)


def builtin_bijections() -> list[Bijection]:
    """Small stable of stock maps used by the self-check suites."""
    return [
        identity(4),
        increment(1),
        increment(6),
        add_const(5, 11),
        rotate_left(5),
        rotate_left(8),
        cat_map(2),
        cat_map(5),
        cat_map(8),
    ]
