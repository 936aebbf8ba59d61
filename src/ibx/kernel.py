"""Fixed-width bitstrings, invertible maps on them, and the iteration engine.

``iterate_map`` is the package's one n-step engine: every stepper, from
circuits to block automata, runs through it.  ``iterate`` is the literal
loop it is tested against.

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
* A Bijection with ``arrays`` set also maps an int64 numpy array
  elementwise; ``check_bijection_exhaustive`` then evaluates the whole state
  space in one call per direction.  Circuits set it.  Other maps (the stock
  maps below, the schedules in ``reductions``, arbitrary callables) keep the
  scalar walk.  numpy is imported only on that array path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar

MAX_EXHAUSTIVE_WIDTH = 20

T = TypeVar("T")


class WidthMismatchError(ValueError):
    """Raised when a value's width does not match the operation's width."""


@dataclass(frozen=True)
class Bitstring:
    """Immutable fixed-width bit vector backed by an int.

    ``value`` holds the bits with index 0 least significant; ``width`` may be
    zero (the unique empty string).
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be nonnegative, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")

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


@dataclass(frozen=True)
class Bijection:
    """A total invertible map on k-bit strings.

    ``forward`` and the optional ``backward`` act on the integer encoding.
    Out-of-domain encodings are the evaluator's problem: the contract is that
    they map to themselves, keeping the map total on all 2**width values.
    ``arrays`` declares that both evaluators also map an int64 numpy array
    elementwise, which lets ``check_bijection_exhaustive`` run on whole
    arrays.  It states what the evaluators can do; results are the same
    either way.
    """

    width: int
    forward: Callable[[int], int]
    backward: Optional[Callable[[int], int]] = None
    label: str = ""
    arrays: bool = False

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
        return replace(
            self, forward=self.backward, backward=self.forward, label=f"inv({self.label})"
        )


@dataclass(frozen=True)
class IterationProblem:
    """Ask for f applied n times to x.  n may be any nonnegative integer."""

    f: Bijection
    n: int
    x: Bitstring

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.x.width != self.f.width:
            raise WidthMismatchError(
                f"input width {self.x.width} does not match bijection width {self.f.width}"
            )


def iterate(problem: IterationProblem) -> Bitstring:
    """Reference loop: literally apply f n times.

    This is the ground truth ``iterate_map`` is tested against, so it stays
    a plain loop with no shortcuts.
    """
    value = problem.x.value
    fwd = problem.f.forward
    for _ in range(problem.n):
        value = fwd(value)
    return Bitstring(value, problem.f.width)


def iterate_map(
    step: Callable[[T], T], n: int, x: T, back: Optional[Callable[[T], T]] = None
) -> T:
    """Apply ``step`` n times to x; a negative n applies ``back`` -n times.

    Stops at the first return to x and finishes with n modulo that return
    time.  This is exact for any deterministic step, because from a return
    on the orbit repeats, so an astronomically large n costs fewer than two
    orbit lengths of steps.
    """
    if n < 0:
        if back is None:
            raise ValueError("a negative iteration count needs a backward map")
        step, n = back, -n
    y = x
    for done in range(1, n + 1):
        y = step(y)
        if y == x:
            return iterate_map(step, n % done, x)
    return y


def iterate_bijection(f: Bijection, n: int, x: Bitstring) -> Bitstring:
    """f applied n times to x (f's backward map -n times when n < 0)."""
    if x.width != f.width:
        raise WidthMismatchError(
            f"input width {x.width} does not match bijection width {f.width}"
        )
    return Bitstring(iterate_map(f.forward, n, x.value, f.backward), f.width)


def cycle_lengths(step: Callable[[int], int], size: int) -> Iterator[int]:
    """Length of each cycle of a permutation of [0, size), one per cycle,
    found by walking every cycle once."""
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = step(x)
            length += 1
        yield length


@dataclass(frozen=True)
class BijectionCheck:
    ok: bool
    witness: Optional[Tuple[Bitstring, Bitstring]] = None
    reason: str = ""


def check_bijection_exhaustive(f: Bijection) -> BijectionCheck:
    """Walk all 2**width inputs and verify injectivity (and backward, if any).

    The first failing input wins; at one input an escape from [0, 2**width)
    comes before a collision, and a collision before a backward mismatch.
    On an escape the witness is (x, x), on a forward collision the two
    colliding inputs, and on a backward mismatch (x, backward(forward(x))),
    or (x, x) when that value is itself outside [0, 2**width) and so cannot
    be a witness.
    """
    if f.width > MAX_EXHAUSTIVE_WIDTH:
        raise ValueError(f"width {f.width} exceeds exhaustive-check cap {MAX_EXHAUSTIVE_WIDTH}")
    if f.arrays:
        return _check_arrays(f)
    size = 1 << f.width
    seen: dict[int, int] = {}
    for x in range(size):
        y = f.forward(x)
        if not 0 <= y < size:
            return BijectionCheck(
                False, (Bitstring(x, f.width), Bitstring(x, f.width)), "escape"
            )
        if y in seen:
            return BijectionCheck(
                False, (Bitstring(seen[y], f.width), Bitstring(x, f.width)), "collision"
            )
        seen[y] = x
        if f.backward is not None:
            back = f.backward(y)
            if back != x:
                return _inverse_failure(x, back, f.width)
    return BijectionCheck(True)


def _inverse_failure(x: int, back: int, width: int) -> BijectionCheck:
    """The "inverse" result at x, whose image the backward map sent to back."""
    if not 0 <= back < 1 << width:
        back = x
    return BijectionCheck(False, (Bitstring(x, width), Bitstring(back, width)), "inverse")


def _check_arrays(f: Bijection) -> BijectionCheck:
    """The exhaustive check on whole arrays: the scalar walk's result and
    witness, from one forward and at most one backward evaluation."""
    import numpy as np

    size = 1 << f.width
    xs = np.arange(size, dtype=np.int64)
    ys = np.asarray(f.forward(xs))
    result = BijectionCheck(True)
    # Inputs before the first escape map into range; among them, the first
    # whose image is already taken is the first collision.  Backward is only
    # asked about the images of inputs the scalar walk would have passed.
    escapes = np.flatnonzero((ys < 0) | (ys >= size))
    stop = int(escapes[0]) if escapes.size else size
    if stop < size:
        result = BijectionCheck(False, (Bitstring(stop, f.width),) * 2, "escape")
    images, first = np.unique(ys[:stop], return_index=True)
    if first.size < stop:
        repeated = np.ones(stop, dtype=bool)
        repeated[first] = False
        stop = int(np.argmax(repeated))
        earlier = int(first[np.searchsorted(images, ys[stop])])
        result = BijectionCheck(
            False, (Bitstring(earlier, f.width), Bitstring(stop, f.width)), "collision"
        )
    if f.backward is not None:
        backs = np.asarray(f.backward(ys[:stop]))
        wrong = np.flatnonzero(backs != xs[:stop])
        if wrong.size:
            x = int(wrong[0])
            return _inverse_failure(x, int(backs[x]), f.width)
    return result


def identity(width: int) -> Bijection:
    return Bijection(width, lambda x: x, lambda x: x, label=f"identity/{width}")


def increment(width: int) -> Bijection:
    """x + 1 modulo 2**width."""
    mask = (1 << width) - 1
    return Bijection(
        width,
        lambda x: (x + 1) & mask,
        lambda x: (x - 1) & mask,
        label=f"increment/{width}",
    )


def add_const(width: int, c: int) -> Bijection:
    mask = (1 << width) - 1
    c &= mask
    return Bijection(
        width,
        lambda x: (x + c) & mask,
        lambda x: (x - c) & mask,
        label=f"add{c}/{width}",
    )


def rotate_left(width: int) -> Bijection:
    """Circular shift of the bit pattern toward the most significant end."""
    if width == 0:
        return identity(0)
    top = 1 << (width - 1)
    mask = (1 << width) - 1

    def fwd(x: int) -> int:
        return ((x << 1) & mask) | (x >> (width - 1))

    def back(x: int) -> int:
        return (x >> 1) | ((x & 1) * top)

    return Bijection(width, fwd, back, label=f"rotl/{width}")


def from_permutation(perm: Sequence[int], width: int, label: str = "") -> Bijection:
    """Bijection from an explicit permutation table of [0, 2**width)."""
    if sorted(perm) != list(range(1 << width)):
        raise ValueError("table is not a permutation of the full state space")
    table = tuple(perm)
    inv = [0] * len(table)
    for i, v in enumerate(table):
        inv[v] = i
    inv_t = tuple(inv)
    return Bijection(width, lambda x: table[x], lambda x: inv_t[x], label=label or f"perm/{width}")


def cat_map(n: int) -> Bijection:
    """Discrete hyperbolic torus map on pairs drawn from [0, n) x [0, n).

    (x, y) -> ((2x + y) mod n, (x + y) mod n).  A pair is packed into
    2*ceil(log2 n) bits with x in the high half; pairs with a coordinate
    at n or above are fixed points.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    half = max(n - 1, 0).bit_length()
    width = 2 * half
    mask = (1 << half) - 1

    def fwd(v: int) -> int:
        x, y = v >> half, v & mask
        if x >= n or y >= n:
            return v
        return (((2 * x + y) % n) << half) | ((x + y) % n)

    def back(v: int) -> int:
        x, y = v >> half, v & mask
        if x >= n or y >= n:
            return v
        return (((x - y) % n) << half) | ((2 * y - x) % n)

    return Bijection(width, fwd, back, label=f"cat/{n}")


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
