"""Reversible cellular automata: Margolus-blocked 2D grids, multi-track 1D
rings, a strobe wrapper, and the 2D-to-1D compiler.

Block encoding: rules name a 2x2 block (tl, tr, bl, br) by the 4-bit value
tl*8 + tr*4 + bl*2 + br.  Even-phase blocks anchor at even (row, col), odd
phase at odd coordinates.

A grid of h x w cells is held as four bit planes, Python ints of
N = (h/2)(w/2) bits: plane P_rc holds cell (2i + r, 2j + c) at bit
u = i*(w/2) + j.  The even-phase block (i, j) is then bit u of
(P00, P01, P10, P11) = (tl, tr, bl, br), and a rule is a program of
whole-plane ``& | ^`` operations, built once per rule by _rule_programs.
Each moved state s != rule[s] has a minterm, the AND of one literal (the
plane or its complement) per corner, computed as a top pair times a bottom
pair with the pair products shared between states.  Output plane k is
input plane k XOR every minterm whose flip s ^ rule[s] sets k's bit; the
minterms are disjoint, so XOR is their OR.  The identity rule costs
nothing, and the billiard-ball rule moves 6 of the 16 states.

One kernel, _step_planes, serves every geometry.  The odd phase runs the
same program on P11, P10 at (i, j+1), P01 at (i+1, j) and P00 at
(i+1, j+1), then moves the results back.  In the flat bit order "i+1" is a
cyclic shift by w/2 bits.  Under helical connections "j+1" is a cyclic
shift by one bit, because the helical seam is the flat order; on the
torus the bits that would cross a row's end are taken from the row's
other end through column masks built once per shape.

Read as a strip, a grid is its even rows and its odd rows, each laid end
to end (strip position u = (row pair) * w + column); P_r0 and P_r1 hold
strip r's even and odd positions.  Grid text and ring tracks move to and
from planes through that strip.  Rings hold their tracks as tuples of
Python ints, and a ring's blocked update packs its (top, bottom) tracks
into the planes of a two-row grid for one kernel step.  numpy is imported
only to build a grid from an array and to read ``cells``.

The 1D side pins one geometry: ring cell x covers grid column x mod c and
row pair x // c, its two data tracks holding the upper and lower row, so
the reference 2D simulation has helical vertical connections.  dim_redux_run
replays a grid of either phase on the ring.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .kernel import _DIGITS, _VALUES, _Frozen, inverse_table, iterate_map


class CaError(ValueError):
    pass


class _RuleFields(NamedTuple):
    table: Tuple[int, ...]


class MargolusRule(_RuleFields):
    """Permutation table of the 16 block states, checked at construction."""

    __slots__ = ()

    def __new__(cls, table: Tuple[int, ...]) -> "MargolusRule":
        if len(table) != 16 or any(not 0 <= v < 16 for v in table):
            raise CaError("rule table must list 16 block states")
        return tuple.__new__(cls, (table,))

    def inverse(self) -> "MargolusRule":
        try:
            inv = inverse_table(self.table)
        except ValueError:
            raise CaError("rule is not bijective") from None
        return MargolusRule(inv)


def bbm_rule() -> MargolusRule:
    """Billiard-ball collision rule: lone live cells jump to the opposite
    corner, diagonal pairs complement the block, everything else is inert."""
    table = []
    for s in range(16):
        bits = [(s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1]
        if sum(bits) == 1:
            out = bits[::-1]
        elif s in (0b1001, 0b0110):
            out = [b ^ 1 for b in bits]
        else:
            out = bits
        table.append(out[0] * 8 + out[1] * 4 + out[2] * 2 + out[3])
    return MargolusRule(tuple(table))


def random_bijective_rule(rng) -> MargolusRule:
    perm = list(range(16))
    rng.shuffle(perm)
    return MargolusRule(tuple(perm))


class MargolusGrid(_Frozen):
    """An immutable grid of 0/1 cells and its phase, held as four bit planes
    (see the module docstring).

    ``cells`` is a read-only uint8 array.  A grid built from an array keeps
    that validated array; a stepped grid builds it from the planes the
    first time it is read and keeps it.  Equality compares phase, shape and
    planes, and ``live_count`` counts plane bits, so neither builds it.
    Grids are unhashable.
    """

    __slots__ = ("planes", "phase", "shape", "_cells")
    planes: Tuple[int, int, int, int]
    phase: int
    shape: Tuple[int, int]

    def __init__(self, cells, phase: int = 0) -> None:
        import numpy as np

        try:
            arr = np.array(cells)
        except ValueError:  # rows of different lengths
            raise CaError("grid must be two-dimensional") from None
        binary = arr.dtype.kind in "biu" and not (arr.size and (arr.min() < 0 or arr.max() > 1))
        _check_grid(arr.shape, phase, binary)
        h, w = arr.shape
        arr = arr.astype(np.uint8, copy=False)
        arr.setflags(write=False)
        bits = arr.reshape(h // 2, 2, w // 2, 2).transpose(1, 3, 0, 2).reshape(4, -1)
        rows = np.packbits(bits, axis=1, bitorder="little")
        planes = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
        _init_grid(self, planes, phase, (h, w), arr)

    @classmethod
    def _from_planes(
        cls, planes: Tuple[int, ...], shape: Tuple[int, int], phase: int
    ) -> "MargolusGrid":
        """A grid around a step's output planes, which are valid: no re-check."""
        grid = object.__new__(cls)
        _init_grid(grid, planes, phase, shape, None)
        return grid

    def __reduce__(self):
        return MargolusGrid._from_planes, (self.planes, self.shape, self.phase)

    @property
    def cells(self):
        if self._cells is None:
            import numpy as np

            h, w = self.shape
            n = h * w // 4
            size = (n + 7) // 8
            raw = np.frombuffer(b"".join(p.to_bytes(size, "little") for p in self.planes), np.uint8)
            bits = np.unpackbits(raw.reshape(4, size), axis=1, count=n, bitorder="little")
            blocks = np.empty((h // 2, 2, w // 2, 2), np.uint8)
            for k, plane in enumerate(bits.reshape(4, h // 2, w // 2)):
                # one plane at a time: numpy copies each row of blocks in order
                blocks[:, k >> 1, :, k & 1] = plane
            cells = blocks.reshape(h, w)
            cells.setflags(write=False)
            object.__setattr__(self, "_cells", cells)
        return self._cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MargolusGrid):
            return NotImplemented
        same = self.phase == other.phase and self.shape == other.shape
        return same and self.planes == other.planes

    def __repr__(self) -> str:
        return f"MargolusGrid({self.cells!r}, phase={self.phase})"

    def live_count(self) -> int:
        return sum(p.bit_count() for p in self.planes)


def _init_grid(grid: MargolusGrid, planes, phase, shape, cells) -> None:
    for slot, value in zip(MargolusGrid.__slots__, (planes, phase, shape, cells)):
        object.__setattr__(grid, slot, value)


def _check_grid(shape: Tuple[int, ...], phase: int, binary: bool = True) -> None:
    """The rules every grid keeps: two dimensions, even sides of at least 2,
    cells (``binary``: all of them are integers 0 or 1) and phase 0 or 1."""
    if len(shape) != 2:
        raise CaError("grid must be two-dimensional")
    h, w = shape
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise CaError("grid sides must be even and at least 2")
    if not binary:
        raise CaError("cells must be 0 or 1")
    if phase not in (0, 1):
        raise CaError("phase must be 0 or 1")


def _strip_planes(top, bottom) -> Tuple[int, int, int, int]:
    """The planes of the grid whose strip (see the module docstring) is
    ``top``, ``bottom``: strings or bytes of the digits 0 and 1."""
    return tuple(int(strip[c::2][::-1], 2) for strip in (top, bottom) for c in (0, 1))


def _plane_strip(planes: Tuple[int, ...], n: int) -> Tuple[bytes, bytes]:
    """Inverse of _strip_planes for planes of n bits: the strip as ASCII
    digits."""
    strips = []
    for even, odd in (planes[:2], planes[2:]):
        strip = bytearray(2 * n)
        strip[0::2] = format(even, f"0{n}b").encode()[::-1]
        strip[1::2] = format(odd, f"0{n}b").encode()[::-1]
        strips.append(bytes(strip))
    return strips[0], strips[1]


# A rule program: the moved states, then for each output plane the moved
# states whose flip sets that plane's bit.
_Program = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


def _program(table: Sequence[int]) -> _Program:
    moved = tuple(s for s in range(16) if table[s] != s)
    return moved, tuple(
        tuple(s for s in moved if (s ^ table[s]) >> (3 - k) & 1) for k in range(4)
    )


@lru_cache(maxsize=64)
def _rule_programs(rule: MargolusRule) -> Tuple[_Program, _Program]:
    """The rule's forward and inverse programs, built once per rule.  The
    inverse is built with the forward one, so a rule that is not bijective
    raises CaError on any step, forward or back."""
    return _program(rule.table), _program(rule.inverse().table)


def _run(program: _Program, planes: Tuple[int, ...], mask: int) -> Tuple[int, ...]:
    """The rule applied to every block whose corners (tl, tr, bl, br) are
    the same bit of the four planes."""
    moved, flips = program
    if not moved:
        return planes
    literals = [(mask ^ p, p) for p in planes]
    tops, bottoms, terms = {}, {}, {}
    for s in moved:
        top, bottom = s >> 2, s & 3
        if top not in tops:
            tops[top] = literals[0][top >> 1] & literals[1][top & 1]
        if bottom not in bottoms:
            bottoms[bottom] = literals[2][bottom >> 1] & literals[3][bottom & 1]
        terms[s] = tops[top] & bottoms[bottom]
    out = []
    for plane, states in zip(planes, flips):
        for s in states:
            plane ^= terms[s]
        out.append(plane)
    return tuple(out)


# A grid's shape as the kernel needs it: N, w/2, the N-bit mask, and on the
# torus the column-0 and last-column masks and their complements (None under
# helical connections).
_Geometry = Tuple[int, int, int, Optional[Tuple[int, int, int, int]]]


@lru_cache(maxsize=64)
def _geometry(shape: Tuple[int, int], helical: bool) -> _Geometry:
    half = shape[1] // 2
    n = shape[0] // 2 * half
    mask = (1 << n) - 1
    if helical:
        return n, half, mask, None
    first = mask // ((1 << half) - 1)
    last = first << (half - 1)
    return n, half, mask, (first, last, mask ^ first, mask ^ last)


def _roll(x: int, k: int, n: int, mask: int) -> int:
    """The n-bit plane y with y[u] = x[(u + k) mod n]."""
    k %= n
    if 2 * k <= n:
        return x >> k | (x & ((1 << k) - 1)) << (n - k)
    return (x << (n - k)) & mask | x >> k


def _shift(x: int, di: int, dj: int, geometry: _Geometry) -> int:
    """The plane y with y[i, j] = x[i + di, j + dj] (|dj| <= 1): rows wrap
    cyclically; a column step off a row's end continues in the next row
    under helical connections and wraps within the row on the torus."""
    n, half, mask, columns = geometry
    if columns is None:
        return _roll(x, di * half + dj, n, mask)
    if di:
        x = _roll(x, di * half, n, mask)
    first, last, not_first, not_last = columns
    if dj > 0:
        return (x >> 1) & not_last | (x & first) << (half - 1)
    if dj < 0:
        return (x << 1) & not_first | (x & last) >> (half - 1)
    return x


def _step_planes(
    planes: Tuple[int, ...], geometry: _Geometry, program: _Program, phase: int
) -> Tuple[int, ...]:
    """The blocked update of the blocks anchored at ``phase``."""
    if phase == 0 or not program[0]:
        return _run(program, planes, geometry[2])
    p00, p01, p10, p11 = planes
    aligned = (p11, _shift(p10, 0, 1, geometry), _shift(p01, 1, 0, geometry),
               _shift(p00, 1, 1, geometry))
    tl, tr, bl, br = _run(program, aligned, geometry[2])
    return (_shift(br, -1, -1, geometry), _shift(bl, -1, 0, geometry),
            _shift(tr, 0, -1, geometry), tl)


def _blocked(
    grid: MargolusGrid, rule: MargolusRule, back: bool, helical: bool = False
) -> MargolusGrid:
    """One blocked update of ``grid``; with ``back``, its undo: the inverse
    program, anchored at the phase the forward step used."""
    program = _rule_programs(rule)[back]
    geometry = _geometry(grid.shape, helical)
    planes = _step_planes(grid.planes, geometry, program, grid.phase ^ back)
    return MargolusGrid._from_planes(planes, grid.shape, 1 - grid.phase)


def margolus_step(
    grid: MargolusGrid, rule: MargolusRule, threads: int = 1
) -> MargolusGrid:
    """One toroidal blocked update; the phase toggles.

    ``threads`` has no effect.  A step is a few dozen whole-plane operations
    on Python ints, which hold the interpreter lock, so a thread pool could
    only add its start-up; the parameter stays only while perfbench's traced
    ``threads2`` measurement passes it.  Nothing else takes ``threads``."""
    return _blocked(grid, rule, False)


def margolus_step_back(grid: MargolusGrid, rule: MargolusRule) -> MargolusGrid:
    """Undo one margolus_step."""
    return _blocked(grid, rule, True)


def _simulate(
    grid: MargolusGrid, n: int, rule: Optional[MargolusRule], step: Callable, back: Callable
) -> MargolusGrid:
    """``n`` steps of ``step`` (negative ``n`` runs ``back``), with the
    billiard-ball rule when ``rule`` is None."""
    r = rule if rule is not None else bbm_rule()
    return iterate_map(lambda g: step(g, r), n, grid, lambda g: back(g, r))


def simulate_bbm(
    grid: MargolusGrid, n: int, rule: Optional[MargolusRule] = None
) -> MargolusGrid:
    """Run ``n`` toroidal steps (negative ``n`` runs backwards), one
    margolus_step call per step."""
    return _simulate(grid, n, rule, margolus_step, margolus_step_back)


def margolus_step_helical(grid: MargolusGrid, rule: MargolusRule) -> MargolusGrid:
    """One blocked update under helical (screw) vertical connections.

    Read the grid's row pairs as a single two-cell-tall strip, strip
    position u = (row pair) * width + column.  Even-phase blocks are the
    strip's own squares and coincide with the toroidal ones.  Odd-phase
    blocks take their upper row from strip positions (u, u+1) on the
    lower track and their lower row from (u+c, u+c+1) on the upper track,
    u odd, so a block crossing the right edge descends one row pair
    instead of wrapping level.  Patterns that never touch the seam step
    identically to margolus_step.
    """
    return _blocked(grid, rule, False, helical=True)


def margolus_step_back_helical(
    grid: MargolusGrid, rule: MargolusRule
) -> MargolusGrid:
    """Undo one margolus_step_helical."""
    return _blocked(grid, rule, True, helical=True)


def simulate_helical(
    grid: MargolusGrid, n: int, rule: Optional[MargolusRule] = None
) -> MargolusGrid:
    """Run ``n`` helical-boundary steps (negative ``n`` runs backwards)."""
    return _simulate(grid, n, rule, margolus_step_helical, margolus_step_back_helical)


# ---------------------------------------------------------------------------
# 1D rings with named tracks.


class TrackedConfig1D:
    """Ring of cells, each a tuple of track values, plus a step counter.

    Track meaning is declared by whichever automaton owns the config; the
    band-shift convention is track 0 = top, track 1 = bottom.  The values
    live in ``tracks``, one tuple of Python ints per track around the ring;
    ``cells`` reads them back as per-cell tuples.  Equality compares the
    tracks only: no ring map reads the step counter, so a config whose
    tracks return is back at the start of its orbit.
    """

    __slots__ = ("tracks", "step")
    tracks: Tuple[Tuple[int, ...], ...]
    step: int

    def __init__(self, cells: Sequence[Sequence[int]], step: int = 0) -> None:
        if not len(cells):
            raise CaError("ring must have at least one cell")
        try:
            schemas = {len(cell) for cell in cells}
        except TypeError:
            schemas = set()
        if len(schemas) != 1:
            raise CaError("all cells must share the track schema")
        if schemas == {0}:
            raise CaError("cells must hold at least one track")
        try:
            tracks = tuple(tuple(map(operator.index, track)) for track in zip(*cells))
        except TypeError:
            raise CaError("track values must be integers") from None
        self.tracks, self.step = tracks, step

    @classmethod
    def _from_tracks(cls, tracks: Tuple[Tuple[int, ...], ...], step: int) -> "TrackedConfig1D":
        """A config around a step's output tracks, which are valid: no re-check."""
        cfg = object.__new__(cls)
        cfg.tracks, cfg.step = tracks, step
        return cfg

    @property
    def cells(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(zip(*self.tracks))

    @property
    def ring(self) -> int:
        return len(self.tracks[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackedConfig1D):
            return NotImplemented
        return self.tracks == other.tracks

    def __hash__(self) -> int:
        return hash(self.tracks)

    def __repr__(self) -> str:
        return f"TrackedConfig1D({self.cells!r}, step={self.step})"


# Data tracks of 0/1 ints reach the planes as strips of ASCII digits.
def _track_digits(track: Tuple[int, ...]) -> bytes:
    """A data track as ASCII digits; CaError unless it holds only 0 and 1."""
    try:
        raw = bytes(track)
    except ValueError:  # a value outside [0, 256)
        raw = b"\2"
    if raw.translate(None, b"\0\1"):
        raise CaError("data tracks must hold 0 or 1")
    return raw.translate(_DIGITS)


def _plane_tracks(planes: Tuple[int, ...], n: int) -> Tuple[Tuple[int, ...], ...]:
    """The two data tracks of the strip held by planes of n bits."""
    return tuple(tuple(strip.translate(_VALUES)) for strip in _plane_strip(planes, n))


def _band_shift(tracks: Sequence, d: int) -> tuple:
    """``tracks`` (tuples, or strips of digits) with the top track slid d
    cells rightward and the bottom track d cells leftward."""
    top, bottom, *rest = tracks
    d %= len(top)
    return (top[len(top) - d:] + top[:len(top) - d], bottom[d:] + bottom[:d], *rest)


# ---------------------------------------------------------------------------
# Strobe wrapper: a six-track ring whose lit condition fires every t steps.


class StrobeParts(NamedTuple):
    """Pluggable half-cell dynamics: a bijection on [0, size) driving the
    top counters, plus the firing predicate."""

    size: int
    forward: Callable[[int], int]
    backward: Callable[[int], int]
    firing: Callable[[int], bool]


def counter_parts(t: int) -> StrobeParts:
    """Toy phase counter: value climbs mod t, firing at zero."""
    if t < 1:
        raise CaError("period must be at least 1")
    return StrobeParts(t, lambda a: (a + 1) % t, lambda a: (a - 1) % t, lambda a: a == 0)


@lru_cache(maxsize=64)
def _cell_luts(parts: StrobeParts) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The strobe's bijection on counter pairs and its inverse as flat
    lookup tuples: lut[a*m + b] is the image (a', b') of the pair (a, b).

    Firing tops swap with their bottom; otherwise the top advances while
    the bottom retreats, except that moves whose bottom would land on a
    firing value are redirected.  On the flat table indexed a*m + b, the
    redirection pairs the undefined inputs with the unclaimed outputs in
    order; a counting argument makes the totals match for any plugged-in
    bijection, and kernel.inverse_table checks and inverts the result
    (CaError if it is not a permutation).  An image outside the alphabet,
    or a hole left over, is entered as -1, which fails that check.
    """
    m = parts.size

    def image(a: int, b: int) -> Optional[int]:
        if parts.firing(a):
            return b * m + a
        b2 = parts.backward(b)
        if parts.firing(b2):
            return None
        a2 = parts.forward(a)
        return a2 * m + b2 if 0 <= a2 < m and 0 <= b2 < m else -1

    table = [image(a, b) for a in range(m) for b in range(m)]
    claimed = set(table)
    free = (v for v in range(m * m) if v not in claimed)
    table = [next(free, -1) if v is None else v for v in table]
    try:
        inverse = inverse_table(table)
    except ValueError:
        raise CaError("completed cell map is not a permutation") from None
    return tuple(divmod(v, m) for v in table), tuple(divmod(v, m) for v in inverse)


def _swap_pair(tracks: list, here: int, there: int) -> None:
    """Exchange track ``here`` of each even cell with track ``there`` of its
    right neighbor, in the list of tracks: the partition swap coupling
    adjacent cells.  On an odd ring the last cell has no partner."""
    left, right = list(tracks[here]), list(tracks[there])
    end = len(left) - 1
    left[0:end:2], right[1::2] = right[1::2], left[0:end:2]
    tracks[here], tracks[there] = tuple(left), tuple(right)


class StrobeAutomaton(NamedTuple):
    """Six tracks: (top_l, top_c, top_r, bot_l, bot_c, bot_r).

    The side tracks carry a singleton alphabet here but the partition swaps
    that would couple neighbors are performed literally, so richer
    per-cell dynamics can reuse the wrapper unchanged.  A configuration is
    lit when every top counter fires.
    """

    parts: StrobeParts
    t: int
    seed: Tuple[int, int]

    def initial(self, p: int) -> TrackedConfig1D:
        a, b = self.seed
        return TrackedConfig1D(((0, a, 0, 0, b, 0),) * p, 0)

    def lit(self, cfg: TrackedConfig1D) -> bool:
        return all(map(self.parts.firing, cfg.tracks[1]))

    def _advance(self, cfg: TrackedConfig1D, d: int) -> TrackedConfig1D:
        """One step forward (d = 1) or back (d = -1).  Forward swaps track 2
        with track 0, maps every (top_c, bot_c) counter pair through the
        cell map, then swaps track 3 with track 5; back undoes that."""
        tracks = list(cfg.tracks)
        if len(tracks) != 6:
            raise CaError("strobe configs have six tracks")
        m = self.parts.size
        tops, bottoms = tracks[1], tracks[4]
        counters = tops + bottoms
        if min(counters) < 0 or max(counters) >= m:
            raise CaError("strobe counter outside the alphabet")
        back = d < 0
        lut = _cell_luts(self.parts)[back]
        _swap_pair(tracks, *((2, 0), (3, 5))[back])
        tracks[1], tracks[4] = zip(*[lut[a * m + b] for a, b in zip(tops, bottoms)])
        _swap_pair(tracks, *((3, 5), (2, 0))[back])
        return TrackedConfig1D._from_tracks(tuple(tracks), cfg.step + d)

    def step(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, 1)

    def step_back(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, -1)


def strobe_wrap(parts: StrobeParts, t: int) -> StrobeAutomaton:
    """Wrap per-cell dynamics into the six-track strobe automaton.

    The seed is (0, 1), or (0, 0) when t = 1; with counter_parts(t) a
    uniform ring is then lit at exactly the multiples of t (every step
    when t = 1)."""
    if t < 1:
        raise CaError("period must be at least 1")
    seed = (0, 0) if t == 1 else (0, 1)
    if max(seed) >= parts.size:
        raise CaError("seed outside the counter alphabet")
    return StrobeAutomaton(parts, t, seed)


def toy_counter_strobe(t: int) -> StrobeAutomaton:
    return strobe_wrap(counter_parts(t), t)


# ---------------------------------------------------------------------------
# Dimension reduction: a Margolus automaton on a ring.


class _DimReduxFields(NamedTuple):
    rule: MargolusRule
    c: int
    p: int


class DimReduxAutomaton(_DimReduxFields):
    """1D automaton replaying a 2D Margolus rule, one blocked update every
    t = c/2 + 1 steps.

    Tracks per cell: (top, bottom, parity, counter).  Lit steps (counter 0)
    pair each parity-0 cell with its right neighbor, feed the four data
    values through the 2D rule, and write the results back with top and
    bottom exchanged; the other t - 1 steps shift the top track right and
    the bottom track left, which carries every value c/2 cells around the
    helix.  The parity track flips every step and the counter climbs mod t;
    both are contractually uniform and are asserted, not trusted.

    The 2D dynamics being replayed is margolus_step_helical on a grid of
    2p/c rows by c columns; dim_redux_verify checks the two bit-exactly.

    ``leap`` (see ``kernel.iterate_map``) takes a whole period of t steps
    from a lit config, forward or back: the t - 1 band shifts compose into
    one shift by t - 1, so simulate_1d costs one blocked update, one
    shift and one check per period either way.  The fields are checked
    at construction.
    """

    __slots__ = ()

    def __new__(cls, rule: MargolusRule, c: int, p: int) -> "DimReduxAutomaton":
        if c < 4 or c % 2:
            raise CaError("circumference must be even and at least 4")
        if p <= c or p % c:
            raise CaError("ring length must be a proper multiple of c")
        try:
            rule.inverse()
        except CaError:
            raise CaError("2D rule must be bijective") from None
        return tuple.__new__(cls, (rule, c, p))

    @property
    def t(self) -> int:
        return self.c // 2 + 1

    @property
    def rows(self) -> int:
        return 2 * self.p // self.c

    # -- embeddings ---------------------------------------------------

    def embed(self, grid: MargolusGrid, n: int) -> TrackedConfig1D:
        """1D configuration representing ``grid`` as it stands after n 2D
        steps (so grid.phase must equal n mod 2); the result carries step
        counter n*t."""
        h, w = grid.shape
        if h != self.rows or w != self.c:
            raise CaError(f"grid must be {self.rows}x{self.c}")
        if grid.phase != n % 2:
            raise CaError("grid phase inconsistent with step count")
        data = self._slide(_plane_tracks(grid.planes, self.p // 2), n)
        tracks = (*data, self._parity(n * self.t % 2), (0,) * self.p)
        return TrackedConfig1D._from_tracks(tracks, n * self.t)

    def extract(self, cfg: TrackedConfig1D, n: int) -> MargolusGrid:
        """Inverse of embed: rebuild the 2D grid from a lit configuration,
        one whose counter is 0 and whose first cell has parity n*t mod 2,
        as after n*t steps from embed(grid, 0)."""
        if cfg.ring != self.p:
            raise CaError("ring length mismatch")
        ctr, par0, digits = self._check(cfg)
        if (ctr, par0) != (0, n * self.t % 2):
            raise CaError(f"config is not lit for {n} 2D steps")
        planes = _strip_planes(*self._slide(digits, n))
        return MargolusGrid._from_planes(planes, (self.rows, self.c), n % 2)

    def _slide(self, data: Sequence, n: int) -> tuple:
        """Grid strip to top and bottom tracks after n 2D steps, and back: odd
        counts leave the tracks slid c/2 cells apart with the rows of each
        pair exchanged.  Either way the map is its own inverse."""
        top, bottom = data
        if n % 2 == 0:
            return top, bottom
        return _band_shift((bottom, top), self.c // 2)

    def _parity(self, first: int) -> Tuple[int, ...]:
        """The parity track whose first cell holds ``first``."""
        return (first, first ^ 1) * (self.p // 2)

    # -- stepping -----------------------------------------------------

    def _check(self, cfg: TrackedConfig1D) -> Tuple[int, int, Tuple[bytes, bytes]]:
        """The uniform counter, the first cell's parity and the data tracks
        as digits, once the config's shape, contracts and alphabets hold."""
        tracks, p = cfg.tracks, self.p
        if len(tracks) != 4 or len(tracks[0]) != p:
            raise CaError(f"config must hold 4 tracks on a ring of {p}")
        top, bottom, parity, counter = tracks
        ctr, par0 = counter[0], parity[0]
        if counter != (ctr,) * p or not 0 <= ctr < self.t:
            raise CaError("counter track lost uniformity")
        if par0 not in (0, 1) or parity != self._parity(par0):
            raise CaError("parity track lost alternation")
        return ctr, par0, (_track_digits(top), _track_digits(bottom))

    def _blocked_update(
        self, digits: Tuple[bytes, bytes], par0: int, inverse: bool
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Pair each parity-0 cell with its right neighbor, feed the four data
        values through the rule as one kernel step of the (top, bottom)
        data tracks, given as digits, packed as a two-row grid's planes, and
        return the new (top, bottom) data tracks, written back with top and
        bottom exchanged.
        When the pairs start at cell 1, the strip is read bottom row first,
        so that the pairs are the odd-phase blocks of that two-row torus.
        The inverse reads the exchanged tracks back as the block's rows and
        undoes the step."""
        a, b = (1, 0) if inverse ^ par0 else (0, 1)
        program = _rule_programs(self.rule)[inverse]
        geometry = _geometry((2, self.p), False)
        planes = _step_planes(_strip_planes(digits[a], digits[b]), geometry, program, par0)
        first, second = _plane_tracks(planes, self.p // 2)  # rows a, b: exchanged, b first
        return (first, second) if a else (second, first)

    def _advance(self, cfg: TrackedConfig1D, d: int) -> TrackedConfig1D:
        """One step forward (d = 1) or back (d = -1).  The step leaving
        counter 0 is the blocked update, the others are band shifts."""
        ctr, par0, digits = self._check(cfg)
        back = d < 0
        if (ctr - back) % self.t:
            return self._shifts(cfg, d, (ctr + d) % self.t)
        data = self._blocked_update(digits, par0 ^ back, back)
        tracks = (*data, self._parity(par0 ^ 1), ((ctr + d) % self.t,) * self.p)
        return TrackedConfig1D._from_tracks(tracks, cfg.step + d)

    def _shifts(self, cfg: TrackedConfig1D, d: int, ctr: int) -> TrackedConfig1D:
        """|d| band-shift steps at once (backward when d < 0) from a checked
        config: the data tracks slid by d, the parity flipped |d| times, the
        counter at ctr."""
        top, bottom, parity, _ = cfg.tracks
        tracks = (*_band_shift((top, bottom), d), self._parity(parity[0] ^ (d & 1)), (ctr,) * self.p)
        return TrackedConfig1D._from_tracks(tracks, cfg.step + d)

    def step(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, 1)

    def step_back(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, -1)

    def leap(self, cfg: TrackedConfig1D, r: int) -> Optional[Tuple[TrackedConfig1D, int]]:
        """t steps from a lit config, when at least t are left: forward one
        ``step`` (the blocked update, which checks the config) and the t - 1
        band shifts as one shift; backward (r < 0) the shifts as one checked
        shift, then one ``step_back`` (the inverse blocked update)."""
        tracks = cfg.tracks
        if abs(r) < self.t or len(tracks) != 4 or len(tracks[0]) != self.p or tracks[3][0]:
            return None
        if r > 0:
            return self._shifts(self.step(cfg), self.t - 1, 0), self.t
        self._check(cfg)
        return self.step_back(self._shifts(cfg, 1 - self.t, 1)), self.t

    def lit(self, cfg: TrackedConfig1D) -> bool:
        return not any(cfg.tracks[3])


def dim_redux_compile(rule: MargolusRule, c: int, p: int) -> DimReduxAutomaton:
    return DimReduxAutomaton(rule, c, p)


def simulate_1d(automaton, cfg: TrackedConfig1D, n: int) -> TrackedConfig1D:
    """n forward steps (negative n steps backward) of any automaton with
    step/step_back, leaping where it declares a signed leap.  The engine
    stops at a return of the tracks, so an astronomically large n costs a
    few orbit lengths at most; the result's step counter is cfg.step + n
    either way."""
    out = iterate_map(automaton.step, n, cfg, automaton.step_back, getattr(automaton, "leap", None))
    return TrackedConfig1D._from_tracks(out.tracks, cfg.step + n)


def dim_redux_run(automaton: DimReduxAutomaton, grid: MargolusGrid, n: int) -> MargolusGrid:
    """``grid`` after n 2D steps (negative n steps back), replayed on the
    ring: embedded at its own phase, n*t ring steps, then extracted."""
    cfg = simulate_1d(automaton, automaton.embed(grid, grid.phase), n * automaton.t)
    return automaton.extract(cfg, grid.phase + n)


def dim_redux_verify(automaton: DimReduxAutomaton, grid: MargolusGrid, n: int) -> bool:
    """Whether dim_redux_run equals simulate_helical, bit-exactly.

    The 2D reference uses helical vertical connections; the ring cannot
    keep a level horizontal wrap, because sliding tracks preserve strip
    distance and the level wrap would need same-row cells a full row
    apart to become adjacent.
    """
    return dim_redux_run(automaton, grid, n) == simulate_helical(grid, n, automaton.rule)
