"""Reversible cellular automata: Margolus-blocked 2D grids, multi-track 1D
rings, a strobe wrapper, and the 2D-to-1D compiler.

Block encoding throughout: a 2x2 block (tl, tr, bl, br) reads as the 4-bit
value tl*8 + tr*4 + bl*2 + br.  Even-phase blocks anchor at even (row, col),
odd phase at odd coordinates, both toroidal.

The 1D side pins one geometry: ring cell x covers grid column x mod c and
row pair x // c, its two data tracks holding the upper and lower row.  With
the ring length a multiple of the circumference this helical gluing has no
shear, so the reference 2D simulation runs on an ordinary torus.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .kernel import iterate_map


class CaError(ValueError):
    pass


@dataclass(frozen=True)
class MargolusRule:
    """Permutation table of the 16 block states."""

    table: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 16 or any(not 0 <= v < 16 for v in self.table):
            raise CaError("rule table must list 16 block states")

    def inverse(self) -> "MargolusRule":
        if not rule_is_bijective(self):
            raise CaError("rule is not bijective")
        inv = [0] * 16
        for i, v in enumerate(self.table):
            inv[v] = i
        return MargolusRule(tuple(inv))


def rule_is_bijective(rule: MargolusRule) -> bool:
    return sorted(rule.table) == list(range(16))


def identity_rule() -> MargolusRule:
    return MargolusRule(tuple(range(16)))


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


@dataclass(frozen=True, eq=False)
class MargolusGrid:
    cells: np.ndarray
    phase: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.cells, dtype=np.uint8)
        if arr.ndim != 2:
            raise CaError("grid must be two-dimensional")
        h, w = arr.shape
        if h < 2 or w < 2 or h % 2 or w % 2:
            raise CaError("grid sides must be even and at least 2")
        if arr.max(initial=0) > 1:
            raise CaError("cells must be 0 or 1")
        if self.phase not in (0, 1):
            raise CaError("phase must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MargolusGrid):
            return NotImplemented
        return self.phase == other.phase and np.array_equal(self.cells, other.cells)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.cells.shape

    def live_count(self) -> int:
        return int(self.cells.sum())


def _step_even_anchored(cells: np.ndarray, lut: np.ndarray, rows: slice) -> np.ndarray:
    tl = cells[rows, :][0::2, 0::2].astype(np.uint8)
    tr = cells[rows, :][0::2, 1::2]
    bl = cells[rows, :][1::2, 0::2]
    br = cells[rows, :][1::2, 1::2]
    idx = (tl << 3) | (tr << 2) | (bl << 1) | br
    out = lut[idx]
    res = np.empty_like(cells[rows, :])
    res[0::2, 0::2] = (out >> 3) & 1
    res[0::2, 1::2] = (out >> 2) & 1
    res[1::2, 0::2] = (out >> 1) & 1
    res[1::2, 1::2] = out & 1
    return res


@lru_cache(maxsize=64)
def _rule_luts(rule: MargolusRule) -> Tuple[np.ndarray, np.ndarray]:
    """The rule's forward and inverse lookup tables, built once per rule."""
    if not rule_is_bijective(rule):
        raise CaError("refusing to step a non-bijective rule")
    return np.array(rule.table, dtype=np.uint8), np.array(rule.inverse().table, dtype=np.uint8)


def _blocked(cells_step, grid: MargolusGrid, rule: MargolusRule, back: bool, *args) -> MargolusGrid:
    """One blocked update by ``cells_step``; with ``back``, its undo: the
    inverse table, anchored at the phase the forward step used."""
    cells = cells_step(grid.cells, _rule_luts(rule)[back], grid.phase ^ back, *args)
    return MargolusGrid(cells, 1 - grid.phase)


def _toroidal_cells(cells: np.ndarray, lut: np.ndarray, phase: int, threads: int) -> np.ndarray:
    if phase == 1:
        cells = np.roll(cells, (-1, -1), (0, 1))
    h = cells.shape[0]
    if threads <= 1 or h < 4:
        new = _step_even_anchored(cells, lut, slice(0, h))
    else:
        block_rows = h // 2
        bands = min(threads, block_rows)
        bounds = [
            (2 * (block_rows * i // bands), 2 * (block_rows * (i + 1) // bands))
            for i in range(bands)
        ]
        new = np.empty_like(cells)
        with ThreadPoolExecutor(max_workers=bands) as pool:
            jobs = {
                pool.submit(_step_even_anchored, cells, lut, slice(a, b)): (a, b)
                for a, b in bounds
                if a < b
            }
            for job, (a, b) in jobs.items():
                new[a:b, :] = job.result()
    if phase == 1:
        new = np.roll(new, (1, 1), (0, 1))
    return new


def margolus_step(
    grid: MargolusGrid, rule: MargolusRule, threads: int = 1
) -> MargolusGrid:
    """One blocked update; the phase toggles.  ``threads`` > 1 splits block
    rows across a thread pool with bit-identical results."""
    return _blocked(_toroidal_cells, grid, rule, False, threads)


def margolus_step_back(
    grid: MargolusGrid, rule: MargolusRule, threads: int = 1
) -> MargolusGrid:
    """Undo one margolus_step."""
    return _blocked(_toroidal_cells, grid, rule, True, threads)


def simulate_bbm(
    grid: MargolusGrid,
    n: int,
    rule: Optional[MargolusRule] = None,
    threads: int = 1,
) -> MargolusGrid:
    """Run ``n`` toroidal steps (negative ``n`` runs backwards)."""
    r = rule if rule is not None else bbm_rule()
    return iterate_map(
        lambda g: margolus_step(g, r, threads),
        n,
        grid,
        lambda g: margolus_step_back(g, r, threads),
    )


def _helical_cells(cells: np.ndarray, lut: np.ndarray, phase: int) -> np.ndarray:
    if phase == 0:
        return _toroidal_cells(cells, lut, 0, 1)
    h, w = cells.shape
    p = h * w // 2
    top = cells[0::2, :].reshape(p).copy()
    bottom = cells[1::2, :].reshape(p).copy()
    u = np.arange(1, p, 2)
    lo = (u + w) % p
    tl = bottom[u]
    tr = bottom[(u + 1) % p]
    bl = top[lo]
    br = top[(lo + 1) % p]
    out = lut[(tl << 3) | (tr << 2) | (bl << 1) | br]
    bottom[u] = (out >> 3) & 1
    bottom[(u + 1) % p] = (out >> 2) & 1
    top[lo] = (out >> 1) & 1
    top[(lo + 1) % p] = out & 1
    new = np.empty_like(cells)
    new[0::2, :] = top.reshape(h // 2, w)
    new[1::2, :] = bottom.reshape(h // 2, w)
    return new


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
    return _blocked(_helical_cells, grid, rule, False)


def margolus_step_back_helical(
    grid: MargolusGrid, rule: MargolusRule
) -> MargolusGrid:
    """Undo one margolus_step_helical."""
    return _blocked(_helical_cells, grid, rule, True)


def simulate_helical(
    grid: MargolusGrid, n: int, rule: Optional[MargolusRule] = None
) -> MargolusGrid:
    """Run ``n`` helical-boundary steps (negative ``n`` runs backwards)."""
    r = rule if rule is not None else bbm_rule()
    return iterate_map(
        lambda g: margolus_step_helical(g, r),
        n,
        grid,
        lambda g: margolus_step_back_helical(g, r),
    )


# ---------------------------------------------------------------------------
# 1D rings with named tracks.


@dataclass(frozen=True)
class TrackedConfig1D:
    """Ring of cells, each a tuple of track values, plus a step counter.

    Track meaning is declared by whichever automaton owns the config; the
    band-shift convention is track 0 = top, track 1 = bottom.
    """

    cells: Tuple[Tuple[int, ...], ...]
    step: int = 0

    def __post_init__(self) -> None:
        if not self.cells:
            raise CaError("ring must have at least one cell")
        width = len(self.cells[0])
        if any(len(c) != width for c in self.cells):
            raise CaError("all cells must share the track schema")

    @property
    def ring(self) -> int:
        return len(self.cells)

    def track(self, i: int) -> Tuple[int, ...]:
        return tuple(c[i] for c in self.cells)


def _with_tracks(
    cfg: TrackedConfig1D, replacements: dict, step: int
) -> TrackedConfig1D:
    width = len(cfg.cells[0])
    cols = [list(cfg.track(i)) for i in range(width)]
    for i, vals in replacements.items():
        cols[i] = list(vals)
    cells = tuple(tuple(col[x] for col in cols) for x in range(cfg.ring))
    return TrackedConfig1D(cells, step)


def band_shift_step(cfg: TrackedConfig1D, reverse: bool = False) -> TrackedConfig1D:
    """Slide the top track one cell rightward and the bottom track one cell
    leftward around the ring (other tracks stay)."""
    p = cfg.ring
    top, bottom = cfg.track(0), cfg.track(1)
    d = -1 if reverse else 1
    new_top = tuple(top[(x - d) % p] for x in range(p))
    new_bottom = tuple(bottom[(x + d) % p] for x in range(p))
    return _with_tracks(cfg, {0: new_top, 1: new_bottom}, cfg.step + (1 if not reverse else -1))


# ---------------------------------------------------------------------------
# Strobe wrapper: a six-track ring whose lit condition fires every t steps.


@dataclass(frozen=True)
class StrobeParts:
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
def _paired_cell_map(parts: StrobeParts) -> dict:
    """Bijection on counter pairs (a, b): firing tops swap with their
    bottom; otherwise the top advances while the bottom retreats, except
    that moves whose bottom would land on a firing value are redirected.

    The redirection pairs the undefined inputs with the unclaimed outputs
    in sorted order; a counting argument makes the totals match for any
    plugged-in bijection, and the result is checked to be a permutation.
    """
    m = parts.size
    mapping = {}
    for a in range(m):
        for b in range(m):
            if parts.firing(a):
                mapping[(a, b)] = (b, a)
            else:
                b2 = parts.backward(b)
                if not parts.firing(b2):
                    mapping[(a, b)] = (parts.forward(a), b2)
    missing_in = sorted(
        (a, b) for a in range(m) for b in range(m) if (a, b) not in mapping
    )
    claimed = set(mapping.values())
    missing_out = sorted(
        (a, b) for a in range(m) for b in range(m) if (a, b) not in claimed
    )
    if len(missing_in) != len(missing_out):
        raise CaError("cell map completion failed")
    mapping.update(zip(missing_in, missing_out))
    if sorted(mapping.values()) != sorted(mapping.keys()):
        raise CaError("completed cell map is not a permutation")
    return mapping


@lru_cache(maxsize=64)
def _inverse_cell_map(parts: StrobeParts) -> dict:
    return {v: k for k, v in _paired_cell_map(parts).items()}


@dataclass(frozen=True)
class StrobeAutomaton:
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
        return TrackedConfig1D(tuple((0, a, 0, 0, b, 0) for _ in range(p)), 0)

    def lit(self, cfg: TrackedConfig1D) -> bool:
        return all(self.parts.firing(c[1]) for c in cfg.cells)

    def _swap_pair(self, cfg: TrackedConfig1D, here: int, there: int) -> TrackedConfig1D:
        """Exchange track ``here`` of each even cell with track ``there`` of
        its right neighbor: the partition swap coupling adjacent cells."""
        a, b = list(cfg.track(here)), list(cfg.track(there))
        for x in range(0, cfg.ring - 1, 2):
            a[x], b[x + 1] = b[x + 1], a[x]
        return _with_tracks(cfg, {here: a, there: b}, cfg.step)

    def _advance(self, cfg, table: dict, first, last, d: int) -> TrackedConfig1D:
        """One step either way: swap the ``first`` track pair, map every
        (top_c, bot_c) counter pair through ``table``, swap ``last``."""
        cfg = self._swap_pair(cfg, *first)
        cells = []
        for c in cfg.cells:
            a, b = table[(c[1], c[4])]
            cells.append((c[0], a, c[2], c[3], b, c[5]))
        cfg = self._swap_pair(TrackedConfig1D(tuple(cells), cfg.step), *last)
        return TrackedConfig1D(cfg.cells, cfg.step + d)

    def step(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, _paired_cell_map(self.parts), (2, 0), (3, 5), 1)

    def step_back(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        return self._advance(cfg, _inverse_cell_map(self.parts), (3, 5), (2, 0), -1)


def strobe_wrap(
    parts: StrobeParts, t: int, pattern: Tuple[int, int] = (0, 1)
) -> StrobeAutomaton:
    """Wrap per-cell dynamics into the six-track strobe automaton.

    With counter_parts(t) and the default seed, a uniform ring is lit at
    exactly the multiples of t (every step when t = 1, where the seed
    collapses to (0, 0))."""
    if t < 1:
        raise CaError("period must be at least 1")
    a, b = pattern
    if t == 1:
        a = b = 0
    if not (0 <= a < parts.size and 0 <= b < parts.size):
        raise CaError("seed outside the counter alphabet")
    return StrobeAutomaton(parts, t, (a, b))


def toy_counter_strobe(t: int) -> StrobeAutomaton:
    return strobe_wrap(counter_parts(t), t)


# ---------------------------------------------------------------------------
# Dimension reduction: a Margolus automaton on a ring.


@dataclass(frozen=True)
class DimReduxAutomaton:
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
    """

    rule: MargolusRule
    c: int
    p: int

    def __post_init__(self) -> None:
        if self.c < 4 or self.c % 2:
            raise CaError("circumference must be even and at least 4")
        if self.p <= self.c or self.p % self.c:
            raise CaError("ring length must be a proper multiple of c")
        if not rule_is_bijective(self.rule):
            raise CaError("2D rule must be bijective")

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
        cells = []
        for x in range(self.p):
            top, bottom = self._home(x, n % 2)
            cells.append(
                (int(grid.cells[top]), int(grid.cells[bottom]), (x + n * self.t) % 2, 0)
            )
        return TrackedConfig1D(tuple(cells), n * self.t)

    def extract(self, cfg: TrackedConfig1D, n: int) -> MargolusGrid:
        """Inverse of embed: rebuild the 2D grid from a lit configuration."""
        if cfg.ring != self.p:
            raise CaError("ring length mismatch")
        arr = np.zeros((self.rows, self.c), dtype=np.uint8)
        for x in range(self.p):
            top, bottom = self._home(x, n % 2)
            arr[top], arr[bottom] = cfg.cells[x][0], cfg.cells[x][1]
        return MargolusGrid(arr, n % 2)

    def _home(self, x: int, odd: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Grid (row, col) of ring cell x's top and bottom track values after
        an even or odd number of 2D steps; odd counts leave the tracks slid
        c/2 cells apart with the rows of each pair exchanged."""
        if not odd:
            pair, col = divmod(x, self.c)
            return (2 * pair, col), (2 * pair + 1, col)
        half = self.c // 2
        pair_t, col_t = divmod((x - half) % self.p, self.c)
        pair_b, col_b = divmod((x + half) % self.p, self.c)
        return (2 * pair_t + 1, col_t), (2 * pair_b, col_b)

    # -- stepping -----------------------------------------------------

    def _check_uniform(self, cfg: TrackedConfig1D) -> Tuple[int, int]:
        ctr = cfg.cells[0][3]
        par0 = cfg.cells[0][2]
        for x, cell in enumerate(cfg.cells):
            if cell[3] != ctr:
                raise CaError("counter track lost uniformity")
            if cell[2] != (par0 + x) % 2:
                raise CaError("parity track lost alternation")
        return ctr, par0

    def _blocked_update(self, cfg: TrackedConfig1D, inverse: bool) -> TrackedConfig1D:
        # the inverse reads the exchanged tracks back as the block's rows
        upper, lower = (1, 0) if inverse else (0, 1)
        table = self.rule.inverse().table if inverse else self.rule.table
        top, bottom = list(cfg.track(upper)), list(cfg.track(lower))
        starts = [x for x in range(cfg.ring) if cfg.cells[x][2] == 0]
        if len(starts) * 2 != cfg.ring:
            raise CaError("parity track does not split the ring into pairs")
        for x in starts:
            y = (x + 1) % cfg.ring
            if cfg.cells[y][2] != 1:
                raise CaError("parity track does not alternate at a block")
            out = table[top[x] * 8 + top[y] * 4 + bottom[x] * 2 + bottom[y]]
            top[x], top[y] = (out >> 1) & 1, out & 1
            bottom[x], bottom[y] = (out >> 3) & 1, (out >> 2) & 1
        return _with_tracks(cfg, {upper: top, lower: bottom}, cfg.step)

    def step(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        if cfg.ring != self.p:
            raise CaError("ring length mismatch")
        ctr, _ = self._check_uniform(cfg)
        new_step = cfg.step + 1
        if ctr == 0:
            cfg = self._blocked_update(cfg, inverse=False)
        else:
            cfg = band_shift_step(cfg)
        cells = tuple(
            (c[0], c[1], 1 - c[2], (c[3] + 1) % self.t) for c in cfg.cells
        )
        return TrackedConfig1D(cells, new_step)

    def step_back(self, cfg: TrackedConfig1D) -> TrackedConfig1D:
        if cfg.ring != self.p:
            raise CaError("ring length mismatch")
        ctr, _ = self._check_uniform(cfg)
        pre_ctr = (ctr - 1) % self.t
        new_step = cfg.step - 1
        cells = tuple((c[0], c[1], 1 - c[2], pre_ctr) for c in cfg.cells)
        cfg = TrackedConfig1D(cells, new_step)
        if pre_ctr == 0:
            return self._blocked_update(cfg, inverse=True)
        return TrackedConfig1D(band_shift_step(cfg, reverse=True).cells, new_step)

    def lit(self, cfg: TrackedConfig1D) -> bool:
        return all(c[3] == 0 for c in cfg.cells)


def dim_redux_compile(rule: MargolusRule, c: int, p: int) -> DimReduxAutomaton:
    return DimReduxAutomaton(rule, c, p)


def simulate_1d(automaton, cfg: TrackedConfig1D, n: int) -> TrackedConfig1D:
    """n forward steps (negative n steps backward) of any automaton with
    step/step_back.  The config's step counter keeps it from returning to
    the start, so the engine never shortcuts here; it only shares the loop."""
    return iterate_map(automaton.step, n, cfg, automaton.step_back)


def dim_redux_verify(
    automaton: DimReduxAutomaton, grid: MargolusGrid, n: int
) -> bool:
    """Drive both simulations and compare bit-exactly.

    The 2D reference uses helical vertical connections; the ring cannot
    keep a level horizontal wrap, because sliding tracks preserve strip
    distance and the level wrap would need same-row cells a full row
    apart to become adjacent.
    """
    cfg = automaton.embed(grid, 0)
    cfg = simulate_1d(automaton, cfg, n * automaton.t)
    g2 = simulate_helical(grid, n, automaton.rule)
    return cfg.cells == automaton.embed(g2, n).cells
