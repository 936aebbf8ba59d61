"""Margolus dynamics, the strobe wrapper, and the 1D dimension reduction."""

import copy
import pickle

import numpy as np
import pytest

from ibx.ca import (
    CaError,
    DimReduxAutomaton,
    MargolusGrid,
    MargolusRule,
    StrobeParts,
    TrackedConfig1D,
    _cell_luts,
    _band_shift,
    _track_digits,
    bbm_rule,
    counter_parts,
    dim_redux_compile,
    dim_redux_run,
    dim_redux_verify,
    margolus_step,
    margolus_step_back,
    margolus_step_back_helical,
    margolus_step_helical,
    random_bijective_rule,
    simulate_1d,
    simulate_bbm,
    simulate_helical,
    strobe_wrap,
    toy_counter_strobe,
)


# -- reference implementations the library is measured against ------------


IDENTITY_RULE = MargolusRule(tuple(range(16)))


def derived_bbm_table():
    """The collision rule, rebuilt from its case description."""
    table = []
    for code in range(16):
        bits = [(code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1]
        if sum(bits) == 1:
            out = bits[::-1]
        elif code in (0b1001, 0b0110):
            out = [1 - b for b in bits]
        else:
            out = bits
        table.append((out[0] << 3) | (out[1] << 2) | (out[2] << 1) | out[3])
    return tuple(table)


def naive_torus_step(cells, phase, table):
    h, w = len(cells), len(cells[0])
    out = [row[:] for row in cells]
    for r in range(phase, h + phase, 2):
        for c in range(phase, w + phase, 2):
            quad = [
                (r % h, c % w),
                (r % h, (c + 1) % w),
                ((r + 1) % h, c % w),
                ((r + 1) % h, (c + 1) % w),
            ]
            code = 0
            for rr, cc in quad:
                code = (code << 1) | cells[rr][cc]
            v = table[code]
            for i, (rr, cc) in enumerate(quad):
                out[rr][cc] = (v >> (3 - i)) & 1
    return out


def naive_helical_odd_step(cells, table):
    """Odd phase with screw vertical connections: walking off the right
    edge of a row pair continues two rows down."""
    h, w = len(cells), len(cells[0])

    def succ(r, c):
        return (r, c + 1) if c + 1 < w else ((r + 2) % h, 0)

    out = [row[:] for row in cells]
    for r in range(1, h, 2):
        for c in range(1, w, 2):
            quad = [(r, c), succ(r, c), ((r + 1) % h, c), succ((r + 1) % h, c)]
            code = 0
            for rr, cc in quad:
                code = (code << 1) | cells[rr][cc]
            v = table[code]
            for i, (rr, cc) in enumerate(quad):
                out[rr][cc] = (v >> (3 - i)) & 1
    return out


def reference_step_even_anchored(cells, lut):
    """The blocked update of the even-anchored blocks as it was written
    before the kernel read row pairs as 16-bit words: four strided byte
    reads, a gather through the 16-entry table ``lut``, four strided byte
    writes."""
    tl, tr = cells[0::2, 0::2], cells[0::2, 1::2]
    bl, br = cells[1::2, 0::2], cells[1::2, 1::2]
    out = lut[(tl << 3) | (tr << 2) | (bl << 1) | br]
    res = np.empty_like(cells)
    res[0::2, 0::2] = (out >> 3) & 1
    res[0::2, 1::2] = (out >> 2) & 1
    res[1::2, 0::2] = (out >> 1) & 1
    res[1::2, 1::2] = out & 1
    return res


def reference_torus(cells, table, phase):
    """The toroidal step around the reference kernel: odd blocks are the
    even blocks of the grid rolled up and left by one cell."""
    cells = np.asarray(cells, dtype=np.uint8)
    lut = np.array(table, dtype=np.uint8)
    if phase == 0:
        return reference_step_even_anchored(cells, lut)
    new = reference_step_even_anchored(np.roll(cells, (-1, -1), (0, 1)), lut)
    return np.roll(new, (1, 1), (0, 1))


def reference_helical(cells, table, phase):
    """The helical step around the reference kernel: the odd step is the
    toroidal odd step of the grid's two-row strip, upper track slid back
    one row pair."""
    cells = np.asarray(cells, dtype=np.uint8)
    if phase == 0:
        return reference_torus(cells, table, 0)
    h, w = cells.shape
    top, bottom = cells[0::2].reshape(-1), cells[1::2].reshape(-1)
    new = reference_torus(np.stack([np.roll(top, -w), bottom]), table, 1)
    new[0] = np.roll(new[0], w)
    return new.reshape(2, h // 2, w).swapaxes(0, 1).reshape(h, w)


def reference_row_pairs(cells, lut):
    """The blocked update of the blocks anchored at even (row, col), as the
    row-pair kernel computed it before grids were held as bit planes.

    ``cells`` must be a C-contiguous uint8 array of 0/1 cells, its height
    and width even: each element of ``cells.view(np.uint16)`` is then one
    block row.  A block's index is ``top | bottom << 1``; one ``lut.take``
    gathers both output rows as one 32-bit word, and two row-strided writes
    put them back.
    """
    words = cells.view(np.uint16)
    blocks = lut.take(words[0::2] | words[1::2] << 1).view(np.uint16)
    res = np.empty_like(cells)
    rows = res.view(np.uint16)
    rows[0::2], rows[1::2] = blocks[:, 0::2], blocks[:, 1::2]
    return res


def reference_rule_luts(rule):
    """The row-pair kernel's forward and inverse block tables: block state s
    laid out as the bytes (tl, tr, bl, br) gives both the index (its rows
    as 16-bit words) and the entry (its image's bytes as one 32-bit word)."""
    blocks = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    rows = blocks.view(np.uint16)
    index = rows[:, 0] | rows[:, 1] << 1
    images = blocks.view(np.uint32)[:, 0]

    def lut(table):
        out = np.zeros(int(index.max()) + 1, np.uint32)
        out[index] = images[list(table)]
        return out

    return lut(rule.table), lut(rule.inverse().table)


def reference_blocked(cells, rule, phase, back, seam):
    """One step (``back``: one step back) of a grid at ``phase`` through the
    row-pair kernel.  The odd phase is the even phase of the grid rolled up
    and left by one cell; an odd block that crosses the right edge takes
    its column-0 cells from ``seam`` rows further down: 0 on the torus, 2
    under helical connections."""
    cells = np.array(cells, dtype=np.uint8)
    lut = reference_rule_luts(rule)[back]
    if phase ^ back:
        cells = np.roll(cells, (-1, -1), (0, 1))
        cells[:, -1] = np.roll(cells[:, -1], -seam)
        new = reference_row_pairs(cells, lut)
        new[:, -1] = np.roll(new[:, -1], seam)
        return np.roll(new, (1, 1), (0, 1))
    return reference_row_pairs(cells, lut)


def reference_cell_map(parts):
    """The strobe's cell map as a dict of counter pairs: firing tops swap
    with their bottom, other tops advance while the bottom retreats, and
    the moves whose bottom would land on a firing value (the holes) take
    the unclaimed pairs, both in sorted order."""
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
    assert len(missing_in) == len(missing_out)
    mapping.update(zip(missing_in, missing_out))
    assert sorted(mapping.values()) == sorted(mapping.keys())
    return mapping


def reference_strobe_step(strobe, cfg, back=False):
    """The per-cell strobe step: swap loops over the even cells around a
    dict lookup of the reference cell map, inverted for a step back."""
    table = reference_cell_map(strobe.parts)
    if back:
        table = {v: k for k, v in table.items()}
    cells = [list(c) for c in cfg.cells]

    def swap(here, there):
        for x in range(0, len(cells) - 1, 2):
            cells[x][here], cells[x + 1][there] = cells[x + 1][there], cells[x][here]

    first, last = ((3, 5), (2, 0)) if back else ((2, 0), (3, 5))
    swap(*first)
    for c in cells:
        c[1], c[4] = table[(c[1], c[4])]
    swap(*last)
    return TrackedConfig1D(tuple(map(tuple, cells)), cfg.step + (-1 if back else 1))


def literal_steps(auto, cfg, n):
    for _ in range(n):
        cfg = auto.step(cfg)
    return cfg


def return_time(auto, cfg):
    out, n = auto.step(cfg), 1
    while out.cells != cfg.cells:
        out, n = auto.step(out), n + 1
    return n


def grid_of(cells, phase=0):
    return MargolusGrid(np.array(cells, dtype=np.uint8), phase)


def random_cells(rng, h, w):
    return [[rng.randint(0, 1) for _ in range(w)] for _ in range(h)]


# -- rules ---------------------------------------------------------------


def test_bbm_rule_matches_its_description():
    assert bbm_rule().table == derived_bbm_table()


def test_bbm_rule_is_a_bijective_involution():
    t = bbm_rule().table
    assert sorted(t) == list(range(16))
    assert all(t[t[i]] == i for i in range(16))
    assert bbm_rule().inverse() == bbm_rule()


def test_identity_rule_bijective():
    assert IDENTITY_RULE.inverse() == IDENTITY_RULE


def test_clear_rule_rejected():
    clear = MargolusRule(tuple(0 for _ in range(16)))
    assert sorted(clear.table) != list(range(16))
    with pytest.raises(CaError, match="rule is not bijective"):
        clear.inverse()
    with pytest.raises(CaError):
        margolus_step(grid_of([[0, 0], [0, 0]]), clear)
    with pytest.raises(CaError, match="^2D rule must be bijective$"):
        DimReduxAutomaton(clear, 4, 8)


def test_a_rule_that_is_not_bijective_raises_on_every_step():
    clear = MargolusRule(tuple(0 for _ in range(16)))
    steps = (margolus_step, margolus_step_back, margolus_step_helical, margolus_step_back_helical)
    for step in steps:
        for phase in (0, 1):
            with pytest.raises(CaError, match="rule is not bijective"):
                step(grid_of([[0, 1], [1, 0]], phase), clear)


def test_random_rules_are_bijective(rng):
    for _ in range(10):
        assert sorted(random_bijective_rule(rng).table) == list(range(16))


# -- toroidal stepping ---------------------------------------------------


def test_empty_grid_stays_empty():
    g = grid_of([[0] * 8 for _ in range(8)])
    for _ in range(6):
        g = margolus_step(g, bbm_rule())
        assert g.live_count() == 0


def test_single_ball_travels_diagonally():
    cells = [[0] * 16 for _ in range(16)]
    cells[5][5] = 1
    g = grid_of(cells)
    for n in range(1, 9):
        g = margolus_step(g, bbm_rule())
        assert g.live_count() == 1
        r, c = map(int, np.argwhere(g.cells == 1)[0])
        assert (r, c) == ((5 - n) % 16, (5 - n) % 16)


def test_step_matches_naive_torus(rng):
    rule = bbm_rule()
    for phase in (0, 1):
        for _ in range(5):
            cells = random_cells(rng, 6, 8)
            got = margolus_step(grid_of(cells, phase), rule)
            want = naive_torus_step(cells, phase, rule.table)
            assert got.cells.tolist() == want
            assert got.phase == 1 - phase


def test_random_rule_matches_naive_torus(rng):
    for _ in range(5):
        rule = random_bijective_rule(rng)
        cells = random_cells(rng, 4, 6)
        got = margolus_step(grid_of(cells, 1), rule)
        assert got.cells.tolist() == naive_torus_step(cells, 1, rule.table)


def test_live_count_invariant_under_bbm(rng):
    g = grid_of(random_cells(rng, 8, 8))
    count = g.live_count()
    for _ in range(100):
        g = margolus_step(g, bbm_rule())
        assert g.live_count() == count


def test_forward_backward_round_trip(rng):
    start = grid_of(random_cells(rng, 32, 32))
    g = simulate_bbm(start, 500)
    assert simulate_bbm(g, -500) == start


def test_simulate_bbm_matches_the_literal_loop_past_the_orbit(rng):
    # 4x4 billiard-ball grids and 2x2 grids under random rules return to
    # their start within a few dozen steps, so n runs well past the return
    cases = [(4, bbm_rule())] * 3 + [(2, random_bijective_rule(rng)) for _ in range(3)]
    for side, rule in cases:
        start = grid_of(random_cells(rng, side, side))
        g, back = start, start
        for n in range(1, 121):
            g = margolus_step(g, rule)
            back = margolus_step_back(back, rule)
            if n % 7 == 0:
                assert simulate_bbm(start, n, rule) == g
                assert simulate_bbm(start, -n, rule) == back


def test_simulate_bbm_huge_n_on_an_empty_grid_returns_at_once():
    empty = grid_of(np.zeros((8, 8)))
    assert simulate_bbm(empty, 10**20) == empty
    assert simulate_bbm(empty, 10**20 + 1) == grid_of(np.zeros((8, 8)), phase=1)


def test_step_back_undoes_step(rng):
    rule = random_bijective_rule(rng)
    for phase in (0, 1):
        g = grid_of(random_cells(rng, 6, 6), phase)
        assert margolus_step_back(margolus_step(g, rule), rule) == g


def test_two_ball_collision_conserves_count():
    cells = [[0] * 16 for _ in range(16)]
    cells[2][2] = 1
    cells[2][5] = 1
    g = grid_of(cells)
    for _ in range(20):
        g = margolus_step(g, bbm_rule())
        assert g.live_count() == 2


def test_threaded_step_is_bit_identical(rng):
    rule = bbm_rule()
    for phase in (0, 1):
        cells = random_cells(rng, 16, 16)
        a = margolus_step(grid_of(cells, phase), rule, threads=1)
        b = margolus_step(grid_of(cells, phase), rule, threads=3)
        assert a == b


def every_block_code_grid(phase):
    """An 8x8 grid whose 16 blocks at ``phase`` hold the 16 block codes."""
    cells = np.zeros((8, 8), dtype=np.uint8)
    for code in range(16):
        r, c = 2 * (code // 4), 2 * (code % 4)
        cells[r : r + 2, c : c + 2] = [[code >> 3 & 1, code >> 2 & 1], [code >> 1 & 1, code & 1]]
    return np.roll(cells, (phase, phase), (0, 1))


def kernel_rules(rng):
    return [bbm_rule(), IDENTITY_RULE] + [random_bijective_rule(rng) for _ in range(24)]


def assert_steps_match_the_references(cells, rule, phase):
    """margolus_step and margolus_step_back of ``cells`` at ``phase`` against
    the reference kernel and the literal loop; the step back runs the
    inverse table at the other phase."""
    forward = (margolus_step, rule.table, phase)
    back = (margolus_step_back, rule.inverse().table, 1 - phase)
    for step, table, anchor in (forward, back):
        got = step(grid_of(cells, phase), rule)
        assert np.array_equal(got.cells, reference_torus(cells, table, anchor))
        assert got.cells.tolist() == naive_torus_step(np.asarray(cells).tolist(), anchor, table)
        assert got.phase == 1 - phase


def test_kernel_matches_the_reference_on_every_block_code(rng):
    for phase in (0, 1):
        cells = every_block_code_grid(phase)
        for rule in kernel_rules(rng):
            assert_steps_match_the_references(cells, rule, phase)


def test_kernel_matches_the_reference_on_the_narrowest_grids(rng):
    rules = kernel_rules(rng)
    for h, w in ((2, 2), (2, 4), (2, 10), (4, 2), (10, 2)):
        for phase in (0, 1):
            for rule in rules:
                assert_steps_match_the_references(random_cells(rng, h, w), rule, phase)


def test_threaded_bands_of_a_tall_grid_are_bit_identical(rng):
    rule = random_bijective_rule(rng)
    cells = np.array(random_cells(rng, 1024, 6), dtype=np.uint8)
    for phase in (0, 1):
        want = reference_torus(cells, rule.table, phase)
        for threads in (1, 2, 3):
            got = margolus_step(grid_of(cells, phase), rule, threads=threads)
            assert np.array_equal(got.cells, want)
            back = margolus_step_back(got, rule)
            assert np.array_equal(back.cells, cells)


# Plane sizes N = (h/2)(w/2) around Python's 30-bit digits and 64 bits, in
# one row of blocks, one column and squarer shapes, then a tall and a wide
# grid.
PLANE_SHAPES = [
    (2, 2), (2, 58), (58, 2), (12, 10), (2, 60), (2, 62), (62, 2), (2, 118), (118, 2),
    (4, 60), (12, 20), (2, 122), (122, 2), (16, 16), (4, 64), (64, 4), (10, 26), (26, 10),
    (1024, 6), (2, 1000),
]


@pytest.mark.parametrize("helical", [False, True], ids=["torus", "helical"])
@pytest.mark.parametrize("shape", PLANE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_plane_kernel_matches_the_row_pair_kernel(rng, shape, helical):
    steps = (margolus_step_helical, margolus_step_back_helical) if helical \
        else (margolus_step, margolus_step_back)
    seam = 2 if helical else 0
    h, w = shape
    rules = [IDENTITY_RULE, bbm_rule()] + [random_bijective_rule(rng) for _ in range(3)]
    grids = [np.ones(shape, np.uint8)]
    grids += [np.array(random_cells(rng, h, w), np.uint8) for _ in range(2)]
    for rule in rules:
        for cells in grids:
            for phase in (0, 1):
                for back, step in enumerate(steps):
                    want = reference_blocked(cells, rule, phase, back, seam)
                    got = step(grid_of(cells, phase), rule)
                    # planes equal to a fresh grid's: no stray bit above N
                    assert got == MargolusGrid(want, 1 - phase), (rule, phase, back)
                    assert np.array_equal(got.cells, want)


def test_planes_hold_the_documented_bits(rng):
    # plane P_rc holds cell (2i + r, 2j + c) at bit i*(w/2) + j
    cells = np.array(random_cells(rng, 6, 10), np.uint8)
    planes = MargolusGrid(cells).planes
    for k, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        bits = [int(cells[2 * i + r, 2 * j + c]) << (5 * i + j) for i in range(3) for j in range(5)]
        assert planes[k] == sum(bits)


def test_stepped_grids_build_their_cells_once_and_read_only(rng):
    start = grid_of(random_cells(rng, 8, 6))
    steps = (margolus_step, margolus_step_back, margolus_step_helical, margolus_step_back_helical)
    for step in steps:
        g, twin = step(start, bbm_rule()), step(start, bbm_rule())
        assert g == twin and g.live_count() == start.live_count()
        assert g._cells is None and twin._cells is None  # neither == nor live_count unpacked
        cells = g.cells
        assert g.cells is cells
        with pytest.raises(ValueError):
            cells[0, 0] ^= 1
        assert g == MargolusGrid(cells, g.phase)


def test_grids_are_immutable_unhashable_and_copyable(rng):
    built = grid_of(random_cells(rng, 4, 6))
    assert built.cells is built.cells  # the validated array is kept
    g = margolus_step(built, bbm_rule())
    for name in ("phase", "planes", "shape", "cells"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(TypeError):
        hash(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.shape == (4, 6) and np.array_equal(twin.cells, g.cells)


def test_grid_guards():
    with pytest.raises(CaError):
        grid_of([[0, 1, 0], [1, 0, 1]])  # odd width
    with pytest.raises(CaError):
        grid_of([[0, 2], [0, 0]])  # non-binary
    g = grid_of([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        g.cells[0, 0] = 1
    with pytest.raises(ValueError):
        margolus_step(g, bbm_rule()).cells[0, 0] = 1


def test_grid_equality_includes_phase():
    a = grid_of([[0, 1], [1, 0]], 0)
    b = grid_of([[0, 1], [1, 0]], 1)
    assert a != b


def test_grid_equality_includes_shape_and_every_cell(rng):
    cells = np.array(random_cells(rng, 4, 4), dtype=np.uint8)
    square = MargolusGrid(cells)
    assert square != MargolusGrid(cells.reshape(2, 8))  # equal bytes
    assert square == MargolusGrid(cells.copy())
    for i in range(16):
        flipped = cells.copy().reshape(-1)
        flipped[i] ^= 1
        assert square != MargolusGrid(flipped.reshape(4, 4))
    stepped = margolus_step(square, bbm_rule())
    assert stepped == MargolusGrid(stepped.cells.copy(), 1)


# -- helical stepping ----------------------------------------------------


def test_helical_even_phase_equals_toroidal(rng):
    rule = random_bijective_rule(rng)
    cells = random_cells(rng, 4, 6)
    assert margolus_step_helical(grid_of(cells, 0), rule) == margolus_step(
        grid_of(cells, 0), rule
    )


def test_helical_odd_phase_matches_naive(rng):
    for h, w in ((4, 4), (4, 6), (6, 4), (8, 4)):
        rule = random_bijective_rule(rng)
        cells = random_cells(rng, h, w)
        got = margolus_step_helical(grid_of(cells, 1), rule)
        assert got.cells.tolist() == naive_helical_odd_step(cells, rule.table)
        assert got.phase == 0


def test_helical_odd_step_on_two_rows_matches_naive(rng):
    # a single row pair: the odd block at the seam takes its column-0 cells
    # from the same two rows, as on the torus
    for w in (2, 4, 6, 8):
        rule = random_bijective_rule(rng)
        cells = random_cells(rng, 2, w)
        got = margolus_step_helical(grid_of(cells, 1), rule)
        assert got.cells.tolist() == naive_helical_odd_step(cells, rule.table)
        assert margolus_step_back_helical(got, rule) == grid_of(cells, 1)


def test_helical_matches_the_reference(rng):
    for h, w in ((2, 2), (2, 6), (4, 2), (6, 4), (8, 6), (16, 16)):
        for rule in kernel_rules(rng)[:6]:
            cells = random_cells(rng, h, w)
            for phase in (0, 1):
                got = margolus_step_helical(grid_of(cells, phase), rule)
                assert np.array_equal(got.cells, reference_helical(cells, rule.table, phase))
                back = margolus_step_back_helical(grid_of(cells, phase), rule)
                inverse = rule.inverse().table
                assert np.array_equal(back.cells, reference_helical(cells, inverse, 1 - phase))


def test_helical_agrees_off_the_seam(rng):
    # Pattern confined to columns 1..w-2 of one row pair: no odd block
    # reaches the right edge, so the two conventions coincide for a step.
    cells = [[0] * 6 for _ in range(4)]
    for c in (1, 2, 3, 4):
        cells[0][c] = (c * 7) % 2
        cells[1][c] = 1
    g = grid_of(cells, 1)
    rule = bbm_rule()
    assert margolus_step_helical(g, rule) == margolus_step(g, rule)


def test_helical_seam_block_descends_a_row_pair():
    # A lone ball at (1, 3): the torus keeps it on rows 1-2, the screw
    # convention carries it to (0, 0) two rows farther down.
    cells = [[0] * 4 for _ in range(4)]
    cells[1][3] = 1
    g = grid_of(cells, 1)
    helical = margolus_step_helical(g, bbm_rule())
    torus = margolus_step(g, bbm_rule())
    assert helical.cells[0, 0] == 1 and helical.live_count() == 1
    assert torus.cells[2, 0] == 1 and torus.live_count() == 1


def test_helical_two_row_grids_match_the_torus(rng):
    # With a single row pair the screw has nothing to shear across.
    rule = random_bijective_rule(rng)
    for phase in (0, 1):
        cells = random_cells(rng, 2, 6)
        assert margolus_step_helical(grid_of(cells, phase), rule) == margolus_step(
            grid_of(cells, phase), rule
        )


def test_helical_round_trip(rng):
    rule = random_bijective_rule(rng)
    start = grid_of(random_cells(rng, 8, 4))
    g = simulate_helical(start, 101, rule)
    assert simulate_helical(g, -101, rule) == start
    g2 = grid_of(random_cells(rng, 4, 4), 1)
    assert margolus_step_back_helical(margolus_step_helical(g2, rule), rule) == g2


# -- band shifts ---------------------------------------------------------
# ``_band_shift`` is the slide DimReduxAutomaton's steps run: track 0 (top)
# moves d cells rightward, track 1 (bottom) d cells leftward.


def test_band_shift_singleton_ring():
    tracks = ((1,), (0,))
    assert _band_shift(tracks, 1) == tracks


def test_band_shift_moves_top_right_bottom_left():
    top, bottom, rest = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 1, 0)
    assert _band_shift((top, bottom, rest), 1) == ((0, 1, 0, 0, 0), (0, 1, 0, 0, 0), rest)
    # strips of digits slide as the tuples do
    assert _band_shift(("10000", "00100"), 1) == ("01000", "01000")


def test_band_shift_full_rotation(rng):
    p = 6
    tracks = tuple(tuple(rng.randint(0, 1) for _ in range(p)) for _ in range(2))
    out = tracks
    for _ in range(p):
        out = _band_shift(out, 1)
    assert out == tracks
    assert _band_shift(tracks, p + 2) == _band_shift(tracks, 2)


def test_band_shift_reverse_undoes(rng):
    tracks = tuple(tuple(rng.randint(0, 1) for _ in range(8)) for _ in range(2))
    assert _band_shift(_band_shift(tracks, 1), -1) == tracks


# -- strobe --------------------------------------------------------------


def test_strobe_fires_on_multiples():
    strobe = toy_counter_strobe(4)
    cfg = strobe.initial(8)
    for step in range(20):
        assert strobe.lit(cfg) == (step % 4 == 0)
        cfg = strobe.step(cfg)


def test_strobe_period_one_always_lit():
    strobe = toy_counter_strobe(1)
    cfg = strobe.initial(6)
    for _ in range(10):
        assert strobe.lit(cfg)
        cfg = strobe.step(cfg)


def test_strobe_reversible(rng):
    for t in (2, 3, 5):
        for p in (6, 7, 8):
            strobe = strobe_wrap(counter_parts(t), t)
            cells = tuple(
                (0, rng.randrange(t), 0, 0, rng.randrange(t), 0) for _ in range(p)
            )
            cfg = TrackedConfig1D(cells, 0)
            out = cfg
            for _ in range(50):
                out = strobe.step(out)
            for _ in range(50):
                out = strobe.step_back(out)
            assert out.cells == cfg.cells and out.step == 0


def test_strobe_matches_the_per_cell_reference(rng):
    for t in range(1, 7):
        strobe = toy_counter_strobe(t)
        for p in range(5, 10):
            # side tracks outside the singleton alphabet show every swap
            cells = tuple(
                tuple(rng.randrange(t) if k in (1, 4) else rng.randrange(3) for k in range(6))
                for _ in range(p)
            )
            fwd = back = TrackedConfig1D(cells, 4)
            for _ in range(8):
                want_fwd = reference_strobe_step(strobe, fwd)
                want_back = reference_strobe_step(strobe, back, back=True)
                fwd, back = strobe.step(fwd), strobe.step_back(back)
                assert fwd.cells == want_fwd.cells and fwd.step == want_fwd.step, (t, p)
                assert back.cells == want_back.cells and back.step == want_back.step, (t, p)


# A non-counter half-cell: a -> 5a + 1 on [0, 6), firing at 0 and 3.  Bottoms
# 1 and 4 retreat onto a firing value, so the completion fills 8 holes.
SIX_PARTS = StrobeParts(
    6, lambda a: (5 * a + 1) % 6, lambda a: 5 * (a - 1) % 6, lambda a: a % 3 == 0
)


@pytest.mark.parametrize("parts", [counter_parts(t) for t in range(1, 13)] + [SIX_PARTS])
def test_cell_luts_are_the_reference_map_and_its_inverse(parts):
    m = parts.size
    holes = [b for a in range(m) for b in range(m)
             if not parts.firing(a) and parts.firing(parts.backward(b))]
    assert holes or m == 1
    fwd, back = _cell_luts(parts)
    assert len(fwd) == len(back) == m * m
    got = {(a, b): fwd[a * m + b] for a in range(m) for b in range(m)}
    assert got == reference_cell_map(parts)
    for lut, other in ((fwd, back), (back, fwd)):
        assert all(other[a * m + b] == divmod(i, m) for i, (a, b) in enumerate(lut))


def test_strobe_rejects_counters_outside_the_alphabet():
    strobe = toy_counter_strobe(3)
    for bad in (-1, 3):
        cells = [list(c) for c in strobe.initial(6).cells]
        cells[2][4] = bad
        cfg = TrackedConfig1D(tuple(map(tuple, cells)), 0)
        with pytest.raises(CaError):
            strobe.step(cfg)
        with pytest.raises(CaError):
            strobe.step_back(cfg)


def test_strobe_bad_seed_rejected():
    # a one-value alphabet holds no seed counter 1
    one_value = StrobeParts(1, lambda a: a, lambda a: a, lambda a: a == 0)
    with pytest.raises(CaError, match="seed outside the counter alphabet"):
        strobe_wrap(one_value, 2)
    with pytest.raises(CaError):
        strobe_wrap(counter_parts(3), 0)


# -- dimension reduction -------------------------------------------------


def test_dim_redux_empty_grid():
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    grid = grid_of([[0] * 4 for _ in range(4)])
    assert dim_redux_verify(auto, grid, 12)


def test_dim_redux_single_ball_one_window():
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    cells = [[0] * 4 for _ in range(4)]
    cells[0][1] = 1
    assert dim_redux_verify(auto, grid_of(cells), 1)


def test_dim_redux_random_grid_every_window_up_to_ten(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    grid = grid_of(random_cells(rng, 4, 4))
    cfg = auto.embed(grid, 0)
    g2 = grid
    for n in range(1, 11):
        cfg = simulate_1d(auto, cfg, auto.t)
        g2 = margolus_step_helical(g2, auto.rule)
        assert cfg.cells == auto.embed(g2, n).cells


def test_dim_redux_random_rule(rng):
    rule = random_bijective_rule(rng)
    auto = dim_redux_compile(rule, 6, 24)
    grid = grid_of(random_cells(rng, 8, 6))
    assert dim_redux_verify(auto, grid, 7)


@pytest.mark.parametrize("phase", [0, 1])
def test_dim_redux_run_equals_the_helical_simulation_from_either_phase(rng, phase):
    # sides of 4 and 6, whose helical orbits are short enough for a huge n
    # to cost milliseconds on both sides
    for _ in range(100):
        h, w = rng.choice([4, 6]), rng.choice([4, 6])
        auto = dim_redux_compile(bbm_rule(), w, h * w // 2)
        grid = grid_of(random_cells(rng, h, w), phase)
        for n in (0, 1, -1, 5, -5, 10**20 + 7):
            assert dim_redux_run(auto, grid, n) == simulate_helical(grid, n), (h, w, n)


def assert_python_int_tracks(cfg):
    assert type(cfg.tracks) is tuple and {type(track) for track in cfg.tracks} == {tuple}
    assert {type(v) for track in cfg.tracks for v in track} == {int}


def test_dim_redux_replays_the_reference_kernel(rng):
    # every lit configuration of the ring is the embedding of the reference
    # kernel's helical run; the tracks stay tuples of Python ints throughout
    rule = random_bijective_rule(rng)
    auto = dim_redux_compile(rule, 6, 24)
    cells = np.array(random_cells(rng, 8, 6), dtype=np.uint8)
    cfg = auto.embed(grid_of(cells), 0)
    for n in range(1, 7):
        cfg = simulate_1d(auto, cfg, auto.t)
        cells = reference_helical(cells, rule.table, (n - 1) % 2)
        assert cfg == auto.embed(grid_of(cells, n % 2), n)
        assert_python_int_tracks(cfg)
    back = simulate_1d(auto, cfg, -auto.t)
    assert_python_int_tracks(back)


def test_dim_redux_embed_extract_round_trip(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 12)
    g0 = grid_of(random_cells(rng, 6, 4), 0)
    assert auto.extract(auto.embed(g0, 0), 0) == g0
    g1 = grid_of(random_cells(rng, 6, 4), 1)
    assert auto.extract(auto.embed(g1, 1), 1) == g1
    assert auto.extract(auto.embed(g0, 2), 2) == g0


def test_dim_redux_extract_rejects_unlit_config():
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    g = grid_of([[1 if r == c else 0 for c in range(4)] for r in range(4)], 0)
    with pytest.raises(CaError):
        auto.extract(auto.step(auto.embed(g, 0)), 1)
    # lit (counter 0) but with the first cell's parity of the wrong count
    with pytest.raises(CaError):
        auto.extract(simulate_1d(auto, auto.embed(g, 0), auto.t), 0)


def test_dim_redux_extract_after_lit_round_trip(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    g = grid_of(random_cells(rng, 4, 4), 0)
    want = g
    for n in range(1, 4):
        want = margolus_step_helical(want, auto.rule)
        assert auto.extract(simulate_1d(auto, auto.embed(g, 0), n * auto.t), n) == want


def test_dim_redux_embed_checks_phase():
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    grid = grid_of([[0] * 4 for _ in range(4)], 0)
    with pytest.raises(CaError):
        auto.embed(grid, 1)


def test_dim_redux_parameter_guards():
    with pytest.raises(CaError):
        dim_redux_compile(bbm_rule(), 3, 12)
    with pytest.raises(CaError):
        dim_redux_compile(bbm_rule(), 4, 4)  # p must exceed c
    with pytest.raises(CaError):
        dim_redux_compile(bbm_rule(), 4, 10)  # not a multiple


@pytest.mark.parametrize("c, p", [(4, 8), (6, 24), (32, 512)])
def test_ring_blocked_update_matches_the_reference_strip_kernel(rng, c, p):
    # pairs start at cell par0; the update reads (top, bottom), or the
    # exchanged tracks for the inverse, rolled so those pairs are even blocks
    for rule in kernel_rules(rng)[:6]:
        auto = dim_redux_compile(rule, c, p)
        luts = reference_rule_luts(rule)
        tracks = np.array([[rng.randint(0, 1) for _ in range(p)] for _ in range(2)], np.uint8)
        for par0 in (0, 1):
            for inverse in (False, True):
                rows = [1, 0] if inverse else [0, 1]
                strip = np.roll(tracks[rows], -par0, axis=1)
                want = tracks.copy()
                want[rows[::-1]] = np.roll(reference_row_pairs(strip, luts[inverse]), par0, axis=1)
                digits = tuple(map(_track_digits, tracks.tolist()))
                got = auto._blocked_update(digits, par0, inverse)
                assert got == tuple(map(tuple, want.tolist())), (par0, inverse)


def test_simulate_1d_round_trip(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    grid = grid_of(random_cells(rng, 4, 4))
    cfg = auto.embed(grid, 0)
    out = simulate_1d(auto, cfg, 3 * auto.t)
    back = simulate_1d(auto, out, -3 * auto.t)
    assert back.cells == cfg.cells and back.step == cfg.step


def test_dim_redux_rejects_data_outside_the_alphabet(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    lit = auto.embed(grid_of(random_cells(rng, 4, 4)), 0)
    for track, bad in ((0, 2), (1, -1)):
        cells = [list(c) for c in lit.cells]
        cells[3][track] = bad
        cfg = TrackedConfig1D(tuple(map(tuple, cells)), 0)
        with pytest.raises(CaError):
            auto.step(cfg)
        with pytest.raises(CaError):
            auto.step_back(cfg)


def test_simulate_1d_huge_n_stops_at_the_orbit_return(rng):
    dim = dim_redux_compile(bbm_rule(), 4, 8)
    strobe = toy_counter_strobe(3)
    side = tuple((rng.randrange(2), rng.randrange(3), 0, 1, rng.randrange(3), 0) for _ in range(7))
    rings = [
        (dim, dim.embed(grid_of(random_cells(rng, 4, 4)), 0)),
        (strobe, TrackedConfig1D(side, 11)),
    ]
    for auto, start in rings:
        period = return_time(auto, start)
        for n in (10**20, -(10**20)):
            got = simulate_1d(auto, start, n)
            assert got.cells == literal_steps(auto, start, n % period).cells
            assert got.step == start.step + n


@pytest.mark.parametrize("c", [4, 6, 8, 12, 32])
def test_ring_leaps_equal_the_literal_steps(rng, c):
    # odd and even t, from counters 0 to 3, both directions
    auto = dim_redux_compile(bbm_rule(), c, 2 * c)
    lit = auto.embed(grid_of(random_cells(rng, 4, c)), 0)
    counts = sorted(set(range(2 * auto.t + 2)) | {97, 150, 199})
    for start in (literal_steps(auto, lit, s) for s in range(4)):
        for sign, step in ((1, auto.step), (-1, auto.step_back)):
            want, done = start, 0
            for n in counts:
                for _ in range(n - done):
                    want = step(want)
                done = n
                got = simulate_1d(auto, start, sign * n)
                assert got == want and got.step == start.step + sign * n, (sign * n)


def test_ring_leaps_check_the_config_they_start_from(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    lit = auto.embed(grid_of(random_cells(rng, 4, 4)), 0)
    for track, cell, bad in ((0, 3, 2), (3, 5, 1)):
        cells = [list(c) for c in lit.cells]
        cells[cell][track] = bad
        cfg = TrackedConfig1D(tuple(map(tuple, cells)), 0)
        for n in (auto.t, -auto.t, 10**20):
            with pytest.raises(CaError):
                simulate_1d(auto, cfg, n)


# -- the numpy ring and strobe that tuple tracks replaced -----------------
#
# Rings held their tracks as an int64 (tracks x ring) array, and each lit
# step of the dimension-reduction ring built a two-row MargolusGrid from
# that array and read its ``cells`` back.  These are those steps, kept as
# the references the tuple tracks are compared with.


def parent_cell_luts(parts, back):
    """The strobe's cell map (its inverse when ``back``) as a (2, m, m) array
    of image pairs, from the reference cell map."""
    m = parts.size
    mapping = reference_cell_map(parts)
    if back:
        mapping = {v: k for k, v in mapping.items()}
    lut = np.zeros((2, m, m), np.int64)
    for (a, b), image in mapping.items():
        lut[:, a, b] = image
    return lut


def parent_strobe_advance(strobe, cfg, d):
    tracks = np.array(cfg.cells, np.int64).T.copy()

    def swap(here, there):
        even, odd = (here, slice(0, tracks.shape[1] - 1, 2)), (there, slice(1, None, 2))
        tracks[even], tracks[odd] = tracks[odd].copy(), tracks[even].copy()

    back = d < 0
    swap(*((2, 0), (3, 5))[back])
    tracks[[1, 4]] = parent_cell_luts(strobe.parts, back)[:, tracks[1], tracks[4]]
    swap(*((3, 5), (2, 0))[back])
    return TrackedConfig1D(tracks.T, cfg.step + d)


def parent_slide(auto, data, n):
    if n % 2 == 0:
        return data
    half = auto.c // 2
    return np.stack([np.roll(data[1], half), np.roll(data[0], -half)])


def parent_blocked_update(auto, tracks, par0, inverse):
    rows = [1, 0] if inverse ^ par0 else [0, 1]
    strip = MargolusGrid(tracks[rows], par0 ^ inverse)
    out = tracks.copy()
    out[rows[::-1]] = (margolus_step_back if inverse else margolus_step)(strip, auto.rule).cells
    return out


def parent_ring_advance(auto, cfg, d):
    tracks = np.array(cfg.cells, np.int64).T
    ctr, par0 = int(tracks[3, 0]), int(tracks[2, 0])
    back = d < 0
    if (ctr - back) % auto.t:
        out = tracks.copy()
        out[0], out[1] = np.roll(tracks[0], d), np.roll(tracks[1], -d)
        out[2] ^= d & 1
    else:
        out = parent_blocked_update(auto, tracks, par0 ^ back, back)
        out[2] ^= 1
    out[3] = (ctr + d) % auto.t
    return TrackedConfig1D(out.T, cfg.step + d)


def parent_embed(auto, cells, n):
    cells = np.asarray(cells)
    strip = np.stack([cells[0::2].reshape(-1), cells[1::2].reshape(-1)]).astype(np.int64)
    parity = (np.arange(auto.p) + n * auto.t) % 2
    data = parent_slide(auto, strip, n)
    return TrackedConfig1D(np.vstack([data, parity, np.zeros_like(parity)]).T, n * auto.t)


def parent_extract(auto, cfg, n):
    strip = parent_slide(auto, np.array(cfg.cells, np.int64).T[:2], n)
    cells = strip.reshape(2, auto.rows // 2, auto.c).swapaxes(0, 1).reshape(auto.rows, auto.c)
    return MargolusGrid(cells, n % 2)


def random_ring(rng, auto):
    """A config that passes the ring's checks, at a random counter and parity."""
    par0, ctr = rng.randrange(2), rng.randrange(auto.t)
    cells = [(rng.randrange(2), rng.randrange(2), (par0 + x) % 2, ctr) for x in range(auto.p)]
    return TrackedConfig1D(cells, rng.randrange(-5, 5))


@pytest.mark.parametrize("c, p", [(4, 8), (6, 12), (6, 24), (8, 40), (32, 512)])
def test_ring_steps_match_the_parent_numpy_ring(rng, c, p):
    for rule in kernel_rules(rng)[:4]:
        auto = dim_redux_compile(rule, c, p)
        for _ in range(3):
            fwd = back = random_ring(rng, auto)
            for _ in range(auto.t + 2):
                want_fwd, want_back = parent_ring_advance(auto, fwd, 1), parent_ring_advance(auto, back, -1)
                fwd, back = auto.step(fwd), auto.step_back(back)
                assert fwd == want_fwd and fwd.step == want_fwd.step
                assert back == want_back and back.step == want_back.step


@pytest.mark.parametrize("c, p", [(4, 8), (6, 12), (4, 16), (32, 512)])
def test_embed_and_extract_match_the_parent_numpy_ring(rng, c, p):
    auto = dim_redux_compile(random_bijective_rule(rng), c, p)
    for n in range(4):
        for _ in range(3):
            cells = np.array(random_cells(rng, auto.rows, c), np.uint8)
            cfg = auto.embed(grid_of(cells, n % 2), n)
            assert cfg == parent_embed(auto, cells, n) and cfg.step == n * auto.t
            assert auto.extract(cfg, n) == parent_extract(auto, cfg, n) == grid_of(cells, n % 2)
            lit = simulate_1d(auto, cfg, auto.t)
            assert auto.extract(lit, n + 1) == parent_extract(auto, lit, n + 1)


def test_strobe_steps_match_the_parent_numpy_strobe(rng):
    for parts in [counter_parts(t) for t in (1, 2, 3, 5, 8)] + [SIX_PARTS]:
        strobe = strobe_wrap(parts, parts.size)
        m = parts.size
        for p in (1, 2, 5, 8, 33):
            # side tracks outside the singleton alphabet show every swap
            cells = tuple(
                tuple(rng.randrange(m) if k in (1, 4) else rng.randrange(-3, 9) for k in range(6))
                for _ in range(p)
            )
            fwd = back = TrackedConfig1D(cells, 2)
            for _ in range(6):
                want_fwd = parent_strobe_advance(strobe, fwd, 1)
                want_back = parent_strobe_advance(strobe, back, -1)
                fwd, back = strobe.step(fwd), strobe.step_back(back)
                assert fwd == want_fwd and fwd.step == want_fwd.step, (m, p)
                assert back == want_back and back.step == want_back.step, (m, p)


# -- what grids and rings accept ------------------------------------------


@pytest.mark.parametrize(
    "cells",
    [[[1.7, 0], [0, 0]], [[1.0, 0], [0, 0]], [[-1, 0], [0, 0]], [[256, 0], [0, 0]],
     [["1", "0"], ["0", "0"]], [[2**70, 0], [0, 0]]],
    ids=["fraction", "float", "negative", "256", "text", "huge"],
)
def test_grid_rejects_cells_that_are_not_the_integers_0_and_1(cells):
    with pytest.raises(CaError, match="^cells must be 0 or 1$"):
        MargolusGrid(cells)
    with pytest.raises(CaError, match="^cells must be 0 or 1$"):
        MargolusGrid(np.array(cells))


def test_grid_rejects_ragged_rows():
    for cells in ([[0, 1], [1]], [[0, 1], [1, 0, 1]], [0, 1]):
        with pytest.raises(CaError, match="^grid must be two-dimensional$"):
            MargolusGrid(cells)


def test_grid_accepts_bools_and_any_integer_dtype():
    want = grid_of([[1, 0], [0, 1]])
    assert MargolusGrid([[True, False], [False, True]]) == want
    for dtype in (np.int8, np.int64, np.uint16, bool):
        assert MargolusGrid(np.array([[1, 0], [0, 1]], dtype)) == want


@pytest.mark.parametrize(
    "cells", [((1.5, 0), (2, 1)), (("7", 0), (2, 1)), ((1, 0), (2, None))],
    ids=["fraction", "text", "none"],
)
def test_tracks_reject_values_that_are_not_integers(cells):
    with pytest.raises(CaError, match="^track values must be integers$"):
        TrackedConfig1D(cells)


def test_tracks_hold_python_ints_whatever_the_input(rng):
    cells = np.array([[rng.randrange(9) for _ in range(3)] for _ in range(5)], np.int16)
    cfg = TrackedConfig1D(cells, 3)
    assert_python_int_tracks(cfg)
    assert cfg.cells == tuple(map(tuple, cells.tolist())) and cfg.ring == 5
    assert cfg == TrackedConfig1D(cells.tolist()) and hash(cfg) == hash(TrackedConfig1D(cfg.cells))
    assert TrackedConfig1D(((True, 2**70),)).cells == ((1, 2**70),)


def test_tracks_reject_rings_without_a_shared_schema():
    for cells in ([(1, 0), (1,)], [1, 2], [(1, 0), 5]):
        with pytest.raises(CaError, match="^all cells must share the track schema$"):
            TrackedConfig1D(cells)
    with pytest.raises(CaError, match="^ring must have at least one cell$"):
        TrackedConfig1D(())
    with pytest.raises(CaError, match="^cells must hold at least one track$"):
        TrackedConfig1D(((), ()))
