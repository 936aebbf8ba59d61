"""Margolus dynamics, the strobe wrapper, and the 1D dimension reduction."""

import numpy as np
import pytest

from ibx.ca import (
    CaError,
    DimReduxAutomaton,
    MargolusGrid,
    MargolusRule,
    TrackedConfig1D,
    band_shift_step,
    bbm_rule,
    counter_parts,
    dim_redux_compile,
    dim_redux_verify,
    identity_rule,
    margolus_step,
    margolus_step_back,
    margolus_step_back_helical,
    margolus_step_helical,
    random_bijective_rule,
    rule_is_bijective,
    simulate_1d,
    simulate_bbm,
    simulate_helical,
    strobe_wrap,
    toy_counter_strobe,
)


# -- reference implementations the library is measured against ------------


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
    assert rule_is_bijective(bbm_rule())


def test_identity_rule_bijective():
    assert rule_is_bijective(identity_rule())


def test_clear_rule_rejected():
    clear = MargolusRule(tuple(0 for _ in range(16)))
    assert not rule_is_bijective(clear)
    with pytest.raises(CaError):
        margolus_step(grid_of([[0, 0], [0, 0]]), clear)


def test_random_rules_are_bijective(rng):
    for _ in range(10):
        assert rule_is_bijective(random_bijective_rule(rng))


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
    start = grid_of(random_cells(rng, 16, 16))
    assert simulate_bbm(start, 50, threads=4) == simulate_bbm(start, 50)


def test_grid_guards():
    with pytest.raises(CaError):
        grid_of([[0, 1, 0], [1, 0, 1]])  # odd width
    with pytest.raises(CaError):
        grid_of([[0, 2], [0, 0]])  # non-binary
    g = grid_of([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        g.cells[0, 0] = 1


def test_grid_equality_includes_phase():
    a = grid_of([[0, 1], [1, 0]], 0)
    b = grid_of([[0, 1], [1, 0]], 1)
    assert a != b


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


def test_band_shift_singleton_ring():
    cfg = TrackedConfig1D(((1, 0),), 0)
    assert band_shift_step(cfg).cells == cfg.cells


def test_band_shift_moves_top_right_bottom_left():
    cells = [(0, 0)] * 5
    cells[0] = (1, 0)
    cells[2] = (0, 1)
    cfg = TrackedConfig1D(tuple(cells), 0)
    out = band_shift_step(cfg)
    assert out.cells[1][0] == 1 and sum(c[0] for c in out.cells) == 1
    assert out.cells[1][1] == 1 and sum(c[1] for c in out.cells) == 1


def test_band_shift_full_rotation(rng):
    p = 6
    cells = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(p))
    cfg = TrackedConfig1D(cells, 0)
    out = cfg
    for _ in range(p):
        out = band_shift_step(out)
    assert out.cells == cells


def test_band_shift_reverse_undoes(rng):
    cells = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(8))
    cfg = TrackedConfig1D(cells, 0)
    assert band_shift_step(band_shift_step(cfg), reverse=True).cells == cells


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


def test_strobe_bad_seed_rejected():
    with pytest.raises(CaError):
        strobe_wrap(counter_parts(3), 3, pattern=(0, 5))
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


def test_dim_redux_embed_extract_round_trip(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 12)
    g0 = grid_of(random_cells(rng, 6, 4), 0)
    assert auto.extract(auto.embed(g0, 0), 0) == g0
    g1 = grid_of(random_cells(rng, 6, 4), 1)
    assert auto.extract(auto.embed(g1, 1), 1) == g1
    assert auto.extract(auto.embed(g0, 2), 2) == g0


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


def test_simulate_1d_round_trip(rng):
    auto = dim_redux_compile(bbm_rule(), 4, 8)
    grid = grid_of(random_cells(rng, 4, 4))
    cfg = auto.embed(grid, 0)
    out = simulate_1d(auto, cfg, 3 * auto.t)
    back = simulate_1d(auto, out, -3 * auto.t)
    assert back.cells == cfg.cells and back.step == cfg.step
