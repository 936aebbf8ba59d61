"""Interval exchanges as traced curves on a square-tiled surface."""

import time
from bisect import bisect_left, insort
from collections import Counter
from itertools import accumulate
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibx.iet import (
    Crossing,
    IetError,
    _check_trace_agreement,
    _induce,
    _trace_run,
    arc_of,
    build_surface,
    cycle_type,
    iet_orbit_solve,
    induction,
    normal_coords_vertical,
    orbit_size,
    three_gap_check,
    three_gap_max_distinct,
    trace_step,
    validate_normal_coords,
)
from ibx.kernel import cycle_lengths
from ibx.plb import apply_plb, apply_plb_inverse, interval_exchange, iterate_plb, permutation_order

from conftest import random_pieces


FIG_PIECES = ((0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5))


def fig_exchange():
    return interval_exchange(15, FIG_PIECES)


def rotation(n, k):
    return interval_exchange(n, [(0, n - k, k), (n - k, n, k - n)])


def test_identity_surface_builds_and_traces():
    t = interval_exchange(4, [(0, 4, 0)])
    su = build_surface(t)
    assert su.stripes == 1
    for i in range(4):
        assert iet_orbit_solve(t, i, 1, surface=su) == i


def test_fig_exchange_surface():
    su = build_surface(fig_exchange())
    assert su.stripes == 2
    assert su.surface.edges[su.central].crossings == 15


def test_fig_exchange_pointwise():
    t = fig_exchange()
    su = build_surface(t)
    for x, y in ((0, 11), (4, 0), (6, 10), (7, 2)):
        assert iet_orbit_solve(t, x, 1, surface=su) == y
        assert apply_plb(t, x) == y


def test_rotation_surface_builds():
    t = rotation(16, 5)
    su = build_surface(t)
    for i in range(16):
        assert iet_orbit_solve(t, i, 1, surface=su) == (i + 5) % 16


def test_rotation_orbit_structure_single_cycle():
    t = rotation(16, 5)
    su = build_surface(t)
    arc = arc_of(su, 0)
    # gcd(5, 16) = 1: one orbit, so one arc holds all 16 central crossings.
    assert len(arc.central_positions) == 16
    assert arc.length == 16 * su.period
    assert arc_of(su, 9) is arc


def test_rotation_orbit_structure_four_cycles():
    t = rotation(16, 4)
    su = build_surface(t)
    arcs = {id(arc_of(su, i)) for i in range(16)}
    assert len(arcs) == 4
    for i in range(16):
        arc = arc_of(su, i)
        assert len(arc.central_positions) == 4
        assert arc.length == 4 * su.period


def test_orbit_solve_zero_steps():
    t = fig_exchange()
    su = build_surface(t)
    for i in range(15):
        assert iet_orbit_solve(t, i, 0, surface=su) == i


def test_orbit_solve_matches_literal_iteration():
    t = fig_exchange()
    su = build_surface(t)
    for i in range(15):
        for n in (1, 2, 7, 30):
            assert iet_orbit_solve(t, i, n, surface=su) == iterate_plb(t, n, i)


def test_orbit_solve_negative_steps():
    t = fig_exchange()
    su = build_surface(t)
    for i in range(15):
        j = iet_orbit_solve(t, i, -1, surface=su)
        assert apply_plb(t, j) == i


def test_orbit_solve_astronomical_n(rng):
    for _ in range(5):
        cuts = sorted(rng.sample(range(1, 200), 4))
        bounds = [0] + cuts + [200]
        segs = list(zip(bounds, bounds[1:]))
        order = rng.sample(range(5), 5)
        pieces = []
        out = 0
        for idx in order:
            lo, hi = segs[idx]
            pieces.append((lo, hi, out - lo))
            out += hi - lo
        t = interval_exchange(200, pieces)
        su = build_surface(t)
        for n in (10**18, 10**100):
            for i in rng.sample(range(200), 6):
                # Cycle-detection oracle: find the orbit period, reduce n.
                j, period = apply_plb(t, i), 1
                while j != i:
                    j = apply_plb(t, j)
                    period += 1
                want = i
                for _ in range(n % period):
                    want = apply_plb(t, want)
                assert iet_orbit_solve(t, i, n, surface=su) == want


def test_surface_rejects_out_of_range_points():
    t = rotation(8, 3)
    su = build_surface(t)
    with pytest.raises(IetError):
        iet_orbit_solve(t, 8, 1, surface=su)
    with pytest.raises(IetError):
        iet_orbit_solve(rotation(9, 2), 0, 1, surface=su)
    # same domain, different pieces: rotation by 4 would answer 4, not 2
    with pytest.raises(IetError, match="different exchange"):
        iet_orbit_solve(rotation(9, 2), 0, 1, surface=build_surface(rotation(9, 4)))
    assert iet_orbit_solve(rotation(9, 2), 0, 1, surface=build_surface(rotation(9, 2))) == 2


def test_vertical_coords_are_normal():
    su = build_surface(fig_exchange())
    coords = normal_coords_vertical(su.surface)
    # an edge spanning [a, b] in doubled x meets (b - a) / 2 integer verticals
    assert coords == tuple(abs(e.key[1][0] - e.key[0][0]) // 2 for e in su.surface.edges)
    corners = validate_normal_coords(su.surface, coords)
    assert len(corners) == len(su.surface.triangles)
    assert all(c >= 0 for trio in corners for c in trio)


def test_all_zero_coords_are_normal():
    su = build_surface(rotation(8, 3))
    coords = [0] * len(su.surface.edges)
    corners = validate_normal_coords(su.surface, coords)
    assert all(trio == (0, 0, 0) for trio in corners)


def triangle_coords(surface, trio_values):
    """Coords putting the given three values on triangle 0's sides."""
    coords = [0] * len(surface.edges)
    for e, v in zip(surface.side_edges[0], trio_values):
        coords[e] = v
    return coords


def test_odd_parity_coords_rejected():
    su = build_surface(rotation(8, 3))
    with pytest.raises(IetError):
        validate_normal_coords(su.surface, triangle_coords(su.surface, (1, 1, 1)))


def test_triangle_inequality_coords_rejected():
    su = build_surface(rotation(8, 3))
    # (1, 1, 4) has even sum but one side exceeds the other two.
    with pytest.raises(IetError):
        validate_normal_coords(su.surface, triangle_coords(su.surface, (1, 1, 4)))
    with pytest.raises(IetError):
        validate_normal_coords(su.surface, triangle_coords(su.surface, (1, 1, 3)))


def test_coords_length_checked():
    su = build_surface(rotation(8, 3))
    with pytest.raises(IetError):
        validate_normal_coords(su.surface, [0, 0])


def naive_gap_set(modulus, step, count):
    points = sorted({(j * step) % modulus for j in range(count)})
    if len(points) == 1:
        return (modulus,)
    return tuple(
        sorted(
            {(b - a) % modulus or modulus for a, b in zip(points, points[1:] + points[:1])}
        )
    )


def test_three_gap_check_matches_naive(rng):
    for _ in range(200):
        modulus = rng.randint(1, 40)
        step = rng.randrange(modulus)
        count = rng.randint(1, 50)
        assert three_gap_check(modulus, step, count) == naive_gap_set(
            modulus, step, count
        )


def test_three_gap_single_point():
    assert three_gap_check(8, 0, 5) == (8,)
    assert three_gap_check(8, 4, 1) == (8,)


def test_three_gap_bound_and_naive_agreement(rng):
    for modulus in range(1, 41):
        for step in range(modulus):
            got = three_gap_max_distinct(modulus, step, modulus)
            want = max(
                len(naive_gap_set(modulus, step, count))
                for count in range(1, modulus + 1)
            )
            assert got == want
            assert got <= 3


def sweep_distinct_counts(modulus, step):
    """Distinct-gap count of each prefix until the orbit closes, by the
    incremental sweep the Euclid form replaced, kept as the oracle: each
    new point splits one cyclic gap in two."""
    points = [0]
    gaps = Counter({modulus: 1})
    value = 0
    yield 1
    while True:
        value = (value + step) % modulus
        pos = bisect_left(points, value)
        if pos < len(points) and points[pos] == value:
            return  # the orbit has closed; later prefixes repeat
        before = points[pos - 1]
        after = points[pos % len(points)]
        old = (after - before) % modulus or modulus
        gaps[old] -= 1
        if not gaps[old]:
            del gaps[old]
        gaps[(value - before) % modulus or modulus] += 1
        gaps[(after - value) % modulus or modulus] += 1
        insort(points, value)
        yield len(gaps)


def sweep_running_max(modulus, step):
    return list(accumulate(sweep_distinct_counts(modulus, step), max))


def test_euclid_three_gap_matches_the_sweep(rng):
    for modulus in range(1, 61):
        for step in range(modulus + 2):
            running = sweep_running_max(modulus, step)
            for limit in range(1, modulus + 2):
                want = running[min(limit, len(running)) - 1]
                assert three_gap_max_distinct(modulus, step, limit) == want, (modulus, step, limit)
    for _ in range(100):
        modulus = rng.randrange(1, 3000)
        step, limit = rng.randrange(-modulus, 2 * modulus), rng.randrange(1, modulus + 2)
        running = sweep_running_max(modulus, step)
        want = running[min(limit, len(running)) - 1]
        assert three_gap_max_distinct(modulus, step, limit) == want, (modulus, step, limit)


def test_euclid_three_gap_at_huge_modulus():
    # Fibonacci numbers: every quotient is 1, the longest Euclid there is
    a, b = 1, 1
    while b < 10**300:
        a, b = b, a + b
    started = time.perf_counter()
    assert three_gap_max_distinct(b, a, b) == 3
    assert three_gap_max_distinct(b, a, 2) == 2
    assert three_gap_max_distinct(10**300, 10**299, 10**300) == 2
    assert time.perf_counter() - started < 0.1


# ---------------------------------------------------------------------------
# Run-length tracing against the point tracer it replaced.


def point_trace_step(su, crossing, entering):
    """The per-point triangle rule, kept literally as the oracle."""
    edge = su.surface.edges[crossing.edge]
    tri, side, aligned = edge.ports[entering]
    counts = su.surface.side_counts[tri]
    p = crossing.index if aligned else edge.crossings - 1 - crossing.index
    at_start = (counts[side - 1] + counts[side] - counts[(side + 1) % 3]) // 2
    if p < at_start:
        out_side = (side - 1) % 3
        q = counts[out_side] - 1 - p
    else:
        out_side = (side + 1) % 3
        q = counts[side] - 1 - p
    out_id = su.surface.side_edges[tri][out_side]
    out_edge = su.surface.edges[out_id]
    out_port = 0 if out_edge.ports[0][:2] == (tri, out_side) else 1
    index = q if out_edge.ports[out_port].aligned else out_edge.crossings - 1 - q
    return Crossing(out_id, index), 1 - out_port


def point_period(su):
    """Steps from central crossing 0 back to the central edge, point by point."""
    state = (Crossing(su.central, 0), su.up_port)
    for steps in range(1, 40 * su.stripes + 41):
        state = point_trace_step(su, *state)
        if state[0].edge == su.central:
            return steps
    raise AssertionError("point trace never returned")


def point_returns(su, period):
    """(index, port) after one period from every central crossing, checking
    that no crossing reaches the central edge early."""
    out = []
    for i in range(su.width):
        state = (Crossing(su.central, i), su.up_port)
        for step in range(period):
            state = point_trace_step(su, *state)
            assert (state[0].edge == su.central) == (step == period - 1), i
        out.append((state[0].index, state[1]))
    return out


def oracle_exchanges(rng, count):
    yield interval_exchange(1, [(0, 1, 0)])
    yield interval_exchange(37, [(0, 37, 0)])
    for n, k in ((2, 1), (16, 5), (97, 40), (600, 599)):
        yield rotation(n, k)
    for _ in range(count):
        k = rng.randint(1, 9)
        n = rng.randint(max(k, 2), 600)
        yield interval_exchange(n, random_pieces(rng, n, k))


def return_table(su):
    table = [None] * su.width
    for lo, hi, off in su.returns:
        for i in range(lo, hi):
            table[i] = i + off
    return table


def test_run_tracer_matches_point_tracer(rng):
    for t in oracle_exchanges(rng, 60):
        su = build_surface(t)
        period = point_period(su)
        assert su.period == period
        table = return_table(su)
        for i, (index, port) in enumerate(point_returns(su, period)):
            assert (table[i], su.up_port) == (index, port)
            assert index == apply_plb(t, i)
        for e, edge in enumerate(su.surface.edges):
            for port in (0, 1):
                for index in range(edge.crossings):
                    state = (Crossing(e, index), port)
                    assert trace_step(su, *state) == point_trace_step(su, *state)


def test_trace_run_matches_point_tracer_on_whole_edges(rng):
    # Each edge's crossings as one run, in both directions and under three
    # parameterizations (index = i, index = C - 1 - i, index = i - 5).
    for t in oracle_exchanges(rng, 10):
        su = build_surface(t)
        for e, edge in enumerate(su.surface.edges):
            c = edge.crossings
            for port in (0, 1):
                for a, b, s, o in ((0, c, 1, 0), (0, c, -1, c - 1), (5, c + 5, 1, -5)):
                    parts = _trace_run(su, (e, port, a, b, s, o))
                    covered = []
                    for out_e, out_port, lo, hi, qs, qo in parts:
                        covered.extend(range(lo, hi))
                        for i in range(lo, hi):
                            want = point_trace_step(su, Crossing(e, s * i + o), port)
                            assert (Crossing(out_e, qs * i + qo), out_port) == want
                    assert sorted(covered) == list(range(a, b))


def test_orbit_solve_matches_cycle_oracle_at_huge_n(rng):
    for t in oracle_exchanges(rng, 10):
        su = build_surface(t)
        for i in rng.sample(range(t.domain), min(t.domain, 5)):
            cycle = [i]
            while apply_plb(t, cycle[-1]) != i:
                cycle.append(apply_plb(t, cycle[-1]))
            for n in (10**30, -(10**30), 10**30 + 7):
                assert iet_orbit_solve(t, i, n, surface=su) == cycle[n % len(cycle)]


def orbit_of(t, i):
    cycle = [i]
    while apply_plb(t, cycle[-1]) != i:
        cycle.append(apply_plb(t, cycle[-1]))
    return cycle


@st.composite
def exchanges(draw, max_domain, max_pieces):
    n = draw(st.integers(1, max_domain))
    k = draw(st.integers(1, min(max_pieces, n)))
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)) if k > 1 else []
    bounds = [0] + sorted(cuts) + [n]
    segs = list(zip(bounds, bounds[1:]))
    pieces, out = [], 0
    for idx in draw(st.permutations(range(k))):
        lo, hi = segs[idx]
        pieces.append((lo, hi, out - lo))
        out += hi - lo
    return interval_exchange(n, pieces)


@settings(max_examples=150, deadline=None)
@given(exchanges(300, 9), st.data())
def test_orbit_solve_matches_a_brute_force_walk(t, data):
    su = build_surface(t)
    i = data.draw(st.integers(0, t.domain - 1))
    steps = data.draw(st.sampled_from([10**30, -(10**30)]) | st.integers(-(10**30), 10**30))
    cycle = orbit_of(t, i)
    assert iet_orbit_solve(t, i, steps, surface=su) == cycle[steps % len(cycle)]
    assert orbit_size(t, i) == len(cycle)


def test_orbit_solve_at_every_point_of_small_exchanges(rng):
    for _ in range(300):
        n = rng.randint(2, 59)
        t = interval_exchange(n, random_pieces(rng, n, rng.randint(1, min(5, n))))
        su = build_surface(t)
        for i in range(n):
            cycle = orbit_of(t, i)
            for steps in (1, -1, len(cycle) + 2, 10**30 + 1):
                assert iet_orbit_solve(t, i, steps, surface=su) == cycle[steps % len(cycle)]


def test_cycle_type_matches_the_cycle_walk(rng):
    for t in oracle_exchanges(rng, 30):
        want = Counter(cycle_lengths([apply_plb(t, x) for x in range(t.domain)]))
        assert cycle_type(t) == want
        assert permutation_order(t) == lcm(*want)


def test_cycle_type_of_a_huge_rotation():
    n = 10**12
    for a in (1, n - 1, 6 * 10**5, 2**39):
        t = rotation(n, a)
        g = gcd(a, n)
        assert cycle_type(t) == {n // g: g}
        assert permutation_order(t) == n // g


def test_orbit_solve_scales_to_huge_domain(rng):
    n = 10**12
    started = time.perf_counter()
    for _ in range(5):
        t = interval_exchange(n, random_pieces(rng, n, 8))
        su = build_surface(t)
        assert induction(t) is induction(t)
        for i in rng.sample(range(n), 5):
            y = iet_orbit_solve(t, i, 10**30, surface=su)
            assert iet_orbit_solve(t, y, -(10**30), surface=su) == i
            assert iet_orbit_solve(t, i, 3, surface=su) == iterate_plb(t, 3, i)
            assert iet_orbit_solve(t, i, orbit_size(t, i), surface=su) == i
    assert time.perf_counter() - started < 1.0


def test_induction_of_the_pieces_equals_that_of_the_traced_return_map(rng):
    # The traced surface stays the oracle that the induction's input, the
    # exchange's own pieces, is the curve's first-return map.
    for n in (37, 10**4, 10**8, 10**12):
        for k in range(1, 10):
            t = interval_exchange(n, random_pieces(rng, n, k))
            su = build_surface(t)
            assert induction(t) == _induce(su.returns, su.width), (n, t.pieces)


def literal_power(t, n, x):
    step = apply_plb if n >= 0 else apply_plb_inverse
    for _ in range(abs(n)):
        x = step(t, x)
    return x


def test_iterate_plb_on_exchanges_matches_the_literal_loop(rng):
    for t in oracle_exchanges(rng, 20):
        for x in rng.sample(range(t.domain), min(t.domain, 4)):
            length = len(orbit_of(t, x))
            past = (length, -length, length + 3, -(2 * length + 5))
            for n in (0, 1, -1, 2, -3, 7, -11, *past):
                assert iterate_plb(t, n, x) == literal_power(t, n, x), (t.pieces, x, n)


def test_arc_lists_the_orbit_in_trace_order():
    t = rotation(16, 4)
    su = build_surface(t)
    arc = arc_of(su, 3)
    assert arc.orbit == (3, 7, 11, 15)
    assert arc.central_positions == {3: 0, 7: 1, 11: 2, 15: 3}
    assert arc.period == su.period


def test_arcs_match_the_literal_walk_at_every_point(rng):
    for t in oracle_exchanges(rng, 20):
        su = build_surface(t)
        covered = set()
        for x in range(t.domain):
            if x in covered:
                continue
            # x is the first point asked of its orbit, so the arc starts there
            arc = arc_of(su, x)
            assert arc.orbit == tuple(orbit_of(t, x)), (t.pieces, x)
            nxt = arc.orbit[1:] + arc.orbit[:1]
            assert all(apply_plb(t, y) == z for y, z in zip(arc.orbit, nxt))
            assert arc.period == su.period
            assert arc.length == su.period * len(arc.orbit)
            assert arc.central_positions == {y: pos for pos, y in enumerate(arc.orbit)}
            assert all(arc_of(su, y) is arc for y in arc.orbit)
            covered.update(arc.orbit)
        assert covered == set(range(t.domain))


def test_agreement_check_rejects_a_different_exchange():
    su = build_surface(rotation(16, 5))
    su.transform = rotation(16, 3)
    with pytest.raises(IetError, match=r"trace maps \d+ to \d+, exchange maps it to \d+"):
        _check_trace_agreement(su)


def test_build_surface_scales_to_huge_domain(rng):
    n = 10**12
    t = interval_exchange(n, random_pieces(rng, n, 8))
    started = time.perf_counter()
    su = build_surface(t)
    assert time.perf_counter() - started < 1.0
    assert su.stripes == 3
    assert len(su.returns) >= 8
    for lo, hi, off in su.returns:
        for i in (lo, hi - 1):
            assert i + off == apply_plb(t, i)
