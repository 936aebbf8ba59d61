"""Piecewise-linear bijections: validation, evaluation, lifts, compilation."""

from math import gcd, lcm

import pytest

import ibx.plb as plb_module
from ibx.circuits import GATE_ARITY, ReversibleCircuit, gate, iterate_circuit, permutation_of
from ibx.kernel import Bitstring
from ibx.plb import (
    MAX_CIRCUIT_PLB_WIDTH,
    Piece,
    PiecewiseLinearBijection,
    PlbError,
    PlbValidationError,
    affine_form,
    apply_plb,
    apply_plb_inverse,
    bit_permute,
    circuit_to_plb,
    circular_shift,
    compose_lift,
    identity_plb,
    interval_exchange,
    is_exchange,
    iterate_plb,
    low_rotation,
    permutation_order,
    plb,
    power_path,
    progression_intersect,
    riffle,
    validate_plb,
)

from conftest import affine_plb, random_reversible_circuit


def brute_force_is_bijection(domain, raw_pieces):
    """Ground truth: materialize every value and check the permutation."""
    try:
        ps = [Piece(*p) for p in raw_pieces]
    except PlbError:
        return False
    covered = []
    for p in ps:
        covered.extend(range(p.lo, p.hi))
    if sorted(covered) != list(range(domain)):
        return False
    images = [p.apply(x) for p in ps for x in range(p.lo, p.hi)]
    return sorted(images) == list(range(domain))


def test_identity_accepted():
    t = validate_plb(10, [(0, 10, 1, 0)])
    assert [apply_plb(t, x) for x in range(10)] == list(range(10))


def test_duplicate_image_rejected_with_witnesses():
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 4, 1, 0), (4, 8, 1, -4)])
    assert info.value.condition == "image-collision"
    assert len(info.value.witnesses) == 2


def test_collision_witnesses_share_an_image_start():
    # both pieces' images start at 0; the sweep meets them in domain order
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 4, 2, 0), (4, 8, 1, -4)])
    assert info.value.condition == "image-collision"
    assert info.value.witnesses == (Piece(0, 4, 2, 0), Piece(4, 8, 1, -4))
    assert str(info.value) == "image-collision: both reach 0"
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 4, 1, 0), (4, 8, 2, -8)])
    assert info.value.witnesses == (Piece(0, 4, 1, 0), Piece(4, 8, 2, -8))
    assert str(info.value) == "image-collision: both reach 0"


def test_gap_and_overlap_rejected():
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 3, 1, 0), (4, 8, 1, -1)])
    assert info.value.condition == "gap"
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 5, 1, 0), (4, 8, 1, 1)])
    assert info.value.condition == "overlap"


def test_image_escape_rejected():
    with pytest.raises(PlbValidationError) as info:
        validate_plb(8, [(0, 8, 1, 3)])
    assert info.value.condition == "image-escape"


def test_riffle_13_accepted_and_maps_examples():
    t = riffle(13)
    assert apply_plb(t, 3) == 6
    assert apply_plb(t, 7) == 1


def test_validate_agrees_with_brute_force(rng):
    for _ in range(400):
        domain = rng.randint(1, 32)
        raw = []
        lo = 0
        while lo < domain and rng.random() < 0.9:
            hi = rng.randint(lo + 1, domain)
            if rng.random() < 0.3:
                lo = rng.randint(0, domain - 1)
                hi = rng.randint(lo + 1, domain)
            raw.append(
                (lo, hi, rng.choice([1, 1, 1, 2, 3, -1]), rng.randint(-domain, domain))
            )
            lo = hi
        want = brute_force_is_bijection(domain, raw)
        try:
            validate_plb(domain, raw)
            got = True
        except PlbValidationError:
            got = False
        assert got == want, (domain, raw)


def test_apply_inverse_round_trip(rng):
    for t in (riffle(52), circular_shift(5), low_rotation(5), riffle(13)):
        for _ in range(20):
            x = rng.randrange(t.domain)
            assert apply_plb_inverse(t, apply_plb(t, x)) == x


def scan_inverse(t, y):
    """The preimage of y found by trying every piece in order."""
    for p in t.pieces:
        q, r = divmod(y - p.off, p.mult)
        if not r and p.lo <= q < p.hi:
            return q
    return None


def random_signed_plb(rng):
    """A validated PLB with multipliers +-1 and +-2: each target block is
    filled by one piece, or by two pieces of equal length on its evens and
    its odds, each running up or down."""
    blocks = [[rng.randint(1, 6)] * rng.randint(1, 2) for _ in range(rng.randint(1, 8))]
    fills, base = [], 0
    for block in blocks:
        fills += [(length, base + r, len(block)) for r, length in enumerate(block)]
        base += sum(block)
    rng.shuffle(fills)
    pieces, lo = [], 0
    for length, start, stride in fills:
        if rng.random() < 0.5:
            pieces.append((lo, lo + length, stride, start - stride * lo))
        else:
            pieces.append((lo, lo + length, -stride, start + stride * (lo + length - 1)))
        lo += length
    return validate_plb(lo, pieces)


def test_apply_inverse_matches_the_scan(rng):
    maps = [random_signed_plb(rng) for _ in range(200)]
    assert sum(p.mult < 0 for t in maps for p in t.pieces) > 100
    for w in range(2, 7):
        maps.append(circuit_to_plb(random_reversible_circuit(rng, w, 12, min_gates=4))[0])
    for t in maps:
        ys = range(t.domain) if t.domain <= 4096 else rng.sample(range(t.domain), 4096)
        for y in ys:
            assert apply_plb_inverse(t, y) == scan_inverse(t, y), (t, y)
    # an unvalidated description that reaches no value in [4, 8)
    partial = PiecewiseLinearBijection(8, (Piece(0, 4, 1, 0), Piece(4, 8, 1, -4)))
    with pytest.raises(PlbError):
        apply_plb_inverse(partial, 5)


def test_apply_rejects_out_of_domain():
    with pytest.raises(PlbError):
        apply_plb(riffle(13), 13)
    with pytest.raises(PlbError):
        apply_plb_inverse(riffle(13), -1)


def test_iterate_rejects_out_of_domain_at_every_n():
    affine, exchange = riffle(13), interval_exchange(13, [(0, 6, 7), (6, 13, -6)])
    walked = PiecewiseLinearBijection(13, (Piece(0, 13, -1, 12),))
    for t in (affine, exchange, walked):
        for x in (-1, 13, 99):
            for n in (0, 1, -1, 10**20):
                with pytest.raises(PlbError, match=rf"{x} outside \[0,13\)"):
                    iterate_plb(t, n, x)


def test_iterate_zero_and_rotation_order():
    t = circular_shift(3)
    for x in range(8):
        assert iterate_plb(t, 0, x) == x
        assert iterate_plb(t, 3, x) == x


def test_negative_iterate_undoes_forward(rng):
    compiled, _ = circuit_to_plb(ReversibleCircuit(3, (gate("toffoli", 0, 1, 2), gate("not", 0))))
    for t in (riffle(13), circular_shift(4), compiled):
        for _ in range(10):
            x, k = rng.randrange(t.domain), rng.randint(0, 200)
            y = x
            for _ in range(k):
                y = apply_plb(t, y)
            assert iterate_plb(t, k, x) == y
            assert iterate_plb(t, -k, y) == x


def test_riffle_52_has_order_eight(rng):
    t = riffle(52)
    assert permutation_order(t) == 8
    for _ in range(10):
        x = rng.randrange(52)
        assert iterate_plb(t, 8, x) == x


def reference_order(t):
    """lcm of the cycle lengths, each cycle walked with apply_plb."""
    seen, order = set(), 1
    for start in range(t.domain):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = apply_plb(t, x)
            length += 1
        if length:
            order = lcm(order, length)
    return order


def test_permutation_order_matches_the_reference_walk(rng):
    maps = [random_signed_plb(rng) for _ in range(200)]
    assert sum(p.mult < 0 for t in maps for p in t.pieces) > 100
    maps += [riffle(n) for n in (2, 3, 13, 52, 53, 1000, 1001)]
    for t in maps:
        assert permutation_order(t) == reference_order(t), t


def literal_power(t, n, x):
    """apply_plb n >= 0 times, or apply_plb_inverse -n times."""
    step = apply_plb if n >= 0 else apply_plb_inverse
    for _ in range(abs(n)):
        x = step(t, x)
    return x


def orbit_length(t, x):
    y, length = apply_plb(t, x), 1
    while y != x:
        y, length = apply_plb(t, y), length + 1
    return length


def assert_powers_match_the_walk(t, x):
    """iterate_plb at n = 0, +-1, the orbit length and one more, and
    +-10**20, against the literal loop (the huge n reduced by the orbit)."""
    length = orbit_length(t, x)
    for n in (0, 1, -1, length, length + 1, -length - 1, 10**20, -(10**20)):
        assert iterate_plb(t, n, x) == literal_power(t, n % length if abs(n) > 2 * length else n, x)


def test_riffles_take_the_affine_path(rng):
    for n in range(2, 401):
        t = riffle(n)
        assert affine_form(t) == (2, 0, n if n % 2 else n - 1)
        assert permutation_order(t) == reference_order(t)
        for x in {0, n - 1, rng.randrange(n)}:
            assert_powers_match_the_walk(t, x)


def test_circular_shifts_take_the_affine_path():
    for k in range(2, 11):
        t = circular_shift(k)
        assert affine_form(t) == (2, 0, (1 << k) - 1)
        assert permutation_order(t) == reference_order(t) == k


def test_random_affine_maps_match_the_walk(rng):
    found = 0
    for _ in range(300):
        m = rng.randint(1, 60)
        a = rng.choice([x for x in range(-2 * m - 3, 2 * m + 4) if x not in (0, 1) and gcd(x, m) == 1])
        t = affine_plb(a, rng.randint(-3 * m, 3 * m), m, m + rng.randint(0, 4))
        found += affine_form(t) is not None
        assert permutation_order(t) == reference_order(t), t
        for x in {0, t.domain - 1, rng.randrange(t.domain)}:
            assert_powers_match_the_walk(t, x)
    assert found > 250


def one_point_flipped_exchange(rng, n):
    """A random exchange of [0, n), cut on both sides of a few points, each
    one-point piece then written x -> -x + 2*lo + off: the same move."""
    cuts = set(rng.sample(range(1, n), rng.randint(0, min(6, n - 1))))
    for u in rng.sample(range(n), rng.randint(1, min(3, n))):
        cuts |= {u, u + 1}
    bounds = sorted(cuts | {0, n})
    pieces, out = [], 0
    for lo, hi in rng.sample(list(zip(bounds, bounds[1:])), len(bounds) - 1):
        off = out - lo
        pieces.append((lo, hi, -1, 2 * lo + off) if hi - lo == 1 else (lo, hi, 1, off))
        out += hi - lo
    return validate_plb(n, pieces)


def test_one_point_flips_take_the_induction(rng):
    for _ in range(150):
        t = one_point_flipped_exchange(rng, rng.randint(1, 600))
        assert not is_exchange(t)
        assert power_path(t)[0] is not None
        assert permutation_order(t) == reference_order(t)
        for x in {0, t.domain - 1, rng.randrange(t.domain)}:
            length = orbit_length(t, x)
            for n in (0, 1, length, 10**20 + 7):
                for signed in (n, -n):
                    assert iterate_plb(t, signed, x) == literal_power(t, signed % length, x), (t.pieces, x, signed)


def test_affine_form_reads_negative_multipliers():
    t = affine_plb(-3, 4, 11, 13)
    assert affine_form(t) == (-3, 4, 11)
    assert permutation_order(t) == reference_order(t)
    assert affine_form(validate_plb(9, [(0, 9, -1, 8)])) == (-1, 8, 9)


NEAR_AFFINE = {
    # riffle(13) with the second offset moved by 1: M = 12 and gcd(2, 12) = 2
    "moved offset": (13, [(0, 7, 2, 0), (7, 13, 2, -12)], 6),
    # x -> 5 - x below M = 5 and 5 fixed: the body lands 0 on M itself
    "body lands on the tail": (6, [(0, 5, -1, 5), (5, 6, -1, 10)], 0),
    # x -> 2x + 1 mod 5, its last piece straddling M = 5 and sending 5 to 6
    "straddling tail not fixed": (6, [(0, 2, 2, 1), (2, 6, 2, -4)], 0),
    # x -> 2x mod 4: every other condition holds, but gcd(2, 4) = 2
    "gcd(a, M) > 1": (4, [(0, 2, 2, 0), (2, 4, 2, -4)], 1),
}


@pytest.mark.parametrize("name", list(NEAR_AFFINE))
def test_near_affine_descriptions_fall_back_to_the_walk(name):
    domain, raw, x = NEAR_AFFINE[name]
    t = PiecewiseLinearBijection(domain, tuple(Piece(*p) for p in raw))
    with pytest.raises(PlbValidationError):
        validate_plb(domain, raw)
    assert affine_form(t) is None
    for n in range(12):
        assert iterate_plb(t, n, x) == literal_power(t, n, x)


def test_affine_form_is_memoized_and_skips_other_maps(rng):
    t = riffle(13)
    assert affine_form(t) is affine_form(t) and "_affine" in t.__dict__
    compiled, _ = circuit_to_plb(ReversibleCircuit(3, (gate("toffoli", 0, 1, 2), gate("not", 0))))
    assert affine_form(compiled) is None
    assert affine_form(interval_exchange(13, [(0, 6, 7), (6, 13, -6)])) is None
    assert affine_form(identity_plb(5)) is None
    mixed = [random_signed_plb(rng) for _ in range(100)]
    for t in mixed:
        if affine_form(t) is not None:
            a, b, m = affine_form(t)
            assert all(apply_plb(t, x) == ((a * x + b) % m if x < m else x) for x in range(t.domain))


def test_affine_power_answers_a_huge_riffle():
    m = 1000000000039
    t = riffle(m)
    assert iterate_plb(t, 10**20, 5) == 5 * pow(2, 10**20, m) % m
    assert iterate_plb(t, -(10**20), 5 * pow(2, 10**20, m) % m) == 5


class Stepped(Exception):
    pass


def test_powers_leap_without_a_literal_step(monkeypatch):
    """On small maps a lost leap would pass unnoticed, since the engine
    walks to the same answer.  With both literal steps patched to raise,
    an exchange and two affine maps still answer at n = 0 and
    +-(10**20 + 7); a compiled circuit has no power, so it steps."""
    maps = [
        interval_exchange(15, [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)]),
        riffle(13),
        affine_plb(-3, 4, 11, 13),
    ]
    huge = 10**20 + 7
    want = {
        (i, n, x): literal_power(t, n % orbit_length(t, x), x)
        for i, t in enumerate(maps) for n in (0, huge, -huge) for x in range(t.domain)
    }
    compiled, _ = circuit_to_plb(ReversibleCircuit(3, (gate("toffoli", 0, 1, 2), gate("not", 0))))

    def stepped(t, y):
        raise Stepped(y)

    monkeypatch.setattr(plb_module, "apply_plb", stepped)
    monkeypatch.setattr(plb_module, "apply_plb_inverse", stepped)
    for (i, n, x), y in want.items():
        assert iterate_plb(maps[i], n, x) == y, (i, n, x)
    for n in (1, -1, huge):
        with pytest.raises(Stepped):
            iterate_plb(compiled, n, 5)


def _distinct_primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            n //= p
        else:
            p += 1
    return sorted(set(out + [n] * (n > 1)))


@pytest.mark.parametrize("cards", [10**7 + 1, 10**9 + 8, 2**40 - 86])
def test_permutation_order_of_a_riffle_above_the_table_cap(rng, cards):
    # a riffle is x -> 2x mod m below m (m = cards, or cards - 1 with the
    # last card fixed), so T^j(x) = x * 2^j mod m by Python's pow alone
    t = riffle(cards)
    m = cards if cards % 2 else cards - 1
    for x in [rng.randrange(m) for _ in range(50)]:
        assert apply_plb(t, x) == 2 * x % m
    order = permutation_order(t)
    assert order > 0 and t.domain > plb_module.MAX_ORDER_TABLE
    for x in [rng.randrange(m) for _ in range(50)]:
        assert x * pow(2, order, m) % m == x
    for q in _distinct_primes(order):
        assert pow(2, order // q, m) != 1, q


def test_permutation_order_keeps_its_caps():
    # an affine modulus above the factoring cap, and a map with no affine form
    with pytest.raises(PlbError, match="domain too large"):
        permutation_order(riffle(2 * plb_module.MAX_AFFINE_ORDER_MODULUS + 2))
    wide = low_rotation(21)
    assert affine_form(wide) is None
    with pytest.raises(PlbError, match="domain too large"):
        permutation_order(wide)


def test_low_rotation_fixes_top_bit():
    t = low_rotation(4)
    assert len(t.pieces) <= 4
    for x in range(16):
        y = apply_plb(t, x)
        assert (y >= 8) == (x >= 8)
        low, top = x & 7, x & 8
        assert y == top | (((low << 1) | (low >> 2)) & 7)


def apply_stages(stages, x):
    for t in stages:
        x = apply_plb(t, x)
    return x


def test_compose_lift_single_stage_is_a_copy():
    stage = riffle(13)
    lifted = compose_lift([stage])
    assert lifted.domain == 13
    for x in range(13):
        assert apply_plb(lifted, x) == apply_plb(stage, x)


def test_compose_lift_two_rotations():
    stage = circular_shift(3)
    lifted = compose_lift([stage, stage])
    assert lifted.domain == 16
    for x in range(8):
        twice = apply_plb(stage, apply_plb(stage, x))
        assert iterate_plb(lifted, 2, x) == twice
        assert apply_stages([stage, stage], x) == twice


def test_compose_lift_double_riffle():
    stage = riffle(13)
    lifted = compose_lift([stage, stage])
    for x in range(13):
        assert iterate_plb(lifted, 2, x) == apply_plb(stage, apply_plb(stage, x))


def test_compose_lift_mixed_stage_round_trip(rng):
    stages = [riffle(16), circular_shift(4), low_rotation(4)]
    lifted = compose_lift(stages)
    for x in range(16):
        want = apply_stages(stages, x)
        assert iterate_plb(lifted, 3, x) == want
        assert iterate_plb(lifted, -3, want) == x


def test_bit_permute_empty_and_top():
    for positions in ((), (2,)):
        forward, inverse, _ = bit_permute(positions, 3)
        assert forward == inverse == ()
        for x in range(8):
            assert apply_stages(forward, x) == x


def test_bit_permute_lifts_bit_zero():
    forward, inverse, placement = bit_permute([0], 3)
    assert placement[0] == 2
    for x in range(8):
        y = apply_stages(forward, x)
        for src in range(3):
            assert (y >> placement[src]) & 1 == (x >> src) & 1
        assert apply_stages(inverse, y) == x


def test_bit_permute_pair(rng):
    k = 5
    forward, _, placement = bit_permute([0, 3], k)
    top = {k - 1, k - 2}
    assert {placement[0], placement[3]} == top
    for _ in range(20):
        x = rng.randrange(1 << k)
        y = apply_stages(forward, x)
        for src in range(k):
            assert (y >> placement[src]) & 1 == (x >> src) & 1


def test_circuit_to_plb_empty_circuit():
    t, s = circuit_to_plb(ReversibleCircuit(3, ()))
    for x in range(8):
        assert iterate_plb(t, s, x) == x


def test_circuit_to_plb_single_not():
    c = ReversibleCircuit(2, (gate("not", 0),))
    t, s = circuit_to_plb(c)
    for x in range(4):
        assert iterate_plb(t, s, x) == x ^ 2 == c.eval_int(x)


def test_circuit_to_plb_random_circuit_iterated(rng):
    c = random_reversible_circuit(rng, 4, 5, min_gates=5)
    t, s = circuit_to_plb(c)
    for x in range(16):
        want = iterate_circuit(c, 7, Bitstring(x, 4)).value
        assert iterate_plb(t, 7 * s, x) == want


def test_circuit_to_plb_one_gate_of_each_kind(rng):
    for width in range(3, 6):
        for kind, arity in GATE_ARITY.items():
            for _ in range(3):
                c = ReversibleCircuit(width, (gate(kind, *rng.sample(range(width), arity)),))
                t, s = circuit_to_plb(c)
                want = permutation_of(c)
                assert [iterate_plb(t, s, x) for x in range(1 << width)] == want, c


def test_circuit_to_plb_width_cap():
    with pytest.raises(PlbError):
        circuit_to_plb(ReversibleCircuit(MAX_CIRCUIT_PLB_WIDTH + 1, ()))


def test_circuit_to_plb_stage_cap(rng, monkeypatch):
    # at the cap the compile is unchanged; one stage under it, the compile
    # stops before compose_lift fuses anything
    c = random_reversible_circuit(rng, 6, 8, min_gates=8)
    t, s = circuit_to_plb(c)
    monkeypatch.setattr(plb_module, "MAX_CIRCUIT_PLB_STAGES", s)
    assert circuit_to_plb(c) == (t, s)
    monkeypatch.setattr(plb_module, "MAX_CIRCUIT_PLB_STAGES", s - 1)
    monkeypatch.setattr(plb_module, "compose_lift", None)
    with pytest.raises(PlbError, match=f"more than {s - 1} stages"):
        circuit_to_plb(c)


def test_circuit_to_plb_validates_gates_plus_three_maps(rng, monkeypatch):
    calls = []

    def counting(domain, pieces):
        calls.append(domain)
        return validate_plb(domain, pieces)

    monkeypatch.setattr(plb_module, "validate_plb", counting)
    cs = [ReversibleCircuit(1, ()), ReversibleCircuit(1, (gate("not", 0),) * 3)]
    for width in (3, 8):
        cs += [random_reversible_circuit(rng, width, n, min_gates=n) for n in (0, 1, 12)]
    for c in cs:
        calls.clear()
        circuit_to_plb(c)
        assert len(calls) <= len(c.gates) + 3, (c, len(calls))


def circuits_up_to_width_six(rng):
    """Every width 1..6: each gate kind alone on the top wires, in both
    orders (one-wire gates there, such as not 0 on one wire, need no
    rotation stage), and random circuits from width 2 on."""
    for width in range(1, 7):
        for kind, arity in GATE_ARITY.items():
            if arity <= width:
                yield ReversibleCircuit(width, (gate(kind, *range(arity)),))
                yield ReversibleCircuit(width, (gate(kind, *reversed(range(arity))),))
        for _ in range(8 if width > 1 else 0):
            yield random_reversible_circuit(rng, width, 8, min_gates=1)


def test_circuit_to_plb_matches_permutation_of_on_every_input(rng):
    for c in circuits_up_to_width_six(rng):
        t, s = circuit_to_plb(c)
        want = permutation_of(c)
        assert [iterate_plb(t, s, x) for x in range(1 << c.width)] == want, c


def test_progression_intersect_crt():
    hit = progression_intersect(0, 4, 2, 6)
    assert hit is not None
    assert hit.modulus == 12
    assert hit.residue % 4 == 0 and hit.residue % 6 == 2
    assert progression_intersect(0, 4, 1, 4) is None
    with pytest.raises(PlbError):
        progression_intersect(0, 0, 1, 4)


def test_interval_exchange_requires_translations():
    t = interval_exchange(8, [(0, 4, 4), (4, 8, -4)])
    assert all(p.mult == 1 for p in t.pieces)
    with pytest.raises(PlbValidationError):
        interval_exchange(8, [(0, 4, 4), (4, 8, -4), (8, 8, 0)])


def test_identity_plb_builder():
    t = identity_plb(6)
    assert [apply_plb(t, x) for x in range(6)] == list(range(6))
