"""Piecewise-linear bijections: validation, evaluation, lifts, compilation."""

import pytest

from ibx.circuits import ReversibleCircuit, gate, iterate_circuit
from ibx.kernel import Bitstring
from ibx.plb import (
    MAX_CIRCUIT_PLB_WIDTH,
    Piece,
    PlbError,
    PlbValidationError,
    apply_plb,
    apply_plb_inverse,
    bit_permute,
    circuit_to_plb,
    circular_shift,
    compose_lift,
    identity_plb,
    interval_exchange,
    iterate_plb,
    low_rotation,
    permutation_order,
    plb,
    progression_intersect,
    riffle,
    validate_plb,
)

from conftest import random_reversible_circuit


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


def test_apply_rejects_out_of_domain():
    with pytest.raises(PlbError):
        apply_plb(riffle(13), 13)
    with pytest.raises(PlbError):
        apply_plb_inverse(riffle(13), -1)


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


def test_low_rotation_fixes_top_bit():
    t = low_rotation(4)
    assert len(t.pieces) <= 4
    for x in range(16):
        y = apply_plb(t, x)
        assert (y >= 8) == (x >= 8)
        low, top = x & 7, x & 8
        assert y == top | (((low << 1) | (low >> 2)) & 7)


def test_compose_lift_single_stage_is_a_copy():
    stage = riffle(13)
    prog = compose_lift([stage])
    assert prog.lifted.domain == 13
    for x in range(13):
        assert apply_plb(prog.lifted, x) == apply_plb(stage, x)


def test_compose_lift_two_rotations():
    stage = circular_shift(3)
    prog = compose_lift([stage, stage])
    assert prog.lifted.domain == 16
    for x in range(8):
        twice = apply_plb(stage, apply_plb(stage, x))
        assert iterate_plb(prog.lifted, 2, x) == twice
        assert prog.apply_stages(x) == twice


def test_compose_lift_double_riffle():
    stage = riffle(13)
    prog = compose_lift([stage, stage])
    for x in range(13):
        assert iterate_plb(prog.lifted, 2, x) == apply_plb(stage, apply_plb(stage, x))


def test_compose_lift_mixed_stage_round_trip(rng):
    stages = [riffle(16), circular_shift(4), low_rotation(4)]
    prog = compose_lift(stages)
    for x in range(16):
        want = x
        for s in stages:
            want = apply_plb(s, want)
        assert iterate_plb(prog.lifted, 3, x) == want
        assert prog.apply_stages_inverse(want) == x


def test_bit_permute_empty_and_top():
    for positions in ((), (2,)):
        bp = bit_permute(positions, 3)
        for x in range(8):
            assert bp.forward.apply_stages(x) == x


def test_bit_permute_lifts_bit_zero():
    bp = bit_permute([0], 3)
    assert bp.placement[0] == 2
    for x in range(8):
        y = bp.forward.apply_stages(x)
        for src in range(3):
            assert (y >> bp.placement[src]) & 1 == (x >> src) & 1
        assert bp.inverse.apply_stages(y) == x


def test_bit_permute_pair(rng):
    k = 5
    bp = bit_permute([0, 3], k)
    top = {k - 1, k - 2}
    assert {bp.placement[0], bp.placement[3]} == top
    for _ in range(20):
        x = rng.randrange(1 << k)
        y = bp.forward.apply_stages(x)
        for src in range(k):
            assert (y >> bp.placement[src]) & 1 == (x >> src) & 1


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


def test_circuit_to_plb_width_cap():
    with pytest.raises(PlbError):
        circuit_to_plb(ReversibleCircuit(MAX_CIRCUIT_PLB_WIDTH + 1, ()))


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
