"""Bitstrings, bijection wrappers, iteration, and the exhaustive checker."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ibx.kernel import (
    Bijection,
    BijectionCheck,
    Bitstring,
    IterationProblem,
    WidthMismatchError,
    add_const,
    builtin_bijections,
    cat_map,
    cat_pack,
    cat_unpack,
    check_bijection_exhaustive,
    from_permutation,
    identity,
    increment,
    iterate,
    iterate_bijection,
    iterate_map,
    pack_fields,
    rotate_left,
    unpack_fields,
)
from ibx.plb import apply_plb, riffle

from conftest import random_reversible_circuit


def test_text_is_msb_first():
    b = Bitstring.from_text("110")
    assert (b.value, b.width) == (6, 3)
    assert b.to_text() == "110"


def test_bit_zero_is_least_significant():
    b = Bitstring(0b110, 3)
    assert b.bit(0) == 0
    assert b.bit(1) == 1
    assert b.bit(2) == 1
    assert b.bits == (0, 1, 1)


def test_value_must_fit_width():
    with pytest.raises(ValueError):
        Bitstring(8, 3)
    with pytest.raises(ValueError):
        Bitstring(-1, 3)


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))
))
def test_text_round_trip(wv):
    w, v = wv
    b = Bitstring(v, w)
    assert Bitstring.from_text(b.to_text()) == b


@given(st.lists(st.tuples(st.integers(0, 7), st.just(3)), max_size=6))
def test_pack_unpack_round_trip(fields):
    packed = pack_fields(fields)
    assert unpack_fields(packed, [w for _, w in fields]) == tuple(
        v for v, _ in fields
    )


def test_pack_is_msb_first():
    # (1, 2 bits) then (1, 1 bit) reads as the numeral 011.
    assert pack_fields([(1, 2), (1, 1)]) == 3
    assert pack_fields([(2, 2), (0, 1)]) == 4


def test_iterate_identity_large_n():
    x = Bitstring.from_text("0110")
    assert iterate_bijection(identity(4), 10**6, x) == x


def test_iterate_increment():
    # 6 + 3 mod 8 = 1.
    out = iterate_bijection(increment(3), 3, Bitstring.from_text("110"))
    assert out.to_text() == "001"


def test_iterate_zero_is_identity():
    f = cat_map(8)
    for v in range(1 << f.width):
        x = Bitstring(v, f.width)
        assert iterate_bijection(f, 0, x) == x


def test_iterate_width_mismatch():
    with pytest.raises(WidthMismatchError):
        iterate_bijection(identity(3), 1, Bitstring(0, 4))


def _literal(f, n, x):
    return iterate(IterationProblem(f, n, x))


def _cycle_length(f, x):
    y, length = f.forward(x.value), 1
    while y != x.value:
        y, length = f.forward(y), length + 1
    return length


def test_engine_matches_literal_loop_on_random_tables(rng):
    for _ in range(40):
        w = rng.randint(0, 6)
        table = list(range(1 << w))
        rng.shuffle(table)
        f = from_permutation(table, w)
        x = Bitstring(rng.randrange(1 << w), w)
        for n in [rng.randint(-3 << w, 3 << w) for _ in range(12)]:
            want = _literal(f, n, x) if n >= 0 else _literal(f.inverse(), -n, x)
            assert iterate_bijection(f, n, x) == want, (table, n, x)


def test_engine_huge_n_reduces_by_the_return_time(rng):
    for _ in range(20):
        w = rng.randint(1, 6)
        table = list(range(1 << w))
        rng.shuffle(table)
        f = from_permutation(table, w)
        x = Bitstring(rng.randrange(1 << w), w)
        n = 10**20
        want = _literal(f, n % _cycle_length(f, x), x)
        assert iterate_bijection(f, n, x) == want
        back = _literal(f.inverse(), n % _cycle_length(f, x), x)
        assert iterate_bijection(f, -n, x) == back


def test_engine_counts_exactly_on_maps_that_are_not_bijections():
    # 0 -> 1 -> 2 -> 3 -> 2: x = 0 never returns, so every step is taken
    step = [1, 2, 3, 2].__getitem__
    assert [iterate_map(step, n, 0) for n in range(6)] == [0, 1, 2, 3, 2, 3]
    assert iterate_map(step, 10**6 + 1, 2) == 3


def test_engine_negative_n_needs_a_backward_map():
    f = Bijection(3, lambda v: (v + 1) % 8, None, "forward-only")
    assert iterate_bijection(f, 10**20, Bitstring(5, 3)) == Bitstring((5 + 10**20) % 8, 3)
    with pytest.raises(ValueError):
        iterate_bijection(f, -1, Bitstring(5, 3))


def test_check_identity():
    assert check_bijection_exhaustive(identity(4)).ok


def test_check_constant_map_yields_collision_witness():
    f = Bijection(2, lambda v: 0, None, "zero")
    report = check_bijection_exhaustive(f)
    assert not report.ok
    a, b = report.witness
    assert a != b
    assert f.forward(a.value) == f.forward(b.value)


def test_check_riffle_wrapped_as_bijection():
    t = riffle(16)
    f = Bijection(4, lambda v: apply_plb(t, v), None, "riffle16")
    assert check_bijection_exhaustive(f).ok


def test_check_rejects_wide_inputs():
    f = Bijection(21, lambda b: b, lambda b: b, "wide")
    with pytest.raises(ValueError):
        check_bijection_exhaustive(f)


def test_check_catches_broken_backward():
    f = Bijection(2, increment(2).forward, increment(2).forward, "bad-inverse")
    report = check_bijection_exhaustive(f)
    assert not report.ok
    assert "inverse" in report.reason


@pytest.mark.parametrize("shift", [4, -1])
def test_check_backward_escape_is_an_inverse_failure(shift):
    """A backward value outside [0, 2**width) is reported, not raised, with
    the witness (x, x), by the scalar walk and the array check alike."""
    want = BijectionCheck(False, (Bitstring(0, 2), Bitstring(0, 2)), "inverse")
    for arrays in (False, True):
        f = Bijection(2, lambda v: v, lambda v: v + shift, "escape-back", arrays=arrays)
        assert check_bijection_exhaustive(f) == want, arrays


def _both_checks(f):
    """check_bijection_exhaustive on an ``arrays`` map, and on the same
    evaluators wrapped as a scalar map, which takes the scalar walk."""
    back = f.backward
    scalar = Bijection(
        f.width,
        lambda v: int(f.forward(v)),
        None if back is None else (lambda v: int(back(v))),
        f.label,
    )
    assert f.arrays and not scalar.arrays
    return check_bijection_exhaustive(f), check_bijection_exhaustive(scalar)


def _faulty_tables(rng, width, faults):
    """A random permutation table and its inverse, with ``faults`` planted
    faults: a collision, a wrong backward entry, or an escape to -1 or to
    2**width and above."""
    size = 1 << width
    fwd = list(range(size))
    rng.shuffle(fwd)
    back = [0] * size
    for x, y in enumerate(fwd):
        back[y] = x
    for _ in range(faults):
        kind = rng.choice(["collision", "backward", "escape"])
        if kind == "escape":
            fwd[rng.randrange(size)] = rng.choice([-1, size + rng.randrange(size)])
        elif size > 1 and kind == "collision":
            i, j = rng.sample(range(size), 2)
            fwd[j] = fwd[i]
        elif size > 1:
            k = rng.randrange(size)
            back[k] = (back[k] + rng.randrange(1, size)) % size
    return np.array(fwd, dtype=np.int64), np.array(back, dtype=np.int64)


def test_array_check_matches_scalar_walk_on_circuits(rng):
    for width in range(11):
        for _ in range(4):
            c = random_reversible_circuit(rng, width, 30 if width > 1 else 0, min_gates=0)
            for f in (c.as_bijection(), c.as_bijection().inverse()):
                fast, slow = _both_checks(f)
                assert fast == slow
                assert fast.ok, (width, c)


def test_array_check_matches_scalar_walk_on_faulty_tables(rng):
    reasons = set()
    for width in range(8):
        for faults in range(4):
            for _ in range(12):
                fwd, back = _faulty_tables(rng, width, faults)
                for backward in (back.__getitem__, None):
                    f = Bijection(width, fwd.__getitem__, backward, "table", arrays=True)
                    fast, slow = _both_checks(f)
                    assert fast == slow, (fwd.tolist(), back.tolist(), backward)
                    reasons.add(fast.reason)
    assert reasons == {"", "escape", "collision", "inverse"}


def test_array_flag_edges(monkeypatch):
    add1 = Bijection(3, lambda v: (v + 1) & 7, lambda v: (v - 1) & 7, "add1", arrays=True)
    assert add1.inverse().arrays
    assert not increment(3).inverse().arrays
    assert check_bijection_exhaustive(add1.inverse()).ok

    def never(*args, **kwargs):
        raise AssertionError("evaluated a map wider than the cap")

    monkeypatch.setattr(np, "arange", never)
    with pytest.raises(ValueError):
        check_bijection_exhaustive(Bijection(21, never, never, "wide", arrays=True))
    monkeypatch.undo()
    empty = Bijection(0, lambda v: v, lambda v: v, "empty", arrays=True)
    assert all(chk.ok for chk in _both_checks(empty))


def test_cat_map_origin_fixed():
    f = cat_map(5)
    origin = cat_pack(5, 0, 0)
    assert f.apply(origin) == origin


def test_cat_map_matches_matrix_and_fixes_out_of_domain():
    f = cat_map(5)
    for v in range(1 << f.width):
        x = Bitstring(v, f.width)
        a, b = cat_unpack(5, x)
        y = f.apply(x)
        if a < 5 and b < 5:
            assert cat_unpack(5, y) == ((2 * a + b) % 5, (a + b) % 5)
        else:
            assert y == x


def test_cat_map_inverse_exhaustive():
    assert check_bijection_exhaustive(cat_map(5)).ok
    assert check_bijection_exhaustive(cat_map(8)).ok


def test_add_const_wraps():
    f = add_const(3, 5)
    assert f.forward(6) == 3
    assert f.backward(3) == 6


def test_rotate_left_moves_msb_down():
    f = rotate_left(4)
    assert f.apply(Bitstring.from_text("1000")).to_text() == "0001"
    assert f.apply(Bitstring.from_text("0110")).to_text() == "1100"


def test_rotation_order_equals_width():
    f = rotate_left(5)
    for v in range(32):
        x = Bitstring(v, 5)
        assert iterate_bijection(f, 5, x) == x


def test_from_permutation_swap():
    f = from_permutation([1, 0, 2, 3], 2)
    assert f.forward(0) == 1
    assert f.backward(0) == 1
    assert check_bijection_exhaustive(f).ok


def test_from_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        from_permutation([0, 0, 2, 3], 2)


def test_builtins_are_bijective():
    fs = builtin_bijections()
    assert len({f.label for f in fs}) == len(fs)
    for f in fs:
        if f.width <= 10:
            assert check_bijection_exhaustive(f).ok, f.label
