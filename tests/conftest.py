"""Shared fixtures: a deterministic RNG and random-object builders."""

import random
from typing import NamedTuple, Tuple

import pytest

from ibx import circuits
from ibx.graphs import ImplicitFamily
from ibx.kernel import Bitstring, iterate_bijection, pack_fields, unpack_fields
from ibx.plb import validate_plb


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_reversible_circuit(rng, width, max_gates, min_gates=1):
    """Gates drawn only from kinds narrower than the circuit."""
    kinds = [k for k, a in circuits.GATE_ARITY.items() if a < width]
    gates = []
    for _ in range(rng.randint(min_gates, max_gates)):
        kind = rng.choice(kinds)
        wires = rng.sample(range(width), circuits.GATE_ARITY[kind])
        gates.append(circuits.gate(kind, *wires))
    return circuits.ReversibleCircuit(width, tuple(gates))


@pytest.fixture
def make_circuit():
    return random_reversible_circuit


def random_pieces(rng, n, k):
    """(lo, hi, off) triples of a random exchange of k pieces on [0, n)."""
    cuts = [0] + sorted(rng.sample(range(1, n), k - 1)) + [n]
    segs = list(zip(cuts, cuts[1:]))
    pieces, out = [], 0
    for idx in rng.sample(range(k), k):
        lo, hi = segs[idx]
        pieces.append((lo, hi, out - lo))
        out += hi - lo
    return pieces


def affine_plb(a, b, m, domain):
    """x -> (a*x + b) mod m on [0, m), one piece per run of equal quotient
    (a*x + b) // m, then a one-point fixed piece per point of [m, domain)."""
    pieces, lo = [], 0
    for x in range(1, m + 1):
        if x == m or (a * x + b) // m != (a * lo + b) // m:
            pieces.append((lo, x, a, b - (a * lo + b) // m * m))
            lo = x
    pieces += [(x, x + 1, a, x - a * x) for x in range(m, domain)]
    return validate_plb(domain, pieces)


def ring_family(ids, k):
    """A ring through the given k-bit vertex ids (at least three), each
    vertex on it of degree two and adjacency symmetric; other ids are
    isolated.  A leaf walk on it has no leaf to stop at."""
    index = {v: i for i, v in enumerate(ids)}

    def neighbors(_, v):
        i = index.get(v.value)
        if i is None:
            return []
        return [Bitstring(ids[i - 1], k), Bitstring(ids[(i + 1) % len(ids)], k)]

    return ImplicitFamily(neighbors)


def assert_leaps_are_walks(leap, step, back, v, counts):
    """Each hop leap(v, r), r = c or -c for c in counts, is None or (y, j)
    with 1 <= j <= c and y exactly j literal ``step``s (r > 0) or ``back``s
    (r < 0) from v.  Returns the signs of the r that leapt."""
    signs = set()
    for c in counts:
        for r, move in ((c, step), (-c, back)):
            hop = leap(v, r)
            if hop is not None:
                y, j = hop
                assert 1 <= j <= c, (v, r, j)
                w = v
                for _ in range(j):
                    w = move(w)
                assert y == w, (v, r, j)
                signs.add(1 if r > 0 else -1)
    return signs


def logged(moves, step, back, leap, ticks=False):
    """step, back and leap as the engine sees them, each appending the
    move it makes to moves: "step" for a literal step either way, "leap"
    for a leap taken, or its tick count j when ``ticks`` is set.  A run
    past 1000 moves fails at once: a dropped leap shows as an assertion,
    not as a run of 10**20 steps."""

    def literal(move):
        def logged_move(y):
            moves.append("step")
            assert len(moves) <= 1000, "the engine walks"
            return move(y)

        return logged_move

    def logged_leap(y, r):
        hop = leap(y, r)
        if hop is not None:
            moves.append(hop[1] if ticks else "leap")
        return hop

    return literal(step), literal(back), logged_leap


def logged_run(g, steps, start):
    """The bijection g run ``steps`` ticks from start, and the engine moves
    it took: "step" for a literal step, and the tick count of each leap."""
    moves = []
    step, back, leap = logged(moves, g.forward, g.backward, g.leap, ticks=True)
    return iterate_bijection(g._replace(forward=step, backward=back, leap=leap), steps, start), moves


# ---------------------------------------------------------------------------
# The clocked compilers' state layout as their docstrings state it, packed
# by the kernel's pack_fields/unpack_fields at widths computed here.


class ClockedState(NamedTuple):
    c1: int
    c2: int
    payload: Tuple[int, ...]


class ClockedLayout(NamedTuple):
    """(c1, c2, payload fields) states, c1 most significant: the counters
    in the fewest bits that hold modulus - 1, first payload field next."""

    m_big: int
    m_small: int
    payload_widths: Tuple[int, ...]


def clock_layout(n, k):
    """compile_iteration_to_invertible's, for n applications of a k-bit f."""
    return ClockedLayout(n + 1, (1 << k) + 3, (k, k, k))


def oracle_layout(oc):
    """compile_oracle_circuit's, for the oracle circuit oc."""
    return ClockedLayout(len(oc.gates) + 1, oc.max_oracle_count() + 1, (len(oc.all_wires()),))


def ref_widths(layout):
    w1 = max(1, (layout.m_big - 1).bit_length())
    w2 = max(1, (layout.m_small - 1).bit_length())
    return (w1, w2) + layout.payload_widths


def ref_decode(layout, v):
    """v's ClockedState, or None when a counter is at or past its modulus."""
    c1, c2, *payload = unpack_fields(v, ref_widths(layout))
    if c1 >= layout.m_big or c2 >= layout.m_small:
        return None
    return ClockedState(c1, c2, tuple(payload))


def ref_encode(layout, st):
    return pack_fields(list(zip((st.c1, st.c2) + st.payload, ref_widths(layout))))
