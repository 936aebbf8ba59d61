"""Shared fixtures: a deterministic RNG and random-object builders."""

import random

import pytest

from ibx import circuits
from ibx.graphs import ImplicitFamily
from ibx.kernel import Bitstring, iterate_bijection
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
