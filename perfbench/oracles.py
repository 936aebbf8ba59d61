"""Reference computations the benchmark checks ibx against.

Nothing here imports ibx.  Each function recomputes an answer from the
raw description the benchmark generated (a gate list, a piece list, a
grid, an edge list) by a different route than the package takes: numpy
evaluation over whole state spaces, permutation powers by squaring,
closed forms, and sorting.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Reversible gate lists: (kind, wires) with wire 0 the most significant bit.


def eval_gates(gates: Sequence[Tuple[str, Tuple[int, ...]]], width: int, states) -> np.ndarray:
    """Apply a reversible gate list to an array of integer states at once."""
    s = np.array(states, dtype=np.uint64)
    one = np.uint64(1)
    for kind, wires in gates:
        pos = [np.uint64(width - 1 - w) for w in wires]
        if kind == "not":
            s ^= one << pos[0]
        elif kind == "swap":
            a, b = pos
            diff = ((s >> a) ^ (s >> b)) & one
            s ^= (diff << a) | (diff << b)
        elif kind == "cnot":
            c, t = pos
            s ^= ((s >> c) & one) << t
        elif kind == "toffoli":
            c1, c2, t = pos
            s ^= ((s >> c1) & (s >> c2) & one) << t
        elif kind == "fredkin":
            c, a, b = pos
            m = ((s >> c) & ((s >> a) ^ (s >> b))) & one
            s ^= (m << a) | (m << b)
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return s


def gate_table(gates, width: int) -> np.ndarray:
    """The permutation of [0, 2**width) a gate list realizes."""
    return eval_gates(gates, width, np.arange(1 << width)).astype(np.int64)


def perm_power(perm, n: int) -> np.ndarray:
    """perm composed with itself n times (any integer n), by squaring."""
    p = np.asarray(perm, dtype=np.int64)
    if n < 0:
        inv = np.empty_like(p)
        inv[p] = np.arange(len(p))
        p, n = inv, -n
    out = np.arange(len(p))
    while n:
        if n & 1:
            out = p[out]
        p = p[p]
        n >>= 1
    return out


def cycles(perm) -> List[List[int]]:
    """Every cycle of a permutation, each listed from its smallest member."""
    p = list(perm)
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        out.append(cycle)
    return out


def cycle_length_of(perm, x: int) -> int:
    length, y = 1, int(perm[x])
    while y != x:
        y = int(perm[y])
        length += 1
    return length


def perm_parity(perm) -> str:
    """'even' or 'odd' from the cycle count."""
    return "even" if (len(perm) - len(cycles(perm))) % 2 == 0 else "odd"


def negation_perm(width: int) -> List[int]:
    size = 1 << width
    return [(size - x) % size for x in range(size)]


def to_classical(gates, width: int):
    """Boolean gates (kind, out, args) computing a reversible gate list.

    Returns (gates, outputs) in the ClassicalCircuit layout: inputs are
    wires [0, width), every gate writes one fresh wire.
    """
    cur = list(range(width))
    out: List[Tuple[str, int, Tuple[int, ...]]] = []

    def emit(kind, *args):
        wire = width + len(out)
        out.append((kind, wire, tuple(args)))
        return wire

    for kind, w in gates:
        if kind == "not":
            cur[w[0]] = emit("not", cur[w[0]])
        elif kind == "swap":
            cur[w[0]], cur[w[1]] = cur[w[1]], cur[w[0]]
        elif kind == "cnot":
            cur[w[1]] = emit("xor", cur[w[1]], cur[w[0]])
        elif kind == "toffoli":
            cur[w[2]] = emit("xor", cur[w[2]], emit("and", cur[w[0]], cur[w[1]]))
        else:
            m = emit("and", cur[w[0]], emit("xor", cur[w[1]], cur[w[2]]))
            cur[w[1]] = emit("xor", cur[w[1]], m)
            cur[w[2]] = emit("xor", cur[w[2]], m)
    return out, tuple(cur)


# ---------------------------------------------------------------------------
# Piecewise maps and interval exchanges, from raw piece lists.


def plb_table(domain: int, pieces: Sequence[Tuple[int, int, int, int]]) -> np.ndarray:
    """Image of every point of [0, domain) under (lo, hi, mult, off) pieces."""
    out = np.full(domain, -1, dtype=np.int64)
    for lo, hi, mult, off in pieces:
        xs = np.arange(lo, hi, dtype=np.int64)
        out[lo:hi] = mult * xs + off
    return out


def iet_table(domain: int, triples: Sequence[Tuple[int, int, int]]) -> np.ndarray:
    return plb_table(domain, [(lo, hi, 1, off) for lo, hi, off in triples])


def riffle_pieces(n: int) -> List[Tuple[int, int, int, int]]:
    half = (n + 1) // 2
    return [(0, half, 2, 0), (half, n, 2, -n if n % 2 else -n + 1)]


def riffle_power(n: int, m: int, x: int) -> int:
    """m perfect riffles of n cards in closed form: 2**m x modulo n for odd
    n, modulo n - 1 with the last card fixed for even n."""
    if n % 2 == 0 and x == n - 1:
        return x
    mod = n if n % 2 else n - 1
    return pow(2, m, mod) * x % mod


def rotation_power(domain: int, a: int, n: int, x: int) -> int:
    return (x + n * a) % domain


def multiplicative_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 mod m; m = 1 gives 1."""
    if m == 1:
        return 1
    if gcd(a, m) != 1:
        raise ValueError("order needs coprime arguments")
    k, v = 1, a % m
    while v != 1:
        v = v * a % m
        k += 1
    return k


def riffle_order(n: int) -> int:
    return multiplicative_order(2, n if n % 2 else n - 1)


def cyclic_gaps(modulus: int, step: int, count: int) -> Tuple[int, ...]:
    """Distinct gaps between the first count multiples of step, by sorting."""
    pts = sorted(set((j * step) % modulus for j in range(count)))
    if len(pts) == 1:
        return (modulus,)
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [pts[0] + modulus - pts[-1]]
    return tuple(sorted(set(gaps)))


# ---------------------------------------------------------------------------
# Block automata.


def bbm_table() -> List[int]:
    """Billiard-ball rule on blocks tl*8 + tr*4 + bl*2 + br."""
    table = []
    for s in range(16):
        if bin(s).count("1") == 1:
            table.append({8: 1, 4: 2, 2: 4, 1: 8}[s])
        elif s in (0b1001, 0b0110):
            table.append(s ^ 0b1111)
        else:
            table.append(s)
    return table


def margolus_torus(cells: np.ndarray, phase: int, table: Sequence[int]) -> np.ndarray:
    """One blocked update on a torus; odd phase anchors blocks at (1, 1)."""
    g = np.roll(cells, (-phase, -phase), (0, 1))
    lut = np.asarray(table, dtype=np.uint8)
    tl, tr = g[0::2, 0::2], g[0::2, 1::2]
    bl, br = g[1::2, 0::2], g[1::2, 1::2]
    out = lut[tl * 8 + tr * 4 + bl * 2 + br]
    new = np.empty_like(g)
    new[0::2, 0::2] = out >> 3 & 1
    new[0::2, 1::2] = out >> 2 & 1
    new[1::2, 0::2] = out >> 1 & 1
    new[1::2, 1::2] = out & 1
    return np.roll(new, (phase, phase), (0, 1))


def margolus_helical(cells: np.ndarray, phase: int, table: Sequence[int]) -> np.ndarray:
    """One blocked update with screw vertical connections.

    Row pairs read as one strip, position u = pair * width + column.  An
    odd-phase block is (lower row at u, u + 1) over (upper row at u + w,
    u + w + 1), u odd, all modulo the strip length.
    """
    if phase == 0:
        return margolus_torus(cells, 0, table)
    h, w = cells.shape
    p = h * w // 2
    upper = [int(v) for v in cells[0::2, :].reshape(p)]
    lower = [int(v) for v in cells[1::2, :].reshape(p)]
    for u in range(1, p, 2):
        a, b = u, (u + 1) % p
        c, d = (u + w) % p, (u + w + 1) % p
        out = table[lower[a] * 8 + lower[b] * 4 + upper[c] * 2 + upper[d]]
        lower[a], lower[b] = out >> 3 & 1, out >> 2 & 1
        upper[c], upper[d] = out >> 1 & 1, out & 1
    new = np.empty_like(cells)
    new[0::2, :] = np.array(upper, dtype=cells.dtype).reshape(h // 2, w)
    new[1::2, :] = np.array(lower, dtype=cells.dtype).reshape(h // 2, w)
    return new


def grid_text(cells: np.ndarray, phase: int) -> str:
    h, w = cells.shape
    rows = ["".join("#" if v else "." for v in row) for row in cells.tolist()]
    return "\n".join([f"bbm {w} {h} {phase}"] + rows)


# ---------------------------------------------------------------------------
# Graphs.


def ham_cycles_through(n: int, edges: Sequence[Tuple[int, int]], edge: Tuple[int, int]) -> int:
    """Hamiltonian cycles through an edge, by a bitmask search over paths
    from one end of the edge that must close through the other end."""
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    a, b = edge
    full = (1 << n) - 1
    count = 0
    stack = [(b, (1 << a) | (1 << b))]
    while stack:
        v, mask = stack.pop()
        if mask == full:
            count += a in adj[v]
            continue
        for w in adj[v]:
            if not mask >> w & 1:
                stack.append((w, mask | 1 << w))
    return count


def is_ham_cycle(n: int, edges, cycle: Sequence[int]) -> bool:
    keys = {frozenset(e) for e in edges}
    if sorted(cycle) != list(range(n)):
        return False
    return all(
        frozenset((cycle[i], cycle[(i + 1) % n])) in keys for i in range(n)
    )


def same_cycle(c1: Sequence[int], c2: Sequence[int]) -> bool:
    """Whether two vertex cycles use the same edges."""
    def edge_set(c):
        return {frozenset((c[i], c[(i + 1) % len(c)])) for i in range(len(c))}

    return edge_set(c1) == edge_set(c2)
