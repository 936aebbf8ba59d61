"""Leaf-finding in implicit bounded-degree graphs, and Thomason's
lollipop walk on cubic graphs.

An implicit family answers neighbor queries about an exponentially large
graph; the only promises are that every vertex has at most two neighbors and
that adjacency is symmetric.  Walking from a degree-one vertex to the other
end of its path component is the basic search problem here, and
leaf_to_bijection repackages that walk as iterating a single bijection.

The lollipop machinery instantiates the same shape on an explicit cubic
graph whose implicit vertices are Hamiltonian paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .kernel import Bijection, Bitstring, pack_fields, unpack_fields


class FamilyError(ValueError):
    """The neighbor function broke one of its promises."""


class GraphError(ValueError):
    pass


NeighborFn = Callable[[Bitstring, Bitstring], Optional[List[Bitstring]]]


@dataclass(frozen=True)
class ImplicitFamily:
    """Neighbor oracle for a family of graphs with maximum degree two.

    ``neighbors(G, v)`` returns the ordered neighbor list of v in the graph
    selected by G, or None for an outright failure.  query() additionally
    screens the response: anything of the wrong shape (more than two
    entries, duplicates, a self-loop, a width mismatch) is reported as None
    so callers can treat it uniformly as a broken promise.

    ``neighbors`` must be a deterministic function of its arguments: the
    same (G, v) always gets the same answer.  leaf_to_bijection relies on
    this when it reuses an answer instead of asking again.
    """

    neighbors: NeighborFn

    def query(self, instance: Bitstring, v: Bitstring) -> Optional[List[Bitstring]]:
        out = self.neighbors(instance, v)
        if out is None:
            return None
        if len(out) > 2:
            return None
        seen = set()
        for w in out:
            if not isinstance(w, Bitstring) or w.width != v.width:
                return None
            if w.value == v.value or w.value in seen:
                return None
            seen.add(w.value)
        return list(out)


@dataclass(frozen=True)
class LeafInstance:
    family: ImplicitFamily
    instance: Bitstring
    start: Bitstring


def solve_leaf_walk(inst: LeafInstance) -> Bitstring:
    """Walk from a degree-one vertex to the far end of its path component.

    Never revisits the vertex it just came from, so on a well-formed family
    the walk is forced.  Raises FamilyError when the oracle misbehaves:
    failure responses, a start vertex that is not degree one, a missing
    back-edge, or a walk that outlives the vertex space (a cycle).
    """
    family, g, v = inst.family, inst.instance, inst.start
    nv = family.query(g, v)
    if nv is None:
        raise FamilyError("neighbor oracle failed at the start vertex")
    if len(nv) != 1:
        raise FamilyError("start vertex does not have exactly one neighbor")
    prev, cur = v, nv[0]
    budget = 1 << v.width  # distinct vertices available; longer means a loop
    for _ in range(budget):
        ncur = family.query(g, cur)
        if ncur is None:
            raise FamilyError("neighbor oracle failed mid-walk")
        if prev.value not in [w.value for w in ncur]:
            raise FamilyError("adjacency is not symmetric along the walk")
        if len(ncur) == 1:
            return cur
        step = [w for w in ncur if w.value != prev.value]
        prev, cur = cur, step[0]
    raise FamilyError("walk exceeded the vertex space; component is not a path")


# Vertices whose neighbor lists one leaf_to_bijection map remembers.
_LEAF_MEMO = 4

# A screened neighbor list as vertex ids, or None for a broken promise.
_Nbrs = Optional[Tuple[int, ...]]


def leaf_to_bijection(family: ImplicitFamily, instance: Bitstring, k: int) -> Bijection:
    """Package the leaf walk as a bijection on 3k-bit states (n, v, w).

    The state is a counter plus an oriented edge.  While n = 0 the edge
    advances along the path; stepping onto a degree-one vertex reverses the
    edge and starts the counter, which then ticks modulo 2**k while the
    walker waits at that leaf.  Starting from (0, leaf, its neighbor), the
    wait window is long enough that after exactly 2**k steps the v field
    holds the far leaf, for every path length the width allows.

    States that decode to anything inconsistent (a failed or malformed
    oracle response, a non-adjacent pair) are fixed points.  The result is a
    genuine bijection whenever the family honours its symmetry and degree
    promises; locally detectable violations fall back to the identity but
    cannot rescue bijectivity off-contract.

    The oracle must be a deterministic function of its arguments.  Each map
    remembers the screened answers for its last few vertices, so a walking
    step asks the oracle only about the vertex it steps onto and a waiting
    step asks nothing; with an oracle whose answers change between calls
    the map would act on stale answers.
    """
    if k <= 0:
        raise GraphError("vertex width must be positive")
    mask = (1 << k) - 1
    k2 = 2 * k
    memo: Dict[int, _Nbrs] = {}

    def query_vals(value: int) -> _Nbrs:
        # A step asks about the two vertices of its edge and, when walking,
        # the next one; the previous step asked about all but the newest.
        # So a memo of the last few vertices leaves one oracle call per
        # walking step and none per waiting step.
        if value in memo:
            return memo[value]
        out = family.query(instance, Bitstring(value, k))
        vals = None if out is None else tuple([w.value for w in out])
        if len(memo) >= _LEAF_MEMO:
            del memo[next(iter(memo))]
        memo[value] = vals
        return vals

    def mutual(a: int, na: _Nbrs, b: int, nb: _Nbrs) -> bool:
        return na is not None and nb is not None and b in na and a in nb

    def fwd(x: int) -> int:
        n, v, w = (x >> k2) & mask, (x >> k) & mask, x & mask
        nv, nw = query_vals(v), query_vals(w)
        if not mutual(v, nv, w, nw):
            return x
        if n > 0:
            if len(nv) == 1:
                return ((n + 1) & mask) << k2 | v << k | w
            return x
        if len(nw) == 1:
            return 1 << k2 | w << k | v
        u = nw[0] if nw[1] == v else nw[1]
        nu = query_vals(u)
        if not mutual(w, nw, u, nu):
            return x
        return w << k | u

    def back(x: int) -> int:
        m, p, q = (x >> k2) & mask, (x >> k) & mask, x & mask
        np_, nq = query_vals(p), query_vals(q)
        if not mutual(p, np_, q, nq):
            return x
        if len(np_) == 1:
            if m == 1:
                return q << k | p
            return ((m - 1) & mask) << k2 | p << k | q
        if m == 0:
            v = np_[0] if np_[1] == q else np_[1]
            nv = query_vals(v)
            if not mutual(v, nv, p, np_):
                return x
            return v << k | p
        return x

    return Bijection(3 * k, fwd, back, label=f"leaf-walk[{k}]")


def random_path_instance(
    k: int, rng, length: Optional[int] = None
) -> LeafInstance:
    """A scrambled path on distinct k-bit vertex ids, as an implicit family.

    The start vertex is one end.  Vertices off the path are isolated.  The
    instance bitstring carries nothing; the path is baked into the oracle.
    """
    if k <= 0:
        raise GraphError("vertex width must be positive")
    space = 1 << k
    if length is None:
        # cap so a single walk stays cheap even at the widest k
        length = rng.randint(2, min(space, 4096))
    if not 2 <= length <= space:
        raise GraphError(f"path length {length} does not fit in {k} bits")
    ids = rng.sample(range(space), length)
    index = {v: i for i, v in enumerate(ids)}

    def neighbors(_: Bitstring, v: Bitstring) -> List[Bitstring]:
        i = index.get(v.value)
        if i is None:
            return []
        out = []
        if i > 0:
            out.append(Bitstring(ids[i - 1], k))
        if i + 1 < len(ids):
            out.append(Bitstring(ids[i + 1], k))
        return out

    return LeafInstance(ImplicitFamily(neighbors), Bitstring(0, 1), Bitstring(ids[0], k))


# ---------------------------------------------------------------------------
# Explicit cubic graphs and the lollipop state space.


@dataclass(frozen=True)
class CubicGraph:
    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e} out of range")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        degs = [0] * n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        if any(d != 3 for d in degs):
            raise GraphError("graph is not 3-regular")
        adj = self.adjacency()
        reached = {0}
        frontier = deque([0])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        if len(reached) != n:
            raise GraphError("graph is not connected")

    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        adj: List[List[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in {
            (min(a, b), max(a, b)) for a, b in self.edges
        }


def cubic_graph(n: int, edges: Sequence[Tuple[int, int]]) -> CubicGraph:
    return CubicGraph(n, tuple((u, v) for u, v in edges))


def complete_graph_k4() -> CubicGraph:
    return cubic_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def complete_bipartite_k33() -> CubicGraph:
    return cubic_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def prism_graph(m: int) -> CubicGraph:
    """Two m-cycles joined by a perfect matching (m >= 3)."""
    if m < 3:
        raise GraphError("prism needs cycles of length at least 3")
    edges = []
    for i in range(m):
        edges.append((i, (i + 1) % m))
        edges.append((m + i, m + (i + 1) % m))
        edges.append((i, m + i))
    return cubic_graph(2 * m, edges)


def generalized_petersen(n: int, step: int) -> CubicGraph:
    """Outer n-cycle, inner n-cycle with stride ``step``, plus spokes."""
    if n < 3 or not 1 <= step < n or 2 * step == n:
        raise GraphError("generalized Petersen parameters out of range")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + step) % n))
        edges.append((i, n + i))
    deduped = []
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            deduped.append((u, v))
    return cubic_graph(2 * n, deduped)


def petersen_graph() -> CubicGraph:
    return generalized_petersen(5, 2)


def cube_graph() -> CubicGraph:
    return prism_graph(4)


@dataclass(frozen=True)
class LollipopState:
    """A Hamiltonian path whose first edge is the pinned oriented edge.

    path[0] is the fixed start vertex and (path[0], path[1]) the fixed
    oriented edge shared by every state reachable from this one.
    """

    path: Tuple[int, ...]

    @property
    def fixed_edge(self) -> Tuple[int, int]:
        return (self.path[0], self.path[1])

    def validate(self, g: CubicGraph) -> None:
        if len(self.path) != g.vertex_count:
            raise GraphError("path does not visit every vertex")
        if len(set(self.path)) != len(self.path):
            raise GraphError("path repeats a vertex")
        adj = g.adjacency()
        for a, b in zip(self.path, self.path[1:]):
            if b not in adj[a]:
                raise GraphError(f"consecutive vertices {a},{b} not adjacent")


def lollipop_neighbors(g: CubicGraph, s: LollipopState) -> List[LollipopState]:
    """The one or two Hamiltonian paths reachable by a single lollipop move.

    Each unused edge at the path's far end either closes a Hamiltonian
    cycle (contributing nothing, which is what makes cycle-adjacent states
    degree one) or folds the tail: attach the edge, then drop the other
    cycle edge at its landing vertex, reversing the tail segment.
    """
    s.validate(g)
    path = s.path
    z = path[-1]
    position = {v: i for i, v in enumerate(path)}
    adj = g.adjacency()
    out = []
    for y in adj[z]:
        if y == path[-2]:
            continue
        i = position[y]
        if i == 0:
            continue  # closing edge: a Hamiltonian cycle, not a new path
        out.append(LollipopState(path[: i + 1] + path[:i:-1]))
    out.sort(key=lambda t: t.path[-1])
    return out


def _walk_states(
    g: CubicGraph, start: LollipopState, budget: int = 10_000_000
) -> LollipopState:
    neighbors = lollipop_neighbors(g, start)
    if len(neighbors) != 1:
        raise GraphError("walk must start at a degree-one state")
    prev, cur = start, neighbors[0]
    for _ in range(budget):
        ns = lollipop_neighbors(g, cur)
        if len(ns) == 1:
            if ns[0] != prev:
                raise GraphError("state graph is not symmetric")
            return cur
        nxt = [t for t in ns if t != prev]
        if len(nxt) != 1:
            raise GraphError("state graph is not symmetric")
        prev, cur = cur, nxt[0]
    raise GraphError("lollipop walk exceeded its budget")


def _pinned_path(
    cycle: Sequence[int], fixed_edge: Tuple[int, int], orientation: int
) -> Tuple[int, ...]:
    """The cycle oriented to run along fixed_edge (reversed when
    ``orientation`` is 1) and rotated to start at the edge's first vertex."""
    a, b = fixed_edge[::-1] if orientation else fixed_edge
    cyc = tuple(cycle)
    directed = set(zip(cyc, cyc[1:] + cyc[:1]))
    if (a, b) in directed:
        oriented = cyc
    elif (b, a) in directed:
        oriented = cyc[::-1]
    else:
        raise GraphError("fixed edge is not on the cycle")
    i = oriented.index(a)
    return oriented[i:] + oriented[:i]


def second_hamiltonian(
    g: CubicGraph,
    cycle: Sequence[int],
    fixed_edge: Tuple[int, int],
    orientation: int = 0,
) -> Tuple[int, ...]:
    """Produce a second Hamiltonian cycle through fixed_edge.

    ``cycle`` lists the vertices in cyclic order (closing edge implied).
    ``orientation`` 0 starts the walk along fixed_edge as given, 1 along
    the reversed edge.  The result is a different Hamiltonian cycle through
    the same edge, normalized to start with it.
    """
    cyc = tuple(cycle)
    if len(cyc) != g.vertex_count or len(set(cyc)) != len(cyc):
        raise GraphError("input is not a Hamiltonian cycle")
    adj = g.adjacency()
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if b not in adj[a]:
            raise GraphError("cycle uses a non-edge")
    final = _walk_states(g, LollipopState(_pinned_path(cyc, fixed_edge, orientation)))
    if not g.has_edge(final.path[-1], final.path[0]):
        raise GraphError("walk ended at a state that closes no cycle")
    return final.path


def count_ham_cycles_through_edge(g: CubicGraph, edge: Tuple[int, int]) -> int:
    """Exact count of Hamiltonian cycles using the given edge."""
    return len(hamiltonian_cycles_through_edge(g, edge))


def hamiltonian_cycles_through_edge(
    g: CubicGraph, edge: Tuple[int, int]
) -> List[Tuple[int, ...]]:
    """All Hamiltonian cycles through the edge, as vertex tuples starting
    a, b.  Brute force, capped at 14 vertices: depth-first over simple paths
    that begin with the directed edge, so each undirected cycle through the
    edge is met exactly once."""
    if g.vertex_count > 14:
        raise GraphError("graph too large for exhaustive counting")
    a, b = edge
    if not g.has_edge(a, b):
        raise GraphError("no such edge")
    adj = g.adjacency()
    n = g.vertex_count
    cycles = []
    visited = [False] * n
    visited[a] = visited[b] = True
    prefix = [a, b]

    def extend(v: int) -> None:
        if len(prefix) == n:
            if a in adj[v]:
                cycles.append(tuple(prefix))
            return
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                prefix.append(w)
                extend(w)
                prefix.pop()
                visited[w] = False

    extend(b)
    return cycles


# ---------------------------------------------------------------------------
# The lollipop state space as an implicit family.


def lollipop_family(g: CubicGraph) -> Tuple[ImplicitFamily, int]:
    """Encode Hamiltonian-path states as bitstrings and expose the lollipop
    moves as an implicit family.

    A state packs the whole vertex sequence, vertex_count fields of
    ceil(log2 vertex_count) bits each.  The instance bitstring selects the
    fixed oriented edge (two vertex fields).  Undecodable strings are
    isolated vertices.  Returns the family and the per-vertex field width.
    """
    n = g.vertex_count
    w = max(1, (n - 1).bit_length())
    widths = tuple([w] * n)

    def decode(v: Bitstring) -> Optional[Tuple[int, ...]]:
        if v.width != n * w:
            return None
        path = unpack_fields(v.value, widths)
        if any(p >= n for p in path) or len(set(path)) != n:
            return None
        adj = g.adjacency()
        for x, y in zip(path, path[1:]):
            if y not in adj[x]:
                return None
        return path

    def encode(path: Sequence[int]) -> Bitstring:
        return Bitstring(pack_fields([(p, w) for p in path]), n * w)

    def neighbors(instance: Bitstring, v: Bitstring) -> Optional[List[Bitstring]]:
        if instance.width != 2 * w:
            return None
        a, b = unpack_fields(instance.value, (w, w))
        path = decode(v)
        if path is None or path[0] != a or path[1] != b:
            return []
        return [encode(t.path) for t in lollipop_neighbors(g, LollipopState(path))]

    return ImplicitFamily(neighbors), w


def lollipop_instance(
    g: CubicGraph, cycle: Sequence[int], fixed_edge: Tuple[int, int], orientation: int = 0
) -> Tuple[LeafInstance, int]:
    """LeafInstance whose walk reproduces second_hamiltonian, plus the
    vertex field width."""
    family, w = lollipop_family(g)
    path = _pinned_path(cycle, fixed_edge, orientation)
    start = Bitstring(pack_fields([(p, w) for p in path]), g.vertex_count * w)
    instance = Bitstring(pack_fields([(path[0], w), (path[1], w)]), 2 * w)
    return LeafInstance(family, instance, start), w
