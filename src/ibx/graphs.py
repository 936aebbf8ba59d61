"""Leaf-finding in implicit bounded-degree graphs, and Thomason's
lollipop walk on cubic graphs.

An implicit family answers neighbor queries about an exponentially large
graph; the only promises are that every vertex has at most two neighbors and
that adjacency is symmetric.  Walking from a degree-one vertex to the other
end of its path component is the basic search problem here, and
leaf_schedule repackages that walk as iterating leaf_to_bijection's map.

The lollipop machinery instantiates the same shape on an explicit cubic
graph whose implicit vertices are Hamiltonian paths: second_hamiltonian
walks them with the same path walker as solve_leaf_walk, and
LollipopState.validate is the one test of whether a state is valid.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from .kernel import Bijection, Bitstring, _Frozen, one_move, pack_fields, unpack_fields

if TYPE_CHECKING:
    from .reductions import Schedule


class FamilyError(ValueError):
    """The neighbor function broke one of its promises."""


class GraphError(ValueError):
    pass


NeighborFn = Callable[[Bitstring, Bitstring], Optional[List[Bitstring]]]


# A screened neighbor list as vertex ids, or None for a broken promise.
_Nbrs = Optional[Tuple[int, ...]]


def _screen(out: Any, v: int, k: int) -> _Nbrs:
    """An oracle answer about vertex id v, screened to the ids of its
    neighbors: a tuple of at most two distinct k-bit ids, none equal to v.

    Anything else is a broken promise and gives None: an answer that is not
    a list or tuple, more than two entries, an entry that is not a
    ``Bitstring`` of width k, a duplicate, or a self-loop.  The only screen
    of a neighbor answer; ``ImplicitFamily.query`` and both leaf walks call
    it.
    """
    if not isinstance(out, (list, tuple)) or len(out) > 2:
        return None
    if not out:
        return ()
    a = out[0]
    if not isinstance(a, Bitstring) or a.width != k or a.value == v:
        return None
    if len(out) == 1:
        return (a.value,)
    b = out[1]
    if not isinstance(b, Bitstring) or b.width != k or b.value == v or b.value == a.value:
        return None
    return (a.value, b.value)


class ImplicitFamily(NamedTuple):
    """Neighbor oracle for a family of graphs with maximum degree two.

    ``neighbors(G, v)`` returns the ordered neighbor list of v in the graph
    selected by G, or None for an outright failure.  query() additionally
    screens the response: anything of the wrong shape (not a list or tuple,
    more than two entries, duplicates, a self-loop, a width mismatch) is
    reported as None so callers can treat it uniformly as a broken promise.
    That screen (``_screen``) is the one both leaf walks use: it turns an
    answer into the neighbors' int ids, and the walks run on those ids,
    building a ``Bitstring`` only as an oracle argument and at their public
    edges.

    ``neighbors`` must be a deterministic function of its arguments: the
    same (G, v) always gets the same answer.  leaf_to_bijection relies on
    this when it reuses an answer instead of asking again.
    """

    neighbors: NeighborFn

    def query(self, instance: Bitstring, v: Bitstring) -> Optional[List[Bitstring]]:
        out = self.neighbors(instance, v)
        return None if _screen(out, v.value, v.width) is None else list(out)


class LeafInstance(NamedTuple):
    family: ImplicitFamily
    instance: Bitstring
    start: Bitstring


def _walk_path(
    neighbors: Callable[[Any], Optional[Tuple[Sequence[Any], Sequence[Any]]]],
    start_id: Any,
    start: Any,
    budget: int,
    error: Type[ValueError],
) -> Any:
    """Walk from the degree-one vertex start to the far end of its path.

    neighbors(v) answers a pair (ids, vertices) listing v's at most two
    neighbors, or None for a failed query: ids are compared with ==, and
    the vertex at the same place is what neighbors is asked about next.
    start_id is start's own id.  The walk never steps back onto the vertex
    it came from, so on a path it is forced.  A failed query, a start that
    is not degree one, a missing back-edge, or more than budget steps (a
    cycle) raises error.  Returns the far end's vertex.
    """
    first = neighbors(start)
    if first is None:
        raise error("neighbor oracle failed at the start vertex")
    ids, vertices = first
    if len(ids) != 1:
        raise error("start vertex does not have exactly one neighbor")
    prev, cur, vertex = start_id, ids[0], vertices[0]
    for _ in range(budget):
        around = neighbors(vertex)
        if around is None:
            raise error("neighbor oracle failed mid-walk")
        ids, vertices = around
        if prev not in ids:
            raise error("adjacency is not symmetric along the walk")
        if len(ids) == 1:
            return vertex
        i = 0 if ids[1] == prev else 1
        prev, cur, vertex = cur, ids[i], vertices[i]
    raise error("walk exceeded its step budget; component is not a path")


def solve_leaf_walk(inst: LeafInstance) -> Bitstring:
    """Walk from a degree-one vertex to the far end of its path component.

    Each answer goes through the one screen to ids; the walk compares ids
    and asks next about the oracle's own neighbor ``Bitstring``, so it
    builds none itself.  Raises FamilyError when the oracle misbehaves:
    failure responses, a start vertex that is not degree one, a missing
    back-edge, or a walk that outlives the vertex space (a cycle).
    """
    ask, instance, k = inst.family.neighbors, inst.instance, inst.start.width

    def neighbors(v: Bitstring) -> Optional[Tuple[Tuple[int, ...], Any]]:
        out = ask(instance, v)
        ids = _screen(out, v.value, k)
        return None if ids is None else (ids, out)

    return _walk_path(
        neighbors,
        inst.start.value,
        inst.start,
        1 << k,  # distinct vertices available; longer means a loop
        FamilyError,
    )


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

    The map runs on int ids: each answer goes through the one screen to ids
    (``_screen``), and a ``Bitstring`` is built only as the oracle's
    argument.  The oracle must be a deterministic function of its
    arguments.  Each map remembers the screened answers for the two
    vertices of the edge its last run stopped on, where the next run,
    forward or through R, starts; so a walking step asks the oracle only
    about the vertex it steps onto and a waiting step asks nothing.  With
    an oracle whose answers change between calls the map would act on
    stale answers.

    The map is stated once, as a forward run of r >= 1 steps (its leap, see
    ``kernel.iterate_map``): a fixed point takes all r at once, a waiting
    counter climbs to 2**k - 1 in one move and wraps to walking in the
    next, and a walker walks until r runs out, it steps onto a leaf, it
    sticks at an inconsistent vertex, or it is back on its start edge (a
    cycle component).  So no run walks more than 2**k steps, and a 2**k-step
    run costs about one walk of the path.  The step back, and a run back,
    is R . run . R, where the involution R sends (n, v, w) to
    (-n mod 2**k, v, w) when n != 0 and (0, v, w) to (0, w, v), counting a
    wait down and turning a walker round.  That signed move always answers,
    so ``kernel.one_move`` builds the map from it, the step and step back
    its moves of 1 and -1.
    """
    if k <= 0:
        raise GraphError("vertex width must be positive")
    mask = (1 << k) - 1
    k2 = 2 * k
    edge = (1 << k2) - 1
    neighbors = family.neighbors
    stop: Dict[int, _Nbrs] = {}  # the answers for the last run's stop edge

    def ask(u: int) -> _Nbrs:
        return _screen(neighbors(instance, Bitstring(u, k)), u, k)

    def run(x: int, r: int) -> Tuple[int, int]:
        nonlocal stop
        n, v, w = x >> k2 & mask, x >> k & mask, x & mask
        nv = stop[v] if v in stop else ask(v)
        nw = stop[w] if w in stop else ask(w)
        stop = {v: nv, w: nw}  # a run that does not walk stops on its edge
        if nv is None or nw is None or w not in nv or v not in nw or n and len(nv) != 1:
            return x, r  # inconsistent, or waiting off a leaf: a fixed point
        if n:
            j = min(r, mask - n) or 1  # at 2**k - 1, one tick wraps to walking
            return (n + j & mask) << k2 | x & edge, j
        for j in range(1, r + 1):
            if len(nw) == 1:
                y = 1 << k2 | w << k | v  # onto a leaf: turn and wait
                break
            u = nw[0] if nw[1] == v else nw[1]
            nu = ask(u)
            if nu is None or w not in nu:
                y, j = v << k | w, r  # stuck: a fixed point from here on
                break
            v, w, nv, nw = w, u, nw, nu
            if v << k | w == x:
                y = x  # round a cycle component to the start edge
                break
        else:
            y, j = v << k | w, r
        stop = {v: nv, w: nw}
        return y, j

    def reverse(x: int) -> int:
        # R: a waiting counter counts down, a walker turns round
        n = x >> k2 & mask
        return (-n & mask) << k2 | x & edge if n else (x & mask) << k | x >> k & mask

    def leap(x: int, r: int) -> Tuple[int, int]:
        if r > 0:
            return run(x, r)
        y, j = run(reverse(x), -r)
        return reverse(y), j

    return one_move(3 * k, leap, f"leaf-walk[{k}]")


def leaf_schedule(inst: LeafInstance) -> Schedule:
    """The leaf walk as a ``reductions.Schedule``: leaf_to_bijection's map
    run 2**k steps from (0, start, its neighbor), answered by the v field,
    the far leaf.  FamilyError when the start is not a leaf of the oracle."""
    from .reductions import Schedule

    k = inst.start.width
    nbrs = inst.family.query(inst.instance, inst.start)
    if nbrs is None or len(nbrs) != 1:
        raise FamilyError("start vertex is not a leaf: its neighbor query failed or named other than one")
    f = leaf_to_bijection(inst.family, inst.instance, k)
    state = Bitstring(pack_fields([(0, k), (inst.start.value, k), (nbrs[0].value, k)]), 3 * k)
    return Schedule(f, 1 << k, state, lambda final: Bitstring(unpack_fields(final.value, (k, k, k))[1], k))


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
    if length < 2:
        raise GraphError(f"path length {length} is too short: a path has at least 2 vertices")
    if length > space:
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


class CubicGraph(_Frozen):
    """A connected 3-regular graph on vertices [0, vertex_count), checked
    at construction, with its sorted adjacency kept in ``_adj``."""

    _fields = ("vertex_count", "edges")
    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: Tuple[Tuple[int, int], ...]) -> None:
        n = vertex_count
        if n < 1:
            raise GraphError(f"a cubic graph needs at least one vertex, got {n}")
        # 3n/2 edges, checked before anything of size n is allocated
        if 2 * len(edges) != 3 * n:
            raise GraphError(f"graph is not 3-regular: {len(edges)} edges on {n} vertices")
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e} out of range")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        lists: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            lists[u].append(v)
            lists[v].append(u)
        if any(len(a) != 3 for a in lists):
            raise GraphError("graph is not 3-regular")
        adj = tuple(tuple(sorted(a)) for a in lists)
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
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)

    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.vertex_count and v in self._adj[u]


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
    return generalized_petersen(m, 1)


def generalized_petersen(n: int, step: int) -> CubicGraph:
    """Outer n-cycle, inner n-cycle with stride ``step``, plus spokes."""
    if n < 3 or not 1 <= step < n or 2 * step == n:
        raise GraphError("generalized Petersen parameters out of range")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + step) % n))
        edges.append((i, n + i))
    return cubic_graph(2 * n, edges)


def petersen_graph() -> CubicGraph:
    return generalized_petersen(5, 2)


def cube_graph() -> CubicGraph:
    return prism_graph(4)


class LollipopState(NamedTuple):
    """A Hamiltonian path whose first edge is the pinned oriented edge.

    path[0] is the fixed start vertex and (path[0], path[1]) the fixed
    oriented edge shared by every state reachable from this one.
    """

    path: Tuple[int, ...]

    def validate(self, g: CubicGraph) -> None:
        n = g.vertex_count
        if len(self.path) != n:
            raise GraphError("path does not visit every vertex")
        if any(not 0 <= v < n for v in self.path):
            raise GraphError("path leaves the vertex range")
        if len(set(self.path)) != n:
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
    out = []
    for y in g.adjacency()[z]:
        if y == path[-2]:
            continue
        i = position[y]
        if i == 0:
            continue  # closing edge: a Hamiltonian cycle, not a new path
        out.append(LollipopState(path[: i + 1] + path[:i:-1]))
    out.sort(key=lambda t: t.path[-1])
    return out


# Steps the second-cycle walk may take before it reports a cycle of states.
_LOLLIPOP_BUDGET = 10_000_000


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
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(a, b):
            raise GraphError("cycle uses a non-edge")
    def neighbors(s: LollipopState) -> Tuple[List[LollipopState], List[LollipopState]]:
        out = lollipop_neighbors(g, s)
        return out, out

    start = LollipopState(_pinned_path(cyc, fixed_edge, orientation))
    final = _walk_path(
        neighbors,
        start,
        start,
        _LOLLIPOP_BUDGET,
        GraphError,
    )
    if not g.has_edge(final.path[-1], final.path[0]):
        raise GraphError("walk ended at a state that closes no cycle")
    return final.path


def count_ham_cycles_through_edge(g: CubicGraph, edge: Tuple[int, int]) -> int:
    """Exact count of Hamiltonian cycles using the given edge.

    The count is read from a tally, kept on the graph, of how many
    Hamiltonian cycles use each edge.  One enumeration of the graph's
    Hamiltonian cycles fills it, so the counts of all 3n/2 edges cost two
    searches: every cycle leaves vertex 0 along two of its edges (0, a),
    (0, b), (0, c), so it is either a cycle through (0, a) or one through
    (0, b) that closes along (0, c).  Same cap and errors as
    ``hamiltonian_cycles_through_edge``, the per-edge reference.
    """
    a, b = _searchable_edge(g, edge)
    tally = g.__dict__.get("_cycle_tally")
    if tally is None:
        first, second, _ = g.adjacency()[0]
        cycles = hamiltonian_cycles_through_edge(g, (0, first))
        cycles += [c for c in hamiltonian_cycles_through_edge(g, (0, second)) if c[-1] != first]
        tally = dict.fromkeys([(min(e), max(e)) for e in g.edges], 0)
        for c in cycles:
            for u, v in zip(c, c[1:] + c[:1]):
                tally[min(u, v), max(u, v)] += 1
        object.__setattr__(g, "_cycle_tally", tally)
    return tally[min(a, b), max(a, b)]


def _searchable_edge(g: CubicGraph, edge: Tuple[int, int]) -> Tuple[int, int]:
    """The edge's two ends, once the graph is small enough to search
    exhaustively (at most 14 vertices) and the edge is one of its edges."""
    if g.vertex_count > 14:
        raise GraphError("graph too large for exhaustive counting")
    a, b = edge
    if not g.has_edge(a, b):
        raise GraphError("no such edge")
    return a, b


def hamiltonian_cycles_through_edge(
    g: CubicGraph, edge: Tuple[int, int]
) -> List[Tuple[int, ...]]:
    """All Hamiltonian cycles through the edge, as vertex tuples starting
    a, b.  Brute force, capped at 14 vertices: depth-first over simple paths
    that begin with the directed edge, so each undirected cycle through the
    edge is met exactly once."""
    a, b = _searchable_edge(g, edge)
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

    def encode(path: Sequence[int]) -> Bitstring:
        return Bitstring(pack_fields([(p, w) for p in path]), n * w)

    def neighbors(instance: Bitstring, v: Bitstring) -> Optional[List[Bitstring]]:
        if instance.width != 2 * w:
            return None
        if v.width != n * w:
            return []
        path = unpack_fields(v.value, widths)
        if path[:2] != unpack_fields(instance.value, (w, w)):
            return []
        try:
            moves = lollipop_neighbors(g, LollipopState(path))
        except GraphError:
            return []
        return [encode(t.path) for t in moves]

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
