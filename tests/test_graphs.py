"""Implicit leaf problems, cubic graphs, and the lollipop walk."""

import itertools
import random

import pytest

from ibx import graphs
from ibx.graphs import (
    CubicGraph,
    FamilyError,
    GraphError,
    ImplicitFamily,
    LeafInstance,
    LollipopState,
    complete_bipartite_k33,
    complete_graph_k4,
    count_ham_cycles_through_edge,
    cube_graph,
    cubic_graph,
    generalized_petersen,
    hamiltonian_cycles_through_edge,
    leaf_schedule,
    leaf_to_bijection,
    lollipop_family,
    lollipop_instance,
    lollipop_neighbors,
    petersen_graph,
    prism_graph,
    random_path_instance,
    second_hamiltonian,
    solve_leaf_walk,
)
from ibx.graphs import _pinned_path
from ibx.kernel import (
    Bitstring,
    check_bijection_exhaustive,
    iterate_bijection,
    pack_fields,
    unpack_fields,
)
from ibx.reductions import run_schedule

from conftest import logged, ring_family


def path_family(ids, k, counter=None):
    """Explicit path on the given vertex ids, optionally counting queries."""
    index = {v: i for i, v in enumerate(ids)}

    def neighbors(_, v):
        if counter is not None:
            counter[0] += 1
        i = index.get(v.value)
        if i is None:
            return []
        out = []
        if i > 0:
            out.append(Bitstring(ids[i - 1], k))
        if i + 1 < len(ids):
            out.append(Bitstring(ids[i + 1], k))
        return out

    return ImplicitFamily(neighbors)


def test_two_vertex_path():
    fam = path_family([0, 1], 1)
    inst = LeafInstance(fam, Bitstring(0, 1), Bitstring(0, 1))
    assert solve_leaf_walk(inst).value == 1


def test_ten_vertex_path():
    ids = [3, 7, 1, 9, 0, 4, 8, 2, 6, 5]
    fam = path_family(ids, 4)
    inst = LeafInstance(fam, Bitstring(0, 1), Bitstring(3, 4))
    assert solve_leaf_walk(inst).value == 5


def test_thousand_vertex_path_walks_exactly_once():
    ids = list(range(1000))
    counter = [0]
    fam = path_family(ids, 10, counter)
    inst = LeafInstance(fam, Bitstring(0, 1), Bitstring(0, 10))
    far = solve_leaf_walk(inst)
    assert far.value == 999
    # One query at the start plus one per edge traversed: 999 steps.
    assert counter[0] - 1 == 999


def test_walk_rejects_bad_start():
    fam = path_family([0, 1, 2], 2)
    inst = LeafInstance(fam, Bitstring(0, 1), Bitstring(1, 2))
    with pytest.raises(FamilyError):
        solve_leaf_walk(inst)


def asymmetric_family():
    """2-bit ids: 0 - 1 - 2, but 1 does not point back at 0."""
    table = {0: [1], 1: [2], 2: [1]}
    return ImplicitFamily(lambda _, v: [Bitstring(w, 2) for w in table.get(v.value, [])])


def test_walk_rejects_asymmetric_adjacency():
    inst = LeafInstance(asymmetric_family(), Bitstring(0, 1), Bitstring(0, 2))
    with pytest.raises(FamilyError):
        solve_leaf_walk(inst)


def test_walk_rejects_a_cycle():
    def neighbors(_, v):
        if v.value >= 4:
            return []
        return [Bitstring((v.value - 1) % 4, 3), Bitstring((v.value + 1) % 4, 3)]

    probe = ImplicitFamily(neighbors).query(Bitstring(0, 1), Bitstring(0, 3))
    assert probe is not None and len(probe) == 2
    # No degree-one vertex exists, so any start fails the walk's precondition.
    inst = LeafInstance(ImplicitFamily(neighbors), Bitstring(0, 1), Bitstring(0, 3))
    with pytest.raises(FamilyError):
        solve_leaf_walk(inst)


# Malformed answers about a 3-bit vertex, by the promise each breaks.
MALFORMED_ANSWERS = {
    "duplicates": lambda _, v: [Bitstring(1, 3), Bitstring(1, 3)],
    "self-loop": lambda _, v: [v],
    "self-loop second": lambda _, v: (Bitstring(1, 3), v),
    "too many": lambda _, v: [Bitstring(w, 3) for w in (1, 2, 3)],
    "wrong width": lambda _, v: [Bitstring(1, 4)],
    "wrong width second": lambda _, v: [Bitstring(1, 3), Bitstring(2, 2)],
    "int entry": lambda _, v: [1],
    "int entry second": lambda _, v: (Bitstring(1, 3), 2),
    # answers with no length: an int, and a generator of good neighbors
    "int": lambda _, v: 7,
    "generator": lambda _, v: (Bitstring(w, 3) for w in (1, 2)),
    "failure": lambda _, v: None,
}


def test_family_screens_malformed_responses():
    g, start = Bitstring(0, 1), Bitstring(0, 3)
    cases = [(name, answer, None, "neighbor oracle failed at the start vertex")
             for name, answer in MALFORMED_ANSWERS.items()]
    # an empty tuple is well formed: no neighbors, so no walk and no step
    cases.append(("empty tuple", lambda _, v: (), [], "start vertex does not have exactly one neighbor"))
    for name, answer, screened, message in cases:
        family = ImplicitFamily(answer)
        assert family.query(g, start) == screened, name
        with pytest.raises(FamilyError, match=f"^{message}$"):
            solve_leaf_walk(LeafInstance(family, g, start))
        f = leaf_to_bijection(family, g, 3)
        for x in (0, 1 << 3 | 2, 5 << 6 | 1 << 3 | 2):
            assert f.forward(x) == f.backward(x) == x, name


def reference_solve_leaf_walk(inst):
    """solve_leaf_walk as written before it ran on screened ids: the path
    walker over ImplicitFamily.query, one screened list of Bitstrings per
    vertex, compared with ==."""
    start = inst.start
    first = inst.family.query(inst.instance, start)
    if first is None:
        raise FamilyError("neighbor oracle failed at the start vertex")
    if len(first) != 1:
        raise FamilyError("start vertex does not have exactly one neighbor")
    prev, cur = start, first[0]
    for _ in range(1 << start.width):
        around = inst.family.query(inst.instance, cur)
        if around is None:
            raise FamilyError("neighbor oracle failed mid-walk")
        if prev not in around:
            raise FamilyError("adjacency is not symmetric along the walk")
        if len(around) == 1:
            return cur
        prev, cur = cur, around[0] if around[1] == prev else around[1]
    raise FamilyError("walk exceeded its step budget; component is not a path")


def _outcome(walk, inst):
    """The far end's (value, width), or the exception's class and message."""
    try:
        far = walk(inst)
    except Exception as e:  # compared, not swallowed: both walks must agree
        return type(e), str(e)
    return far.value, far.width


def _walk_instances():
    g = Bitstring(0, 1)
    for k in range(1, 13):
        rng = random.Random(k)
        for length in sorted({2, rng.randint(2, 1 << k), 1 << k}):
            ids = rng.sample(range(1 << k), length)
            for start in (ids[0], ids[-1], ids[length // 2]):
                yield LeafInstance(path_family(ids, k), g, Bitstring(start, k))
        if k >= 3:
            ids = rng.sample(range(1 << k), min(1 << k, 40))
            for fam in (broken_family(ids[:7], k), ring_family(ids, k)):
                for start in ids[:8]:
                    yield LeafInstance(fam, g, Bitstring(start, k))
    rng = random.Random(5)
    for _ in range(20):
        graph, cycle = _random_hamiltonian_cubic(rng.randrange(4, 13, 2), rng)
        i = rng.randrange(graph.vertex_count)
        for orientation in (0, 1):
            inst, _ = lollipop_instance(graph, cycle, (cycle[i], cycle[(i + 1) % len(cycle)]), orientation)
            yield inst
            yield inst._replace(start=Bitstring(rng.getrandbits(inst.start.width), inst.start.width))
    yield LeafInstance(asymmetric_family(), g, Bitstring(0, 2))
    for answer in (*MALFORMED_ANSWERS.values(), lambda _, v: ()):
        yield LeafInstance(ImplicitFamily(answer), g, Bitstring(0, 3))


def test_leaf_walk_matches_the_reference_walk():
    outcomes = set()
    for inst in _walk_instances():
        want = _outcome(reference_solve_leaf_walk, inst)
        assert _outcome(solve_leaf_walk, inst) == want, inst
        outcomes.add(want[1] if want[0] is FamilyError else "far end")
    # every outcome but the step budget occurs among the cases
    assert outcomes == {
        "far end",
        "neighbor oracle failed at the start vertex",
        "start vertex does not have exactly one neighbor",
        "neighbor oracle failed mid-walk",
        "adjacency is not symmetric along the walk",
    }, outcomes


def test_leaf_bijection_lands_on_far_leaf():
    ids = [5, 2, 7, 0, 3]
    k = 3
    fam = path_family(ids, k)
    f = leaf_to_bijection(fam, Bitstring(0, 1), k)
    assert f.width == 3 * k
    start = Bitstring((0 << 2 * k) | (ids[0] << k) | ids[1], 3 * k)
    final = iterate_bijection(f, 1 << k, start)
    assert (final.value >> k) & ((1 << k) - 1) == ids[-1]


def test_leaf_bijection_is_bijective_exhaustively():
    ids = [1, 3, 0]
    fam = path_family(ids, 2)
    f = leaf_to_bijection(fam, Bitstring(0, 1), 2)
    assert check_bijection_exhaustive(f).ok


def test_random_path_instance_round_trip(rng):
    for _ in range(5):
        inst = random_path_instance(8, rng)
        far = solve_leaf_walk(inst)
        k = inst.start.width
        f = leaf_to_bijection(inst.family, inst.instance, k)
        nb = inst.family.query(inst.instance, inst.start)
        start = Bitstring(
            (inst.start.value << k) | nb[0].value, 3 * k
        )
        final = iterate_bijection(f, 1 << k, start)
        assert (final.value >> k) & ((1 << k) - 1) == far.value


def test_leaf_schedule_starts_on_the_start_edge_and_answers_the_far_leaf(rng):
    for _ in range(20):
        k = rng.randint(1, 10)
        inst = random_path_instance(k, rng)
        sched = leaf_schedule(inst)
        nbr = inst.family.query(inst.instance, inst.start)[0]
        assert sched.start == Bitstring(pack_fields([(0, k), (inst.start.value, k), (nbr.value, k)]), 3 * k)
        assert sched.total_iterations == 1 << k
        assert run_schedule(sched) == solve_leaf_walk(inst)


@pytest.mark.parametrize("answer", [None, [], [Bitstring(2, 3), Bitstring(6, 3)], [Bitstring(2, 4)]])
def test_leaf_schedule_refuses_a_start_that_is_not_a_leaf(answer):
    # a failed query, an isolated start, a start inside the path and an
    # answer of the wrong width
    inst = LeafInstance(ImplicitFamily(lambda g, v: answer), Bitstring(0, 1), Bitstring(5, 3))
    with pytest.raises(FamilyError, match="start vertex is not a leaf"):
        leaf_schedule(inst)


def test_cubic_builders_validate():
    for g in (
        complete_graph_k4(),
        complete_bipartite_k33(),
        prism_graph(3),
        prism_graph(5),
        petersen_graph(),
        cube_graph(),
        generalized_petersen(6, 2),
    ):
        assert all(len(g.adjacency()[v]) == 3 for v in range(g.vertex_count))


def test_cubic_graph_rejects_bad_degree():
    with pytest.raises(GraphError):
        cubic_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 2-regular
    with pytest.raises(GraphError):
        cubic_graph(4, [(0, 1), (0, 1), (2, 3), (0, 2), (1, 3), (2, 3)])


def test_cubic_graph_checks_the_edge_count_first():
    # 3n/2 edges or nothing of size n is built (test_cli runs a billion
    # vertices in a child with a capped address space)
    with pytest.raises(GraphError, match="1 edges on 1000000 vertices"):
        cubic_graph(10**6, [(0, 1)])
    with pytest.raises(GraphError, match="not 3-regular"):
        cubic_graph(3, [(0, 1), (1, 2), (2, 0)])  # odd vertex count


def test_cubic_graph_rejects_disconnected():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    with pytest.raises(GraphError):
        cubic_graph(8, edges)


def test_k4_counts():
    # K4 has three Hamiltonian cycles; each edge lies on exactly two.
    g = complete_graph_k4()
    for e in g.edges:
        assert count_ham_cycles_through_edge(g, e) == 2


def test_cube_counts():
    # The 3-cube has six Hamiltonian cycles of eight edges each, spread
    # over twelve edges: 6*8/12 = 4 through every edge.
    g = cube_graph()
    for e in g.edges:
        assert count_ham_cycles_through_edge(g, e) == 4


def _counted_graphs():
    rng = random.Random(7)
    yield from (complete_graph_k4(), complete_bipartite_k33(), cube_graph(), petersen_graph())
    yield from (prism_graph(m) for m in range(3, 8))
    for n in range(6, 15, 2):
        for _ in range(3):
            yield _random_hamiltonian_cubic(n, rng)[0]


def test_edge_counts_equal_the_per_edge_search(monkeypatch):
    searches = []
    search = graphs.hamiltonian_cycles_through_edge
    monkeypatch.setattr(graphs, "hamiltonian_cycles_through_edge",
                        lambda g, edge: searches.append(edge) or search(g, edge))
    for g in _counted_graphs():
        searches.clear()
        for u, v in g.edges:
            for edge in ((u, v), (v, u)):
                assert count_ham_cycles_through_edge(g, edge) == len(hamiltonian_cycles_through_edge(g, edge))
        # one enumeration of the graph's cycles, in at most two searches
        assert len(searches) <= 2, searches


def test_edge_counts_reject_what_the_search_rejects():
    # too large is reported before a missing edge, as the search does
    big, k4 = prism_graph(8), complete_graph_k4()
    for g, edge, message in ((big, (0, 1), "too large"), (big, (0, 5), "too large"),
                             (k4, (0, 0), "no such edge"), (k4, (0, 7), "no such edge"),
                             (k4, (-1, 2), "no such edge")):
        for count in (count_ham_cycles_through_edge, hamiltonian_cycles_through_edge):
            with pytest.raises(GraphError, match=message):
                count(g, edge)


def test_petersen_has_no_hamiltonian_cycle():
    g = petersen_graph()
    for e in g.edges:
        assert count_ham_cycles_through_edge(g, e) == 0


def test_second_hamiltonian_on_k4():
    g = complete_graph_k4()
    cycle = (0, 1, 2, 3)
    for edge in [(0, 1), (1, 2), (3, 0)]:
        other = second_hamiltonian(g, cycle, edge)
        assert sorted(other) == [0, 1, 2, 3]
        pairs = set(zip(other, other[1:] + other[:1]))
        assert edge in pairs or edge[::-1] in pairs
        assert set(zip(cycle, cycle[1:] + cycle[:1])) != pairs


def test_second_hamiltonian_orientations_on_cube():
    g = cube_graph()
    cycles = hamiltonian_cycles_through_edge(g, g.edges[0])
    assert cycles
    first = cycles[0]
    for orientation in (0, 1):
        other = second_hamiltonian(g, first, g.edges[0], orientation)
        assert sorted(other) == list(range(8))
        pairs = {frozenset(p) for p in zip(other, other[1:] + other[:1])}
        assert frozenset(g.edges[0]) in pairs
        first_pairs = {frozenset(p) for p in zip(first, first[1:] + first[:1])}
        assert pairs != first_pairs


def test_second_hamiltonian_rejects_non_cycles():
    g = complete_graph_k4()
    with pytest.raises(GraphError):
        second_hamiltonian(g, (0, 1, 2), (0, 1))
    with pytest.raises(GraphError):
        second_hamiltonian(g, (0, 2, 1, 3), (0, 1))  # edge not on the cycle


def test_lollipop_instance_walk_terminates():
    g = cube_graph()
    cycles = hamiltonian_cycles_through_edge(g, g.edges[0])
    inst, _ = lollipop_instance(g, cycles[0], g.edges[0])
    far = solve_leaf_walk(inst)
    assert far != inst.start


def _reference_leaf_walk(family, instance, k):
    """leaf_to_bijection's step as a literal loop body: fields unpacked and
    packed by the kernel, and every vertex asked about on every step."""
    mask = (1 << k) - 1

    def query_vals(value):
        out = family.query(instance, Bitstring(value, k))
        return None if out is None else [w.value for w in out]

    def mutual(a, na, b, nb):
        return na is not None and nb is not None and b in na and a in nb

    def fwd(x):
        n, v, w = unpack_fields(x, (k, k, k))
        nv, nw = query_vals(v), query_vals(w)
        if not mutual(v, nv, w, nw):
            return x
        if n > 0:
            if len(nv) == 1:
                return pack_fields([((n + 1) & mask, k), (v, k), (w, k)])
            return x
        if len(nw) == 1:
            return pack_fields([(1, k), (w, k), (v, k)])
        u = nw[0] if nw[1] == v else nw[1]
        nu = query_vals(u)
        if not mutual(w, nw, u, nu):
            return x
        return pack_fields([(0, k), (w, k), (u, k)])

    def back(x):
        m, p, q = unpack_fields(x, (k, k, k))
        np_, nq = query_vals(p), query_vals(q)
        if not mutual(p, np_, q, nq):
            return x
        if len(np_) == 1:
            if m == 1:
                return pack_fields([(0, k), (q, k), (p, k)])
            return pack_fields([((m - 1) & mask, k), (p, k), (q, k)])
        if m == 0:
            v = np_[0] if np_[1] == q else np_[1]
            nv = query_vals(v)
            if not mutual(v, nv, p, np_):
                return x
            return pack_fields([(0, k), (v, k), (p, k)])
        return x

    return fwd, back


def broken_family(ids, k):
    """A path on ids with three broken promises: ids[2] does not point back
    at ids[1], ids[4] lists itself, and the oracle fails (None) at ids[-2]."""
    good = path_family(ids, k)

    def neighbors(g, v):
        if v.value == ids[-2]:
            return None
        out = good.neighbors(g, v)
        if v.value == ids[2]:
            return [w for w in out if w.value != ids[1]]
        if v.value == ids[4]:
            return out + [v]
        return out

    return ImplicitFamily(neighbors)


def _leaf_families(k):
    ids = random.Random(k).sample(range(1 << k), 1 << k)
    good = [(path_family(ids[:n], k), True) for n in (2, 3, 5, 1 << k)]
    return good + [(broken_family(ids[:7], k), False)]


@pytest.mark.parametrize("k", [3, 4])
def test_leaf_bijection_matches_the_literal_reference(k):
    g = Bitstring(0, 1)
    for fam, well_formed in _leaf_families(k):
        f = leaf_to_bijection(fam, g, k)
        ref_fwd, ref_back = _reference_leaf_walk(fam, g, k)
        for x in range(1 << 3 * k):
            assert f.forward(x) == ref_fwd(x)
            assert f.backward(x) == ref_back(x)
        if well_formed:
            assert check_bijection_exhaustive(f).ok


def _table_powers(table, counts):
    """The literal n-th power of a step table for each n in counts, in
    increasing order: one composition per step."""
    power, done = list(range(len(table))), 0
    for n in sorted(set(counts)):
        for _ in range(n - done):
            power = [table[y] for y in power]
        done = n
        yield n, power


@pytest.mark.parametrize("k", [2, 3, 4])
def test_leaf_leaps_equal_the_literal_walk(k):
    # every state, waiting or not, on well-formed and broken paths
    size, g = 1 << k, Bitstring(0, 1)
    families = [random_path_instance(k, random.Random(seed)).family for seed in range(2)]
    families.append(ring_family(random.Random(k).sample(range(size), size), k))
    if k > 2:
        families += [fam for fam, _ in _leaf_families(k)[1:]]
    counts = (0, 1, 2, 5, size - 1, size, size + 3, 3 * size, 7 * size)
    states = [Bitstring(x, 3 * k) for x in range(1 << 3 * k)]
    for fam in families:
        f = leaf_to_bijection(fam, g, k)
        for sign, step in ((1, f.forward), (-1, f.backward)):
            for n, want in _table_powers([step(x.value) for x in states], counts):
                got = [iterate_bijection(f, sign * n, x).value for x in states]
                assert got == want, (sign * n, fam)


@pytest.mark.parametrize("k, length", [(4, 2), (4, 9), (4, 16), (6, 40), (62, 40)])
def test_leaf_walk_asks_each_vertex_once(k, length):
    ids = random.Random(length).sample(range(1 << k), length)
    counter, moves = [0], []
    f = leaf_to_bijection(path_family(ids, k, counter), Bitstring(0, 1), k)
    step, back, leap = logged(moves, f.forward, f.backward, f.leap, ticks=True)
    f = f._replace(forward=step, backward=back, leap=leap)
    start = Bitstring((ids[0] << k) | ids[1], 3 * k)
    end = iterate_bijection(f, 1 << k, start)
    assert (end.value >> k) & ((1 << k) - 1) == ids[-1]
    # One call per vertex on the path; the waiting steps ask nothing.
    assert counter[0] <= length + 2
    # one run walks the path, one or two wait: no move per walking step
    assert len(moves) <= 3 and sum(moves) == 1 << k, moves
    counter[0], moves[:] = 0, []
    assert iterate_bijection(f, -(1 << k), end) == start
    assert counter[0] <= length + 2
    assert len(moves) <= 3 and sum(moves) == 1 << k, moves


def test_leaf_runs_reuse_the_edge_they_stop_on():
    # a map remembers the answers for its last run's stop edge, where the
    # next run, forward or back, starts: that run asks only about vertices
    # it steps onto
    k, length = 6, 20
    ids, counter = random.Random(length).sample(range(1 << k), length), [0]
    f = leaf_to_bijection(path_family(ids, k, counter), Bitstring(0, 1), k)

    def asked(move, *args):
        counter[0] = 0
        out = move(*args)
        return out, counter[0]

    x, calls = asked(f.forward, ids[0] << k | ids[1])
    assert calls == 3
    for move in (f.forward, f.backward, f.backward, f.forward, f.forward):
        x, calls = asked(move, x)
        assert calls <= 1, move
    (y, j), calls = asked(f.leap, x, 1 << k)
    assert y == 1 << 2 * k | ids[-1] << k | ids[-2] and calls == length - 4
    # waiting at the leaf it stopped on asks nothing, either way
    for move, args in ((f.forward, (y,)), (f.backward, (y,)), (f.leap, (y, 5)), (f.leap, (y, -5))):
        assert asked(move, *args)[1] == 0, move
    # nor does a second run from a state that stood still
    z = leaf_to_bijection(path_family(ids, k, counter), Bitstring(0, 1), k)
    waiting = 5 << 2 * k | ids[-1] << k | ids[-2]
    assert [asked(z.forward, waiting)[1], asked(z.backward, waiting)[1]] == [2, 0]


def test_leaf_run_on_a_ring_stops_on_its_start_edge():
    # a ring has no leaf: a run of any length walks at most once round it
    k, length = 20, 50
    ids = random.Random(length).sample(range(1 << k), length)
    ring, calls = ring_family(ids, k), []

    def neighbors(g, v):
        calls.append(v)
        assert len(calls) <= 3 * length, "the run walked past its start edge"
        return ring.neighbors(g, v)

    f = leaf_to_bijection(ImplicitFamily(neighbors), Bitstring(0, 1), k)
    x = ids[0] << k | ids[1]
    for r in (10**20, -(10**20)):
        calls.clear()
        assert f.leap(x, r) == (x, length)
    n = 10**20 + 7
    assert iterate_bijection(f, n, Bitstring(x, 3 * k)).value == ids[n % length] << k | ids[(n + 1) % length]


def test_generalized_petersen_needs_no_dedupe():
    # The builder once dropped repeated inner edges; none can occur, because
    # two inner edges coincide only when 2 * step == n, which it rejects.
    for n in range(3, 13):
        for step in range(1, n):
            if 2 * step == n:
                continue
            edges, seen = [], set()
            for i in range(n):
                for u, v in ((i, (i + 1) % n), (n + i, n + (i + step) % n), (i, n + i)):
                    key = (min(u, v), max(u, v))
                    if key not in seen:
                        seen.add(key)
                        edges.append((u, v))
            assert generalized_petersen(n, step).edges == tuple(edges)


def test_out_of_range_vertices_are_rejected():
    g = complete_graph_k4()
    for u, v in ((-1, 3), (3, -1), (7, 0), (0, 7), (4, 0)):
        assert not g.has_edge(u, v)
    for path in ((7, 0, 1, 2), (-1, 0, 1, 2), (0, 1, 2, 4)):
        with pytest.raises(GraphError):
            lollipop_neighbors(g, LollipopState(path))
    with pytest.raises(GraphError):
        second_hamiltonian(g, (7, 0, 1, 2), (0, 1))


def _reference_walk_states(g, start, budget=10_000_000):
    """The lollipop walk as it was written before it shared the leaf walker."""
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


def _random_hamiltonian_cubic(n, rng):
    """A cubic graph on n vertices built around a known Hamiltonian cycle,
    with scrambled labels; returns the graph and that cycle."""
    ring = {frozenset((i, (i + 1) % n)) for i in range(n)}
    while True:
        order = rng.sample(range(n), n)
        chords = [frozenset(order[i:i + 2]) for i in range(0, n, 2)]
        if not ring & set(chords):
            break
    label = rng.sample(range(n), n)
    edges = [tuple(label[v] for v in sorted(e)) for e in ring | set(chords)]
    return cubic_graph(n, sorted(edges)), tuple(label)


def test_second_hamiltonian_matches_the_reference_walk():
    rng = random.Random(13)
    for _ in range(300):
        g, cycle = _random_hamiltonian_cubic(rng.randrange(4, 23, 2), rng)
        i = rng.randrange(g.vertex_count)
        edge = (cycle[i], cycle[(i + 1) % len(cycle)])
        for orientation in (0, 1):
            path = _pinned_path(cycle, edge, orientation)
            expected = _reference_walk_states(g, LollipopState(path)).path
            assert second_hamiltonian(g, cycle, edge, orientation) == expected


def _reference_lollipop_neighbors(g):
    """lollipop_family's neighbor function as it was written with its own
    decoder, before LollipopState.validate became the only state check."""
    n = g.vertex_count
    w = max(1, (n - 1).bit_length())
    widths = tuple([w] * n)

    def decode(v):
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

    def neighbors(instance, v):
        if instance.width != 2 * w:
            return None
        a, b = unpack_fields(instance.value, (w, w))
        path = decode(v)
        if path is None or path[0] != a or path[1] != b:
            return []
        return [
            Bitstring(pack_fields([(p, w) for p in t.path]), n * w)
            for t in lollipop_neighbors(g, LollipopState(path))
        ]

    return neighbors


@pytest.mark.parametrize("graph", [complete_graph_k4, complete_bipartite_k33, cube_graph])
def test_lollipop_family_matches_the_reference_decoder(graph):
    g = graph()
    family, w = lollipop_family(g)
    reference = _reference_lollipop_neighbors(g)
    n = g.vertex_count
    rng = random.Random(n)
    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            instance = Bitstring(pack_fields([(x, w), (y, w)]), 2 * w)
            if n * w <= 8:
                values = range(1 << n * w)
            else:
                # Random strings are almost never paths, so take every
                # ordering that starts on the pinned edge, plus a sample.
                rest = [v for v in range(n) if v not in (x, y)]
                orders = [(x, y, *q) for q in itertools.permutations(rest)]
                values = [pack_fields([(p, w) for p in q]) for q in orders]
                values += [rng.getrandbits(n * w) for _ in range(300)]
            for value in values:
                v = Bitstring(value, n * w)
                assert family.neighbors(instance, v) == reference(instance, v)
        for v in (Bitstring(0, n * w - 1), Bitstring(0, n * w + 1)):
            assert family.neighbors(instance, v) == reference(instance, v)
        assert family.neighbors(Bitstring(0, 2 * w + 1), v) is None
