"""Implicit leaf problems, cubic graphs, and the lollipop walk."""

import random

import pytest

from ibx.graphs import (
    CubicGraph,
    FamilyError,
    GraphError,
    ImplicitFamily,
    LeafInstance,
    complete_bipartite_k33,
    complete_graph_k4,
    count_ham_cycles_through_edge,
    cube_graph,
    cubic_graph,
    generalized_petersen,
    hamiltonian_cycles_through_edge,
    leaf_to_bijection,
    lollipop_instance,
    petersen_graph,
    prism_graph,
    random_path_instance,
    second_hamiltonian,
    solve_leaf_walk,
)
from ibx.kernel import (
    Bitstring,
    check_bijection_exhaustive,
    iterate_bijection,
    pack_fields,
    unpack_fields,
)


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


def test_walk_rejects_asymmetric_adjacency():
    def neighbors(_, v):
        table = {0: [1], 1: [2], 2: [1]}  # 1 does not point back at 0
        return [Bitstring(w, 2) for w in table.get(v.value, [])]

    inst = LeafInstance(ImplicitFamily(neighbors), Bitstring(0, 1), Bitstring(0, 2))
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


def test_family_screens_malformed_responses():
    def neighbors(_, v):
        return [Bitstring(1, 3), Bitstring(1, 3)]  # duplicates

    assert ImplicitFamily(neighbors).query(Bitstring(0, 1), Bitstring(0, 3)) is None

    def self_loop(_, v):
        return [v]

    assert ImplicitFamily(self_loop).query(Bitstring(0, 1), Bitstring(2, 3)) is None

    def too_many(_, v):
        return [Bitstring(w, 3) for w in (1, 2, 3)]

    assert ImplicitFamily(too_many).query(Bitstring(0, 1), Bitstring(0, 3)) is None


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


@pytest.mark.parametrize("k, length", [(4, 2), (4, 9), (4, 16), (6, 40)])
def test_leaf_walk_asks_each_vertex_once(k, length):
    ids = random.Random(length).sample(range(1 << k), length)
    counter = [0]
    f = leaf_to_bijection(path_family(ids, k, counter), Bitstring(0, 1), k)
    start = Bitstring((ids[0] << k) | ids[1], 3 * k)
    end = iterate_bijection(f, 1 << k, start)
    assert (end.value >> k) & ((1 << k) - 1) == ids[-1]
    # One call per vertex on the path; the waiting steps ask nothing.
    assert counter[0] <= length + 2
    counter[0] = 0
    assert iterate_bijection(f, -(1 << k), end) == start
    assert counter[0] <= length + 2
