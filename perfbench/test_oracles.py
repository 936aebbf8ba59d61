"""Tests of the benchmark's own oracles and checkers.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py -q

The oracles are checked against small cases worked by hand; each
workload's checker must pass the package's real answers and reject a
deliberately wrong one.
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cli_workload  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from ibx import circuits, kernel  # noqa: E402


# ---------------------------------------------------------------------------
# Oracles against hand-worked cases.


def test_perm_power_by_squaring():
    three_cycle = [1, 2, 0]
    assert oracles.perm_power(three_cycle, 0).tolist() == [0, 1, 2]
    assert oracles.perm_power(three_cycle, 1).tolist() == [1, 2, 0]
    assert oracles.perm_power(three_cycle, 2).tolist() == [2, 0, 1]
    assert oracles.perm_power(three_cycle, 3).tolist() == [0, 1, 2]
    assert oracles.perm_power(three_cycle, -1).tolist() == [2, 0, 1]
    # 10**100 = 1 mod 3
    assert oracles.perm_power(three_cycle, 10 ** 100).tolist() == [1, 2, 0]
    assert oracles.perm_power([1, 0, 3, 4, 2], 6).tolist() == [0, 1, 2, 3, 4]


def test_gate_tables_follow_the_wire_convention():
    # wire 0 is the most significant bit
    assert oracles.gate_table([("not", (0,))], 2).tolist() == [2, 3, 0, 1]
    assert oracles.gate_table([("swap", (0, 1))], 2).tolist() == [0, 2, 1, 3]
    assert oracles.gate_table([("cnot", (0, 1))], 2).tolist() == [0, 1, 3, 2]
    assert oracles.gate_table([("toffoli", (0, 1, 2))], 3).tolist() == [0, 1, 2, 3, 4, 5, 7, 6]
    assert oracles.gate_table([("fredkin", (0, 1, 2))], 3).tolist() == [0, 1, 2, 3, 4, 6, 5, 7]


def test_parity_and_cycles():
    assert oracles.perm_parity([1, 0, 2]) == "odd"
    assert oracles.perm_parity([1, 2, 0]) == "even"
    assert oracles.negation_perm(3) == [0, 7, 6, 5, 4, 3, 2, 1]
    assert oracles.perm_parity(oracles.negation_perm(3)) == "odd"
    assert oracles.cycles([2, 0, 1, 3]) == [[0, 2, 1], [3]]
    assert oracles.cycle_length_of([2, 0, 1, 3], 1) == 3


def test_margolus_torus_moves_a_ball_diagonally():
    table = oracles.bbm_table()
    assert table[0b1000] == 0b0001 and table[0b1001] == 0b0110 and table[0b1100] == 0b1100
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[0, 0] = 1
    one = oracles.margolus_torus(cells, 0, table)
    assert np.argwhere(one).tolist() == [[1, 1]]
    two = oracles.margolus_torus(one, 1, table)
    assert np.argwhere(two).tolist() == [[2, 2]]
    # the odd phase wraps: a ball at (3, 3) is the top-left of block (3, 3)
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[3, 3] = 1
    assert np.argwhere(oracles.margolus_torus(cells, 1, table)).tolist() == [[0, 0]]


def test_margolus_helical_descends_at_the_seam():
    table = oracles.bbm_table()
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[1, 3] = 1
    # on a torus the block at (1, 3) wraps level and the ball lands at (2, 0);
    # the screw gluing sends the block's lower half to the next row pair
    assert np.argwhere(oracles.margolus_torus(cells, 1, table)).tolist() == [[2, 0]]
    assert np.argwhere(oracles.margolus_helical(cells, 1, table)).tolist() == [[0, 0]]
    assert np.array_equal(oracles.margolus_helical(cells, 0, table),
                          oracles.margolus_torus(cells, 0, table))


def test_riffle_closed_forms():
    assert oracles.riffle_power(13, 1, 3) == 6
    assert oracles.riffle_power(13, 1, 7) == 1
    assert oracles.riffle_power(8, 1, 4) == 1
    assert oracles.riffle_power(8, 1, 7) == 7
    assert oracles.riffle_pieces(13) == [(0, 7, 2, 0), (7, 13, 2, -13)]
    assert oracles.plb_table(13, oracles.riffle_pieces(13)).tolist() == [
        oracles.riffle_power(13, 1, x) for x in range(13)]
    assert oracles.riffle_power(13, 2, 3) == 12
    assert oracles.riffle_power(8, 5, 7) == 7


def test_rotation_closed_form():
    assert oracles.rotation_power(10, 3, 4, 1) == 3
    assert oracles.rotation_power(10, 3, -1, 1) == 8
    assert oracles.iet_table(10, [(0, 7, 3), (7, 10, -7)]).tolist() == [
        oracles.rotation_power(10, 3, 1, x) for x in range(10)]


def test_multiplicative_order():
    assert oracles.multiplicative_order(2, 7) == 3
    assert oracles.multiplicative_order(3, 7) == 6
    assert oracles.multiplicative_order(2, 1) == 1
    assert oracles.riffle_order(13) == 12
    assert oracles.riffle_order(8) == 3
    assert oracles.riffle_order(100001) == 9090
    with pytest.raises(ValueError):
        oracles.multiplicative_order(2, 8)


def test_cyclic_gaps_and_cycle_counts():
    assert oracles.cyclic_gaps(64, 27, 10) == (3, 7, 10)
    assert oracles.cyclic_gaps(5, 2, 1) == (5,)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all(oracles.ham_cycles_through(4, k4, e) == 2 for e in k4)
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert all(oracles.ham_cycles_through(6, k33, e) == 4 for e in k33)
    assert oracles.is_ham_cycle(4, k4, (0, 1, 2, 3))
    assert not oracles.is_ham_cycle(4, k4, (0, 1, 2, 2))
    assert oracles.same_cycle((0, 1, 2, 3), (1, 0, 3, 2))
    assert not oracles.same_cycle((0, 1, 2, 3), (0, 2, 1, 3))


def test_classical_translation_computes_the_gate_list():
    gates = [("toffoli", (0, 1, 2)), ("fredkin", (2, 0, 1)), ("swap", (0, 2)),
             ("not", (1,)), ("cnot", (2, 0))]
    cc = workloads.to_classical(gates, 3)
    table = oracles.gate_table(gates, 3)
    for x in range(8):
        assert circuits.eval_classical(cc, kernel.Bitstring(x, 3)).value == table[x]


def test_layer_values():
    tr = spans.Tracer()
    tr.record("a", 2.0, states=10)
    tr.record("a", 3.0, states=20)
    assert spans.layer_value(tr.spans, "rate", "states") == 6.0
    assert spans.layer_value(tr.spans, "ms", None) == 2500.0
    assert spans.layer_value(tr.spans, "count", "states") == 15.0
    with tr.span("outer"):
        tr.record("inner", 0.0)
    assert tr.self_times()["inner"] == 0.0


# ---------------------------------------------------------------------------
# Each checker passes the package's answers and rejects a wrong one.


def _round(name):
    generate, run_round, check = workloads.WORKLOADS[name]
    shared = generate(7, 1)
    inp = shared["rounds"][0]
    if name == "dynamics":
        workloads.dynamics_grids(inp)
    ops = workloads.Ops(spans.NullTracer())
    run_round(inp, shared, ops)
    assert ops.failed == []
    assert check(inp, shared, ops.res) == []
    return inp, shared, ops.res, check


@pytest.fixture(scope="module")
def statespace():
    return _round("statespace")


@pytest.fixture(scope="module")
def orbit():
    return _round("orbit")


@pytest.fixture(scope="module")
def dynamics():
    return _round("dynamics")


def _rejects(case, key, corrupt):
    inp, shared, res, check = case
    bad = dict(res)
    bad[key] = corrupt(copy.deepcopy(res[key]))
    assert check(inp, shared, bad) != []


def _swap_first(perm):
    perm[0], perm[1] = perm[1], perm[0]
    return perm


def test_statespace_checker_rejects_wrong_answers(statespace):
    _rejects(statespace, "perm", _swap_first)
    _rejects(statespace, "parity", lambda p: "odd")
    _rejects(statespace, "parity_neg", lambda p: "even")
    _rejects(statespace, "order", lambda n: n + 1)
    _rejects(statespace, "sweep", lambda b: kernel.Bitstring(b.value ^ 1, b.width))
    _rejects(statespace, "check_collision", lambda c: kernel.BijectionCheck(
        False, (c.witness[0], c.witness[0]), "collision"))


def test_orbit_checker_rejects_wrong_answers(orbit):
    _rejects(orbit, "iet0_solve0", lambda y: y + 1)
    _rejects(orbit, "iet1_solve2", lambda y: y + 1)
    _rejects(orbit, "rot_solve3", lambda y: y + 1)
    _rejects(orbit, "gap_max", lambda g: 4)
    _rejects(orbit, "iterate_plb", lambda y: y ^ 1)
    _rejects(orbit, "apply_inverse", lambda ys: [ys[0] + 1] + ys[1:])
    _rejects(orbit, "riffle_iterate", lambda y: y + 1)


def test_dynamics_checker_rejects_wrong_answers(dynamics):
    from ibx import ca

    def flip(grid):
        cells = grid.cells.copy()
        cells[0, 0] ^= 1
        return ca.MargolusGrid(cells, grid.phase)

    _rejects(dynamics, "bbm1", flip)
    _rejects(dynamics, "helical_back", flip)
    _rejects(dynamics, "ring_extract", flip)
    _rejects(dynamics, "leaf_direct", lambda v: kernel.Bitstring(v.value ^ 1, v.width))
    _rejects(dynamics, "count0_0", lambda n: n + 2)
    _rejects(dynamics, "second0", lambda c: tuple(dynamics[0]["graphs"][0][0]))


def test_cli_checker_rejects_wrong_answers(tmp_path):
    cmds = {c.name: c for c in cli_workload.setup(str(tmp_path), 7)}
    assert sorted(cmds) == sorted(cli_workload.COMMAND_NAMES)
    for name in ("plb_riffle", "circuit_iterate", "lollipop_count", "lift_exact", "iet_solve"):
        _, err = cli_workload.run_in_process(cmds[name])
        assert err is None, (name, err)
    cmd = cmds["reduce_clock"]
    argv = cmd.argv + ["--report"]
    report = '{"command": %s}' % str(argv).replace("'", '"')
    assert cli_workload._check_output(cmd, argv, 0, "1011\n", report) is None
    assert cli_workload._check_output(cmd, argv, 0, "1010\n", report) is not None
    assert cli_workload._check_output(cmd, argv, 1, "1011\n", report) is not None
    assert cli_workload._check_output(cmd, argv, 0, "1011\n", "no report") is not None
    assert cmds["lollipop_count"].expect("0 1 3") is not None
    assert cmds["ca_strobe_demo"].expect("0 4 8") is not None


def test_cli_child_that_hangs_is_killed(tmp_path, monkeypatch):
    # `circuit iterate` loops n times, so this command would run for ages
    circuit = tmp_path / "c3.txt"
    circuit.write_text("wires 3\ncnot 0 1\nnot 2\n")
    cmd = cli_workload.Command(
        "hang", ["circuit", "iterate", "--file", str(circuit), "--input", "010",
                 "--n", str(10 ** 20)], lambda out: None)
    monkeypatch.setattr(cli_workload, "COMMAND_TIMEOUT_S", 1)
    src = os.path.join(os.path.dirname(HERE), "src")
    elapsed, _, err = cli_workload.run_process(cmd, src, str(tmp_path))
    assert err is not None and err.startswith("exit -9")
    assert elapsed < 30
