"""End-to-end checks of the command-line front end.

Most cases drive ``cli.main`` in process and read the captured streams;
subprocess cases check what a fresh interpreter loads at start-up and
that the installed console script works.  Semantics
are pinned by the module tests, so these focus on plumbing: files in,
payload out, exit codes, the JSON report.
"""

import contextlib
import io
import json
import os
import random
import re
import resource
import shlex
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ibx import ca, circuits, cli, formats, graphs, iet, kernel, plb

FIG_IET = "iet 15\npiece 0 4 11\npiece 4 6 -4\npiece 6 7 4\npiece 7 15 -5\n"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# circuit


def test_circuit_eval(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\nnot 0\ncnot 0 2\n")
    rc, out, _ = run_cli(capsys, "circuit", "eval", "--file", str(path), "--input", "010")
    assert rc == 0
    c = formats.parse_circuit(path.read_text())
    assert out.strip() == circuits.eval_reversible(c, kernel.Bitstring.from_text("010")).to_text()


def test_circuit_invert_round_trip(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\nnot 0\ncnot 0 2\ntoffoli 0 1 2\n")
    rc, out, _ = run_cli(capsys, "circuit", "invert", "--file", str(path))
    assert rc == 0
    inv = formats.parse_circuit(out)
    c = formats.parse_circuit(path.read_text())
    for v in range(8):
        assert inv.eval_int(c.eval_int(v)) == v


def test_circuit_iterate(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 2\ncnot 0 1\nnot 0\n")
    rc, out, _ = run_cli(
        capsys, "circuit", "iterate", "--file", str(path), "--input", "01", "--n", "5"
    )
    assert rc == 0
    c = formats.parse_circuit(path.read_text())
    expect = circuits.iterate_circuit(c, 5, kernel.Bitstring.from_text("01"))
    assert out.strip() == expect.to_text()


def test_circuit_iterate_negative_n_undoes_positive(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\ntoffoli 0 1 2\ncnot 2 0\nnot 1\n")
    for x, k in (("101", 5), ("000", 1), ("110", 13)):
        rc, out, _ = run_cli(
            capsys, "circuit", "iterate", "--file", str(path), "--input", x, "--n", str(k)
        )
        assert rc == 0
        rc, back, _ = run_cli(
            capsys, "circuit", "iterate", "--file", str(path), "--input", out.strip(),
            "--n", str(-k),
        )
        assert rc == 0 and back.strip() == x


def test_circuit_parity(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\nswap 0 1\n")
    rc, out, _ = run_cli(capsys, "circuit", "parity", "--file", str(path))
    assert rc == 0
    assert "even" in out


# ---------------------------------------------------------------------------
# lift


INC3 = (
    "inputs 3\nnot 3 2\nxor 4 1 2\nand 5 1 2\nxor 6 0 5\noutputs 6 4 3\n"
)
DEC3 = (
    "inputs 3\nnot 3 2\nxor 4 1 3\nnot 5 1\nand 6 3 5\nxor 7 0 6\noutputs 7 4 3\n"
)


def test_lift_bennett_eval(tmp_path, capsys):
    path = tmp_path / "inc.cc"
    path.write_text(INC3)
    rc, out, _ = run_cli(capsys, "lift", "bennett", "--file", str(path), "--input", "110")
    assert rc == 0
    assert out.strip() == "111"


def test_lift_exact_eval(tmp_path, capsys):
    f = tmp_path / "inc.cc"
    g = tmp_path / "dec.cc"
    f.write_text(INC3)
    g.write_text(DEC3)
    rc, out, _ = run_cli(
        capsys, "lift", "exact", "--file", str(f), "--inverse-file", str(g),
        "--input", "111",
    )
    assert rc == 0
    assert out.strip() == "000"


def test_lift_exact_emits_circuit(tmp_path, capsys):
    f = tmp_path / "inc.cc"
    g = tmp_path / "dec.cc"
    f.write_text(INC3)
    g.write_text(DEC3)
    rc, out, _ = run_cli(capsys, "lift", "exact", "--file", str(f), "--inverse-file", str(g))
    assert rc == 0
    lifted = formats.parse_circuit(out)
    pad = lifted.width - 3
    for v in range(8):
        assert lifted.eval_int(v) == (v + 1) % 8, pad


# ---------------------------------------------------------------------------
# reduce


def test_reduce_summation(capsys):
    rc, out, _ = run_cli(
        capsys, "reduce", "summation", "--fn", "increment", "--width", "3", "--x", "101"
    )
    assert rc == 0
    assert out.strip() == "110"


def test_reduce_clock(capsys):
    rc, out, _ = run_cli(
        capsys, "reduce", "clock", "--fn", "increment", "--width", "3",
        "--x", "000", "--n", "5",
    )
    assert rc == 0
    assert out.strip() == "101"


def test_reduce_clock_named_add(capsys):
    rc, out, _ = run_cli(
        capsys, "reduce", "clock", "--fn", "add:3", "--width", "4",
        "--x", "0001", "--n", "4",
    )
    assert rc == 0
    assert out.strip() == "1101"


def test_reduce_oracle(capsys):
    rc, out, _ = run_cli(
        capsys, "reduce", "oracle", "--fn", "increment", "--width", "2",
        "--count", "3", "--input", "01",
    )
    assert rc == 0
    assert out.strip() == "00"


def test_reduce_rejects_width_mismatch(capsys):
    rc, _, err = run_cli(
        capsys, "reduce", "oracle", "--fn", "increment", "--width", "3",
        "--count", "1", "--input", "01",
    )
    assert rc == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# leaf


def test_leaf_walk_and_compile_agree(capsys):
    rc1, walked, _ = run_cli(
        capsys, "leaf", "walk", "--k", "4", "--length", "9", "--seed", "7"
    )
    rc2, compiled, _ = run_cli(
        capsys, "leaf", "compile", "--k", "4", "--length", "9", "--seed", "7"
    )
    assert rc1 == rc2 == 0
    assert len(walked.strip()) == 4
    assert walked == compiled


# ---------------------------------------------------------------------------
# lollipop


def test_lollipop_count(tmp_path, capsys):
    path = tmp_path / "k4.cubic"
    path.write_text(formats.write_cubic(graphs.complete_graph_k4()))
    rc, out, _ = run_cli(capsys, "lollipop", "count", "--file", str(path))
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.split()[2] == "2" for line in lines)


def test_lollipop_second_cycle(tmp_path, capsys):
    path = tmp_path / "k4.cubic"
    g = graphs.complete_graph_k4()
    path.write_text(formats.write_cubic(g))
    rc, out, _ = run_cli(
        capsys, "lollipop", "second-cycle", "--file", str(path), "--cycle", "0 1 2 3"
    )
    assert rc == 0
    expect = graphs.second_hamiltonian(g, (0, 1, 2, 3), (0, 1), 0)
    assert formats.parse_vertex_list(out) == expect


# ---------------------------------------------------------------------------
# ca


def ball_grid(tmp_path):
    cells = [[0] * 8 for _ in range(8)]
    cells[5][5] = 1
    path = tmp_path / "ball.grid"
    path.write_text(formats.write_grid(ca.MargolusGrid(cells)))
    return path


def test_ca_run_then_reverse(tmp_path, capsys):
    path = ball_grid(tmp_path)
    rc, ahead, _ = run_cli(capsys, "ca", "bbm-run", "--file", str(path), "--n", "3")
    assert rc == 0
    mid = tmp_path / "mid.grid"
    mid.write_text(ahead)
    rc, back, _ = run_cli(capsys, "ca", "bbm-reverse", "--file", str(mid), "--n", "3")
    assert rc == 0
    assert back.strip() == path.read_text().strip()


def test_ca_dimredux_run_matches_2d(tmp_path, capsys):
    cells = [[0] * 4 for _ in range(8)]
    cells[2][1] = 1
    cells[5][3] = 1
    grid = ca.MargolusGrid(cells)
    path = tmp_path / "g.grid"
    path.write_text(formats.write_grid(grid))
    rc, out, _ = run_cli(capsys, "ca", "dimredux-run", "--file", str(path), "--n", "2")
    assert rc == 0
    assert out.strip() == formats.write_grid(ca.simulate_helical(grid, 2)).strip()


def test_ca_dimredux_run_huge_n_matches_the_reduced_count(tmp_path, capsys):
    grid = ca.MargolusGrid([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0]])
    path = tmp_path / "g.grid"
    path.write_text(formats.write_grid(grid))
    auto = ca.dim_redux_compile(ca.bbm_rule(), 4, 8)
    start = auto.embed(grid, 0)
    cfg, steps = auto.step(start), 1
    while cfg != start:
        cfg, steps = auto.step(cfg), steps + 1
    # t = 3 is odd and the parity track returns too, so the ring's return
    # time is an even number of blocked steps
    blocks = steps // auto.t
    rc, huge, _ = run_cli(capsys, "ca", "dimredux-run", "--file", str(path), "--n", str(10**20))
    assert rc == 0
    rc, reduced, _ = run_cli(
        capsys, "ca", "dimredux-run", "--file", str(path), "--n", str(10**20 % blocks)
    )
    assert rc == 0 and huge == reduced


def test_ca_dimredux_verify(tmp_path, capsys):
    path = ball_grid(tmp_path)
    rc, out, _ = run_cli(capsys, "ca", "dimredux-verify", "--file", str(path), "--n", "3")
    assert rc == 0
    assert out.strip() == "ok 3 blocked steps replayed"


PHASE_1_GRID = "bbm 4 4 1\n#...\n..#.\n.#..\n...#\n"


def test_ca_dimredux_verify_takes_a_phase_1_grid(tmp_path, capsys):
    path = tmp_path / "g.grid"
    path.write_text(PHASE_1_GRID)
    rc, out, err = run_cli(capsys, "ca", "dimredux-verify", "--file", str(path), "--n", "3")
    assert (rc, out, err) == (0, "ok 3 blocked steps replayed\n", "")
    rc, out, _ = run_cli(capsys, "ca", "dimredux-run", "--file", str(path), "--n", "3")
    want = ca.simulate_helical(formats.parse_grid(PHASE_1_GRID), 3, ca.bbm_rule())
    assert (rc, out) == (0, formats.write_grid(want))


def test_ca_strobe_demo(capsys):
    rc, out, _ = run_cli(capsys, "ca", "strobe-demo", "--t", "3", "--n", "9")
    assert rc == 0
    assert out.strip() == "0 3 6 9"


def test_ca_strobe_demo_rejects_negative_n(capsys):
    rc, out, err = run_cli(capsys, "ca", "strobe-demo", "--t", "3", "--n", "-2")
    assert rc == 1 and out == ""
    assert err == "error: --n must be nonnegative, got -2\n"


# ---------------------------------------------------------------------------
# plb


def test_plb_validate_ok(tmp_path, capsys):
    t = plb.riffle(13)
    path = tmp_path / "r.plb"
    path.write_text(formats.write_plb(t.domain, t.pieces))
    rc, out, _ = run_cli(capsys, "plb", "validate", "--file", str(path))
    assert rc == 0
    assert out.strip() == f"ok {len(t.pieces)} pieces on [0, 13)"


def test_plb_validate_reports_overlap(tmp_path, capsys):
    path = tmp_path / "bad.plb"
    path.write_text("plb 8\npiece 0 8 1 0\npiece 0 8 1 0\n")
    rc, _, err = run_cli(capsys, "plb", "validate", "--file", str(path))
    assert rc == 1
    assert err.startswith("error:")
    assert "overlap" in err


def test_plb_apply_and_inverse(tmp_path, capsys):
    t = plb.riffle(13)
    path = tmp_path / "r.plb"
    path.write_text(formats.write_plb(t.domain, t.pieces))
    rc, out, _ = run_cli(capsys, "plb", "apply", "--file", str(path), "--x", "3")
    assert rc == 0 and out.strip() == "6"
    rc, out, _ = run_cli(
        capsys, "plb", "apply", "--file", str(path), "--x", "6", "--inverse"
    )
    assert rc == 0 and out.strip() == "3"


def test_plb_iterate_recovers_identity(tmp_path, capsys):
    t = plb.circular_shift(3)
    path = tmp_path / "s.plb"
    path.write_text(formats.write_plb(t.domain, t.pieces))
    order = plb.permutation_order(t)
    for x in range(8):
        rc, out, _ = run_cli(
            capsys, "plb", "iterate", "--file", str(path), "--x", str(x),
            "--n", str(order),
        )
        assert rc == 0 and out.strip() == str(x)


def test_plb_iterate_negative_n_undoes_positive(tmp_path, capsys):
    t = plb.riffle(13)
    path = tmp_path / "r.plb"
    path.write_text(formats.write_plb(t.domain, t.pieces))
    for x, k in ((3, 5), (12, 1), (0, 7)):
        rc, out, _ = run_cli(
            capsys, "plb", "iterate", "--file", str(path), "--x", str(x), "--n", str(k)
        )
        assert rc == 0
        rc, back, _ = run_cli(
            capsys, "plb", "iterate", "--file", str(path), "--x", out.strip(),
            "--n", str(-k),
        )
        assert rc == 0 and back.strip() == str(x)


@pytest.mark.parametrize(
    "action, extra", [("apply", ["--x", "1"]), ("iterate", ["--x", "1", "--n", "2"])]
)
def test_plb_apply_and_iterate_validate_the_file(tmp_path, capsys, action, extra):
    path = tmp_path / "bad.plb"
    path.write_text("plb 8\npiece 0 8 1 0\npiece 0 8 1 0\n")
    rc, out, err = run_cli(capsys, "plb", action, "--file", str(path), *extra)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "overlap" in err and err.count("\n") == 1


def test_plb_riffle_payload(capsys):
    rc, out, _ = run_cli(capsys, "plb", "riffle", "--n", "13")
    assert rc == 0
    domain, raw = formats.parse_plb(out)
    t = plb.validate_plb(domain, raw)
    assert plb.apply_plb(t, 3) == 6
    assert plb.apply_plb(t, 7) == 1


def test_plb_compose(tmp_path, capsys):
    t = plb.circular_shift(3)
    path = tmp_path / "s.plb"
    path.write_text(formats.write_plb(t.domain, t.pieces))
    rc, out, _ = run_cli(capsys, "plb", "compose", "--files", str(path), str(path))
    assert rc == 0
    head, rest = out.split("\n", 1)
    assert head == "# 2 stages on [0, 8)"
    domain, raw = formats.parse_plb(rest)
    lifted = plb.validate_plb(domain, raw)
    for x in range(8):
        assert plb.iterate_plb(lifted, 2, x) == plb.apply_plb(t, plb.apply_plb(t, x))


def test_plb_rotate_flags(capsys):
    rc, out, _ = run_cli(capsys, "plb", "rotate", "--k", "3")
    assert rc == 0
    domain, raw = formats.parse_plb(out)
    full = plb.validate_plb(domain, raw)
    assert plb.apply_plb(full, 1) == 2
    rc, out, _ = run_cli(capsys, "plb", "rotate", "--k", "3", "--low")
    assert rc == 0
    domain, raw = formats.parse_plb(out)
    low = plb.validate_plb(domain, raw)
    assert plb.apply_plb(low, 4 + 1) == 4 + 2


def test_plb_from_circuit(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\ncnot 0 2\nnot 1\n")
    rc, out, _ = run_cli(capsys, "plb", "from-circuit", "--file", str(path))
    assert rc == 0
    head, rest = out.split("\n", 1)
    stages = int(head.split()[1])
    domain, raw = formats.parse_plb(rest)
    lifted = plb.validate_plb(domain, raw)
    c = formats.parse_circuit(path.read_text())
    for x in range(8):
        assert plb.iterate_plb(lifted, stages, x) == c.eval_int(x)


# ---------------------------------------------------------------------------
# iet


def test_iet_solve_fig_example(tmp_path, capsys):
    path = tmp_path / "t.iet"
    path.write_text(FIG_IET)
    rc, out, _ = run_cli(capsys, "iet", "solve", "--file", str(path), "--i", "6", "--n", "1")
    assert rc == 0
    assert out.strip() == "10"


def test_plb_iterate_answers_a_huge_rotation_without_walking(tmp_path):
    n, shift = 10**12, 7
    t = plb.interval_exchange(n, [(0, n - shift, shift), (n - shift, n, shift - n)])
    (tmp_path / "rot.plb").write_text(formats.write_plb(t.domain, t.pieces))
    steps = 10**20 + 3
    done = run_fresh(
        ["-m", "ibx.cli", "plb", "iterate", "--file", "rot.plb", "--x", "5", "--n", str(steps)],
        tmp_path, timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str((5 + shift * steps) % n)


def test_plb_iterate_answers_a_huge_riffle_without_walking(tmp_path):
    # the orbit of 5 is 500000000019 steps long: hours for the walk
    m = 1000000000039
    t = plb.riffle(m)
    (tmp_path / "riffle.plb").write_text(formats.write_plb(t.domain, t.pieces))
    done = run_fresh(
        ["-m", "ibx.cli", "plb", "iterate", "--file", "riffle.plb", "--x", "5", "--n", str(10**20)],
        tmp_path, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(5 * pow(2, 10**20, m) % m)


def test_leaf_compile_at_the_widest_k_leaps_its_wait(tmp_path):
    # 2**62 planned steps: the walk leaps each leaf's wait window
    walked, compiled = (
        run_fresh(["-m", "ibx.cli", "leaf", action, "--k", "62", "--seed", "5"],
                  tmp_path, timeout=20)
        for action in ("walk", "compile")
    )
    assert walked.returncode == compiled.returncode == 0, compiled.stderr
    assert len(walked.stdout.strip()) == 62
    assert compiled.stdout == walked.stdout


def test_reduce_clock_takes_a_million_cycles_a_leap_each(tmp_path):
    x = 0b10110101
    done = run_fresh(
        ["-m", "ibx.cli", "reduce", "clock", "--fn", "increment", "--width", "8",
         "--x", format(x, "08b"), "--n", "1000000"],
        tmp_path, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == format((x + 10**6) % 256, "08b")


def test_reduce_clock_leaps_every_cycle_of_a_huge_n_at_once(tmp_path):
    x, n = 0b10110101, 10**20
    done = run_fresh(
        ["-m", "ibx.cli", "reduce", "clock", "--fn", "add:37", "--width", "8",
         "--x", format(x, "08b"), "--n", str(n)],
        tmp_path, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == format((x + 37 * n) % 256, "08b")


def _cat_power(m, n, x, y):
    """The cat map's n-th power at (x, y) mod m as an 80-bit numeral: its
    matrix raised bit by bit, written out apart from the package's."""
    def times(p, q):
        return tuple(sum(p[2 * i + t] * q[2 * t + j] for t in range(2)) % m for i in range(2) for j in range(2))

    mat, out = (2, 1, 1, 1), (1, 0, 0, 1)
    while n:
        if n & 1:
            out = times(mat, out)
        mat, n = times(mat, mat), n >> 1
    a, b, c, d = out
    return format((a * x + b * y) % m << 40 | (c * x + d * y) % m, "080b")


WIDE_N, CAT_M = 10**20 + 7, 10**12 + 39


@pytest.mark.parametrize(
    "argv, want",
    [
        (["reduce", "clock", "--fn", "add:37", "--width", "4096", "--x", "0" * 4095 + "1"],
         format((1 + 37 * WIDE_N) % (1 << 4096), "04096b")),
        (["reduce", "clock", "--fn", "rotl", "--width", "64", "--x", "0" * 63 + "1"],
         format(1 << WIDE_N % 64, "064b")),
        (["reduce", "clock", "--fn", f"cat:{CAT_M}", "--x", "0" * 79 + "1"], _cat_power(CAT_M, WIDE_N, 0, 1)),
        (["reduce", "oracle", "--fn", f"cat:{CAT_M}", "--input", "0" * 79 + "1"], _cat_power(CAT_M, WIDE_N, 0, 1)),
    ],
    ids=["clock-add-4096", "clock-rotl-64", "clock-cat-80", "oracle-cat-80"],
)
def test_reduce_runs_wide_maps_by_their_own_power(tmp_path, argv, want):
    # the clock has no width cap of its own: each run is a handful of leaps
    count = ["--count" if argv[1] == "oracle" else "--n", str(WIDE_N)]
    done = run_fresh(["-m", "ibx.cli", *argv, *count], tmp_path, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == want


def test_reduce_oracle_leaps_a_huge_count(tmp_path):
    # the walk takes 2**68 ticks here
    n = 10**20
    done = run_fresh(
        ["-m", "ibx.cli", "reduce", "oracle", "--fn", "add:37", "--width", "8",
         "--input", "00000001", "--count", str(n)],
        tmp_path, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == format((1 + 37 * n) % 256, "08b")


def test_reduce_summation_leaps_its_sweep_at_the_widest_width(tmp_path):
    x = 0b10110101110010101101
    done = run_fresh(
        ["-m", "ibx.cli", "reduce", "summation", "--fn", "add:37", "--width", "20",
         "--x", format(x, "020b")],
        tmp_path, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == format((x + 37) % 2**20, "020b")


def test_plb_iterate_reports_the_path_that_answered(tmp_path, capsys):
    compiled, stages = plb.circuit_to_plb(formats.parse_circuit("wires 2\ncnot 0 1\nnot 0\n"))
    rotation = plb.interval_exchange(15, [(0, 11, 4), (11, 15, -11)])
    maps = {
        "affine": (plb.riffle(14), {"affine_modulus": 13}),
        "exchange": (rotation, {"induction_ops": len(plb.induction(rotation))}),
        "walk": (compiled, {}),
    }
    for name, (t, extra) in maps.items():
        path = tmp_path / f"{name}.plb"
        path.write_text(formats.write_plb(t.domain, t.pieces))
        rc, out, err = run_cli(
            capsys, "plb", "iterate", "--file", str(path), "--x", "3", "--n", str(2 * stages), "--report"
        )
        assert rc == 0 and out.strip() == str(plb.iterate_plb(t, 2 * stages, 3))
        assert json.loads(err)["step_counts"] == {"iterations": 2 * stages, **extra}, name


def test_iet_solve_large_n(tmp_path, capsys):
    path = tmp_path / "t.iet"
    path.write_text(FIG_IET)
    t = plb.interval_exchange(15, [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)])
    rc, out, _ = run_cli(
        capsys, "iet", "solve", "--file", str(path), "--i", "2", "--n", "123456789"
    )
    assert rc == 0
    assert out.strip() == str(iet.iet_orbit_solve(t, 2, 123456789))


def test_iet_build_summary(tmp_path, capsys):
    path = tmp_path / "t.iet"
    path.write_text(FIG_IET)
    rc, out, _ = run_cli(capsys, "iet", "build", "--file", str(path))
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("surface domain=15 pieces=4 stripes=2")
    assert "edge" in out and "triangle" in out


def huge_exchange_file(tmp_path):
    """Eight pieces of about 10**12 / 8 points, in reverse order."""
    n = 10**12
    cuts = [0] + [n // 8 * j + j for j in range(1, 8)] + [n]
    segs = list(zip(cuts, cuts[1:]))
    lines, out = [f"iet {n}"], 0
    for lo, hi in segs[::-1]:
        lines.append(f"piece {lo} {hi} {out - lo}")
        out += hi - lo
    path = tmp_path / "t.iet"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_iet_build_huge_domain(tmp_path, capsys):
    path = huge_exchange_file(tmp_path)
    rc, out, _ = run_cli(capsys, "iet", "build", "--file", str(path))
    assert rc == 0
    assert out.splitlines()[0].startswith(f"surface domain={10**12} pieces=8 stripes=3")


def timed_solve(capsys, path, i, steps):
    started = time.perf_counter()
    rc, out, _ = run_cli(capsys, "iet", "solve", "--file", str(path), "--i", str(i), "--n", str(steps))
    assert time.perf_counter() - started < 1.0
    assert rc == 0
    return int(out)


def test_iet_solve_huge_rotation(tmp_path, capsys):
    n, a = 10**12, 10**12 - 1
    path = tmp_path / "rot.iet"
    path.write_text(f"iet {n}\npiece 0 1 {a}\npiece 1 {n} -1\n")
    for i, steps in ((5, 7), (0, 10**30), (n - 1, -(10**20) - 3), (123456789, 10**12 + 1)):
        assert timed_solve(capsys, path, i, steps) == (i + steps * a) % n


def test_iet_solve_huge_exchange(tmp_path, capsys):
    path = huge_exchange_file(tmp_path)
    t = plb.interval_exchange(*formats.parse_iet(path.read_text()))
    for i in (0, 123456789, 10**12 - 1, 5 * 10**11 + 3):
        for steps in (1, 2, 7):
            y = timed_solve(capsys, path, i, steps)
            for _ in range(steps):
                y = plb.apply_plb_inverse(t, y)
            assert y == i
        y = timed_solve(capsys, path, i, 10**30)
        assert timed_solve(capsys, path, y, -(10**30)) == i


def test_iet_report_counts_surface_sizes(tmp_path, capsys):
    path = tmp_path / "t.iet"
    path.write_text(FIG_IET)
    t = plb.interval_exchange(15, [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)])
    su = iet.build_surface(t)
    sizes = {
        "triangles": len(su.surface.triangles),
        "period": su.period,
        "return_runs": len(su.returns),
    }
    rc, _, err = run_cli(capsys, "iet", "build", "--file", str(path), "--report")
    assert rc == 0
    assert json.loads(err)["step_counts"] == sizes
    rc, _, err = run_cli(
        capsys, "iet", "solve", "--file", str(path), "--i", "6", "--n", "1", "--report"
    )
    assert rc == 0
    # solve builds no surface: it reports the induction it ran and the orbit
    assert json.loads(err)["step_counts"] == {
        "induction_ops": len(plb.induction(t)),
        "orbit_length": len(iet.arc_of(su, 6).orbit),
    }


def test_iet_three_gap(capsys):
    rc, out, _ = run_cli(
        capsys, "iet", "three-gap", "--modulus", "8", "--step", "5", "--count", "5"
    )
    assert rc == 0
    assert out.strip() == "1 2"


def test_iet_three_gap_sweep(capsys):
    rc, out, _ = run_cli(capsys, "iet", "three-gap", "--sweep", "25")
    assert rc == 0
    assert out.strip() == "max distinct gaps 3"


def test_iet_three_gap_needs_arguments():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["iet", "three-gap"])
    assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# verify, report, errors


def test_verify_all(capsys):
    rc, out, _ = run_cli(capsys, "verify", "all")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.endswith(" ok") for line in lines)


# Every subcommand; only the three that draw random inputs take --seed.
SUBCOMMANDS = {
    "circuit": ["eval", "invert", "iterate", "parity"],
    "lift": ["bennett", "exact"],
    "reduce": ["summation", "clock", "oracle"],
    "leaf": ["walk", "compile"],
    "lollipop": ["second-cycle", "count"],
    "ca": ["bbm-run", "bbm-reverse", "dimredux-run", "dimredux-verify", "strobe-demo"],
    "plb": ["validate", "apply", "iterate", "compose", "riffle", "rotate", "from-circuit"],
    "iet": ["build", "solve", "three-gap"],
    "verify": ["all"],
}
SEEDED = {("leaf", "walk"), ("leaf", "compile"), ("verify", "all")}


@pytest.mark.parametrize(
    "group, action", [(g, a) for g, actions in SUBCOMMANDS.items() for a in actions]
)
def test_only_the_randomized_commands_take_seed(group, action, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([group, action, "--help"])
    assert exit_info.value.code == 0
    assert ("--seed" in capsys.readouterr().out) == ((group, action) in SEEDED)


def test_seed_on_a_command_without_randomness_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["plb", "riffle", "--n", "5", "--seed", "3"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["circuit", "iterate", "--file", "c.rc", "--input", "101"],
    ["plb", "iterate", "--file", "riffle.plb", "--x", "5"],
    ["ca", "dimredux-run", "--file", "ball.grid"],
    ["ca", "dimredux-verify", "--file", "ball.grid"],
])
def test_report_counts_a_negative_n_by_its_size(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "c.rc").write_text("wires 3\nnot 0\ncnot 0 2\ntoffoli 0 1 2\n")
    (tmp_path / "riffle.plb").write_text(formats.write_plb(13, plb.riffle(13).pieces))
    ball_grid(tmp_path)
    monkeypatch.chdir(tmp_path)
    counts = []
    for n in ("2", "-2"):
        rc, _, err = run_cli(capsys, *argv, "--n", n, "--report")
        assert rc == 0, err
        counts.append(json.loads(err)["step_counts"])
    assert counts[0] == counts[1]
    assert min(counts[1].values()) > 0, counts[1]


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_examples():
    """README's ``t.iet`` document, and each ``$ ibx`` line of its
    command-line block as arguments with the output lines that follow."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```text\n(.*?)^```", fh.read(), re.S | re.M)
    doc = next(b for b in blocks if b.startswith("iet "))
    examples = []
    for line in next(b for b in blocks if b.startswith("$ ibx ")).splitlines():
        if line.startswith("$ ibx "):
            examples.append((shlex.split(line)[2:], []))
        else:
            examples[-1][1].append(line + "\n")
    return doc, [(argv, "".join(out)) for argv, out in examples]


README_IET, README_EXAMPLES = readme_examples()


def test_readme_shows_the_figure_exchange():
    assert README_IET == FIG_IET
    assert len(README_EXAMPLES) >= 8


@pytest.mark.parametrize("argv, want", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_example(argv, want, tmp_path, capsys, monkeypatch):
    (tmp_path / "t.iet").write_text(README_IET)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (0, want, "")


# A command line builds only its group's parser; that parser must read
# every command line of the group as the whole tree does.


def parse_exit(parser, argv, capsys):
    """What ``parser`` prints and exits with on argv."""
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "group, action", [(g, a) for g, actions in SUBCOMMANDS.items() for a in actions]
)
def test_one_group_parser_prints_the_whole_trees_help(group, action, capsys):
    for argv in ([group, "--help"], [group, action, "--help"]):
        whole = parse_exit(cli._build_parser(), argv, capsys)
        assert whole[0] == 0 and whole[1]
        assert parse_exit(cli._build_parser(group), argv, capsys) == whole


@pytest.mark.parametrize("argv", [a for a, _ in README_EXAMPLES], ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_one_group_parser_reads_each_readme_example_as_the_whole_tree(argv, capsys):
    assert cli._build_parser(argv[0]).parse_args(argv) == cli._build_parser().parse_args(argv)
    # a usage error in the group's tree still shows every group on the usage line
    bad = argv + ["--no-such-flag"]
    whole = parse_exit(cli._build_parser(), bad, capsys)
    assert whole[0] == 2 and "{" + ",".join(SUBCOMMANDS) + "}" in whole[2]
    assert parse_exit(cli._build_parser(argv[0]), bad, capsys) == whole


def test_top_help_lists_every_group(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out


def test_report_emits_json(tmp_path, capsys):
    path = tmp_path / "c.rc"
    path.write_text("wires 3\nswap 0 1\n")
    rc, out, err = run_cli(capsys, "circuit", "parity", "--file", str(path), "--report")
    assert rc == 0
    report = json.loads(err)
    assert set(report) == {
        "schema", "command", "input_digests", "payload", "step_counts",
        "phases_s", "wall_time_s", "loaded",
    }
    assert report["schema"] == 1
    assert report["command"][:2] == ["circuit", "parity"]
    assert str(path) in report["input_digests"]
    assert len(report["input_digests"][str(path)]) == 12
    assert report["payload"] == out.strip()
    assert report["step_counts"] == {"states": 8, "tables": 1, "table_entries": 8}
    assert isinstance(report["wall_time_s"], float)
    assert report["phases_s"] == {"run": report["wall_time_s"]}
    assert report["loaded"] == sorted(report["loaded"])
    # numpy may be loaded by earlier tests in this process; a fresh child
    # shows this command loads none (test_only_array_commands_load_numpy)
    assert {"ibx.circuits", "ibx.formats"} <= set(report["loaded"])


@pytest.mark.parametrize("width, tables, entries", [(8, 1, 256), (12, 1, 4096), (13, 0, 0)])
def test_circuit_report_counts_tables(tmp_path, capsys, width, tables, entries):
    """One whole table up to 12 wires; above that none, on the wire list."""
    path = tmp_path / "c.rc"
    path.write_text(f"wires {width}\nnot 0\ntoffoli 0 1 2\ncnot 3 4\nfredkin 5 6 7\nswap 1 7\n")
    state = ["--input", "1" * width]
    for action, extra in (("eval", state), ("iterate", state + ["--n", "3"]), ("parity", [])):
        rc, _, err = run_cli(capsys, "circuit", action, "--file", str(path), *extra, "--report")
        assert rc == 0
        counts = json.loads(err)["step_counts"]
        assert (counts["tables"], counts["table_entries"]) == (tables, entries), action


def test_verify_all_reports_seconds_per_area(capsys):
    rc, out, err = run_cli(capsys, "verify", "all", "--report")
    assert rc == 0
    areas = [line.split()[0] for line in out.strip().splitlines()]
    assert areas == [
        "kernel", "circuits", "lifts", "reductions", "leaf", "lollipop", "ca", "plb", "iet",
    ]
    phases = json.loads(err)["phases_s"]
    assert list(phases) == areas
    assert all(isinstance(t, float) and t >= 0 for t in phases.values())


def test_missing_file_is_an_error(capsys):
    rc, _, err = run_cli(capsys, "circuit", "parity", "--file", "no-such-file.rc")
    assert rc == 1
    assert err.startswith("error:")


def test_wide_circuit_parity_is_closed_form_without_numpy(tmp_path):
    (tmp_path / "c.rc").write_text("wires 40\nnot 0\ntoffoli 3 39 7\nfredkin 1 2 3\nswap 5 6\n")
    done = run_fresh(["-m", "ibx.cli", "circuit", "parity", "--file", "c.rc", "--report"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "even"
    report = json.loads(done.stderr)
    assert report["step_counts"] == {"gates": 4, "tables": 0, "table_entries": 0}
    assert "numpy" not in report["loaded"], report["loaded"]


def test_circuit_parity_huge_width_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "wide.rc"
    path.write_text("wires 99999999999\nnot 0\n")
    rc, out, err = run_cli(capsys, "circuit", "parity", "--file", str(path), "--report")
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["frobnicate"])
    assert exit_info.value.code == 2
    choices = ", ".join(f"'{group}'" for group in SUBCOMMANDS)
    assert f"invalid choice: 'frobnicate' (choose from {choices})" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up: fresh interpreters, since this process has every module loaded

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_fresh(args, cwd, stdout=subprocess.PIPE, preexec_fn=None, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd, timeout=timeout, preexec_fn=preexec_fn,
    )


# The cli benchmark workload's commands and the other ca and lift commands,
# on small inputs.  None loads numpy, not even `verify all`, whose ca suite
# reads its grids from text, or the parity of a 3-wire circuit, which reads
# its 8 images off its table.
STARTUP_COMMANDS = {
    "iet_solve_n1": ["iet", "solve", "--file", "t.iet", "--i", "6", "--n", "1"],
    "iet_solve_n1e20": ["iet", "solve", "--file", "t.iet", "--i", "2", "--n", str(10**20)],
    "plb_riffle": ["plb", "riffle", "--n", "13"],
    "reduce_clock": ["reduce", "clock", "--fn", "increment", "--width", "4", "--x", "0000", "--n", "11"],
    "iet_three_gap": ["iet", "three-gap", "--modulus", "64", "--step", "27", "--count", "10"],
    "circuit_iterate": ["circuit", "iterate", "--file", "c.rc", "--input", "101", "--n", "700"],
    "plb_validate": ["plb", "validate", "--file", "c.plb"],
    "plb_apply_inverse": ["plb", "apply", "--file", "c.plb", "--x", "5", "--inverse"],
    "iet_build": ["iet", "build", "--file", "t.iet"],
    "iet_solve": ["iet", "solve", "--file", "t.iet", "--i", "3", "--n", str(-(10**30))],
    "lollipop_count": ["lollipop", "count", "--file", "k4.cubic"],
    "lollipop_second_cycle": ["lollipop", "second-cycle", "--file", "k4.cubic", "--cycle", "0 1 2 3"],
    "ca_bbm_run": ["ca", "bbm-run", "--file", "ball.grid", "--n", "3"],
    "ca_bbm_reverse": ["ca", "bbm-reverse", "--file", "ball.grid", "--n", "3"],
    "ca_strobe_demo": ["ca", "strobe-demo", "--t", "4", "--n", "12"],
    "ca_dimredux_run": ["ca", "dimredux-run", "--file", "ball.grid", "--n", "3"],
    "ca_dimredux_verify": ["ca", "dimredux-verify", "--file", "ball.grid", "--n", "3"],
    "lift_exact": ["lift", "exact", "--file", "inc.bool", "--inverse-file", "dec.bool", "--input", "011"],
    "lift_bennett": ["lift", "bennett", "--file", "inc.bool"],
    "circuit_parity": ["circuit", "parity", "--file", "c.rc"],
    "plb_iterate_riffle": ["plb", "iterate", "--file", "riffle.plb", "--x", "5", "--n", str(10**20 + 7)],
    "plb_iterate_exchange": ["plb", "iterate", "--file", "t.plb", "--x", "2", "--n", str(-(10**20 + 7))],
    "plb_iterate_compiled": ["plb", "iterate", "--file", "c.plb", "--x", "5", "--n", "700"],
    "verify_all": ["verify", "all"],
}


@pytest.mark.parametrize("name", list(STARTUP_COMMANDS))
def test_only_array_commands_load_numpy(name, tmp_path):
    text = "wires 3\nnot 0\ncnot 0 2\ntoffoli 0 1 2\n"
    (tmp_path / "c.rc").write_text(text)
    t, _ = plb.circuit_to_plb(formats.parse_circuit(text))
    (tmp_path / "c.plb").write_text(formats.write_plb(t.domain, t.pieces))
    (tmp_path / "t.iet").write_text(FIG_IET)
    figure = plb.interval_exchange(*formats.parse_iet(FIG_IET))
    for file, t in (("riffle.plb", plb.riffle(13)), ("t.plb", figure)):
        (tmp_path / file).write_text(formats.write_plb(t.domain, t.pieces))
    (tmp_path / "k4.cubic").write_text(formats.write_cubic(graphs.complete_graph_k4()))
    ball_grid(tmp_path)
    (tmp_path / "inc.bool").write_text(INC3)
    (tmp_path / "dec.bool").write_text(DEC3)
    done = run_fresh(["-m", "ibx.cli", *STARTUP_COMMANDS[name], "--report"], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.strip().splitlines()[-1])["loaded"]
    assert "numpy" not in loaded, loaded
    if name.startswith(("iet_", "plb_")):
        assert not {"ibx.circuits", "ibx.graphs"} & set(loaded), loaded
    if name == "reduce_clock":
        assert "ibx.circuits" not in loaded, loaded
    # an exchange's powers live in plb, so only the surface commands load iet
    if name.startswith(("iet_solve", "plb_")):
        assert "ibx.iet" not in loaded, loaded
    if name == "iet_build":
        assert "ibx.iet" in loaded, loaded


def test_closed_stdout_is_one_error_line(tmp_path):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_fresh(["-m", "ibx.cli", "plb", "riffle", "--n", "13"], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "Exception" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


# 1.5 GB of address space: enough for the interpreter and numpy, far below
# what any uncapped size argument below would ask for.
CHILD_ADDRESS_SPACE = 1_500_000_000


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "argv",
    [
        ["plb", "rotate", "--k", "100000000000"],
        ["plb", "rotate", "--k", "100000000000", "--low"],
        ["ca", "strobe-demo", "--t", "3", "--n", "1", "--ring", "1000000000"],
        ["leaf", "walk", "--k", "40", "--length", "1000000000"],
        ["leaf", "walk", "--k", "63"],
        ["leaf", "compile", "--k", "100000000000"],
        ["ca", "strobe-demo", "--t", "100000", "--n", "1"],
        ["iet", "three-gap", "--modulus", str(10**12), "--step", "7", "--count", str(10**12)],
        ["iet", "three-gap", "--sweep", "100000"],
        ["reduce", "summation", "--fn", "add:3", "--width", "100000000000", "--x", "0"],
        ["reduce", "clock", "--fn", "add:3", "--width", "100000000000", "--x", "0", "--n", "3"],
        ["reduce", "oracle", "--fn", "add:3", "--width", "100000000000", "--input", "0", "--count", "3"],
        ["ca", "strobe-demo", "--t", "1", "--n", "10000000000"],
    ],
)
def test_oversized_arguments_are_one_error_line(tmp_path, argv):
    done = run_fresh(["-m", "ibx.cli", *argv], tmp_path, preexec_fn=_limit_address_space)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, document",
    [
        (["lollipop", "count"], "cubic 1000000000\n"),
        (["lift", "bennett"], "inputs 1000000000\nand 1000000000 0 1\noutputs 1000000000\n"),
    ],
)
def test_documents_declaring_huge_sizes_are_one_error_line(tmp_path, argv, document):
    # each header declares a size whose tables would not fit in the child
    (tmp_path / "doc.txt").write_text(document)
    done = run_fresh(["-m", "ibx.cli", *argv, "--file", "doc.txt"], tmp_path,
                     preexec_fn=_limit_address_space)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


AND_GATE = "inputs 2\nand 2 0 1\noutputs 2\n"
PHASE_2_GRID = "bbm 4 4 2\n....\n....\n....\n....\n"
# numbers too long to parse, which the error message quotes
HUGE_WIRE = "wires 3\nnot " + "9" * 100_000 + "\n"
HUGE_PLB_HEADER = "plb " + "9" * 5001 + "\n"
# ROADMAP item 6's rotation of N = 10**12 by 381966011251, written with a
# one-point -1 piece, which moves its point as a translation would
ONE_POINT_ROTATION = """plb 1000000000000
piece 0 1 -1 381966011251
piece 1 618033988749 1 381966011251
piece 618033988749 1000000000000 1 -618033988749
"""
# the same rotation with its first two points swapped by a two-point -1
# piece: no power path takes it, so plb iterate walks every step
FLIPPED_ROTATION = """plb 1000000000000
piece 0 2 -1 381966011252
piece 2 618033988749 1 381966011251
piece 618033988749 1000000000000 1 -618033988749
"""


def test_plb_iterate_takes_a_one_point_flip_as_a_translation(tmp_path):
    (tmp_path / "doc.txt").write_text(ONE_POINT_ROTATION)
    n = 10**20 + 7
    done = run_fresh(["-m", "ibx.cli", "plb", "iterate", "--file", "doc.txt", "--x", "5", "--n", str(n),
                      "--report"], tmp_path, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{(5 + n * 381966011251) % 10**12}\n" == "673762078762\n"
    assert json.loads(done.stderr)["step_counts"] == {"iterations": n, "induction_ops": 38}
    # the surface layer still takes only translations
    t = plb.validate_plb(*formats.parse_plb(ONE_POINT_ROTATION))
    with pytest.raises(iet.IetError, match="^not an interval exchange: some piece scales$"):
        iet.build_surface(t)
    with pytest.raises(iet.IetError, match="^not an interval exchange: some piece scales$"):
        iet.iet_orbit_solve(t, 5, n)


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (["lollipop", "count"], "cubic 0\n", "at least one vertex"),
        (["lollipop", "second-cycle", "--cycle", "0"], "cubic 0\n", "at least one vertex"),
        (["lollipop", "second-cycle", "--cycle", "1"], "k4", "not a Hamiltonian cycle"),
        (["iet", "three-gap", "--sweep", "0"], None, "below 1"),
        (["iet", "three-gap", "--sweep", "-1"], None, "below 1"),
        (["reduce", "oracle", "--fn", "increment", "--width", "3", "--input", "101", "--count", "-1"],
         None, "error: --count must be nonnegative, got -1"),
        (["circuit", "eval", "--input", "012"], "wires 3\nnot 0\n", "not a binary numeral"),
        (["circuit", "eval", "--input", "101"], HUGE_WIRE, "error: not: '999"),
        (["circuit", "iterate", "--input", "1", "--n", "3"], "wires 2\nnot 0\n",
         "input width 1 does not match bijection width 2"),
        (["circuit", "invert"], "wires 3\ncnot 0\n", "cnot takes 2 wires"),
        (["circuit", "parity"], "wires 3\ncnot 0\n", "cnot takes 2 wires"),
        (["plb", "from-circuit"], "wires 3\ncnot 0\n", "cnot takes 2 wires"),
        (["lift", "bennett", "--input", "111"], AND_GATE, "payload width 3"),
        (["lift", "exact", "--inverse-file", "doc.txt"], AND_GATE, "k bits to k bits"),
        (["reduce", "summation", "--fn", "add:x", "--width", "3", "--x", "101"], None,
         "invalid literal"),
        (["reduce", "clock", "--fn", "cat:0", "--x", "0", "--n", "1"], None, "modulus must be positive"),
        (["leaf", "walk", "--k", "0"], None, "vertex width must be positive"),
        (["leaf", "compile", "--k", "1", "--length", "3"], None, "path length 3 does not fit in 1 bits"),
        (["leaf", "compile", "--k", "1", "--length", "1"], None, "path length 1 is too short"),
        (["lollipop", "second-cycle", "--cycle", "0 1 2 3", "--edge", "0", "0"], "k4",
         "not on the cycle"),
        (["lollipop", "count", "--edge", "0", "9"], "k4", "no such edge"),
        (["ca", "bbm-run", "--n", "1"], PHASE_2_GRID, "phase must be 0 or 1"),
        (["ca", "bbm-reverse", "--n", "1"], PHASE_2_GRID, "phase must be 0 or 1"),
        (["ca", "dimredux-run", "--n", "1"], "bbm 2 2 0\n..\n..\n", "circumference"),
        (["ca", "dimredux-verify", "--n", "1"], "bbm 2 2 0\n..\n..\n", "circumference"),
        (["ca", "strobe-demo", "--t", "3", "--n", "1", "--ring", "0"], None, "at least one cell"),
        (["plb", "validate"], FIG_IET, "expected 'plb N'"),
        (["plb", "validate"], HUGE_PLB_HEADER, "error: plb header: '999"),
        (["plb", "apply", "--x", "4"], "plb 4\npiece 0 4 1 0\n", "4 outside [0,4)"),
        (["plb", "iterate", "--x", "-1", "--n", "1"], "plb 4\npiece 0 4 1 0\n", "-1 outside [0,4)"),
        (["plb", "compose", "--files", "doc.txt"], FIG_IET, "expected 'plb N'"),
        (["plb", "riffle", "--n", "1"], None, "at least two cards"),
        (["plb", "rotate", "--k", "1", "--low"], None, "at least two bits"),
        (["iet", "build"], "plb 4\npiece 0 4 1 0\n", "expected 'iet N'"),
        (["iet", "solve", "--i", "15", "--n", "1"], FIG_IET, "point 15 outside [0, 15)"),
        (["iet", "three-gap", "--modulus", "10", "--step", "3", "--count", "-1"], None,
         "must be positive"),
        pytest.param(
            ["plb", "iterate", "--x", "5", "--n", str(10**20)], FLIPPED_ROTATION, "budget",
            marks=pytest.mark.xfail(
                raises=subprocess.TimeoutExpired, strict=True,
                reason="a walk with no power path has no step budget yet (ROADMAP item 4)",
            ),
        ),
    ],
    ids=["count-cubic-0", "second-cycle-cubic-0", "one-vertex-cycle", "sweep-0", "sweep-minus-1",
         "oracle-count-minus-1", "circuit-eval-digit-2", "circuit-eval-huge-wire",
         "circuit-iterate-width", "circuit-invert-arity", "circuit-parity-arity", "plb-from-circuit-arity",
         "lift-bennett-width", "lift-exact-not-square", "summation-bad-constant",
         "clock-cat-0", "leaf-walk-k-0", "leaf-compile-too-long", "leaf-compile-too-short",
         "second-cycle-loop-edge", "count-no-edge", "bbm-run-phase-2", "bbm-reverse-phase-2",
         "dimredux-run-2x2",
         "dimredux-verify-2x2", "strobe-ring-0", "plb-validate-iet", "plb-validate-huge-header",
         "plb-apply-at-n",
         "plb-iterate-minus-1", "plb-compose-iet", "riffle-1", "rotate-low-1", "iet-build-plb",
         "iet-solve-at-n", "three-gap-count-minus-1", "plb-iterate-walk-hang"],
)
def test_degenerate_inputs_are_one_error_line(tmp_path, argv, document, message):
    # one degenerate input per subcommand but verify all: an empty graph, a
    # one-vertex cycle, a bad digit, width or gate, a size below its floor,
    # a point outside the map, a document of the wrong kind, a number too
    # long to parse; each child must answer within seconds, on one error
    # line of bounded length
    if document == "k4":
        document = formats.write_cubic(graphs.complete_graph_k4())
    if document is not None:
        (tmp_path / "doc.txt").write_text(document)
        if "--files" not in argv:
            argv = [*argv, "--file", "doc.txt"]
    done = run_fresh(["-m", "ibx.cli", *argv], tmp_path, preexec_fn=_limit_address_space, timeout=5)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert len(done.stderr) <= len("error: \n") + cli.MAX_ERROR_CHARS
    assert message in done.stderr


def test_widest_circuit_document_parses_in_bounded_memory(tmp_path):
    # Bit masks for these gate lines would take about 28 KiB a gate, 1.7 GB
    # in all: more than the child's whole address space.
    top = formats.MAX_WIRES - 1
    lines = [f"wires {formats.MAX_WIRES}"]
    lines += (f"fredkin {i % (top // 2)} {top} {top // 2}" for i in range(60_000))
    (tmp_path / "wide.rc").write_text("\n".join(lines) + "\n")
    done = run_fresh(["-m", "ibx.cli", "circuit", "parity", "--file", "wide.rc"], tmp_path,
                     preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "even"


def test_a_circuit_document_over_the_gate_cap_is_one_error_line(tmp_path):
    # one gate line over the cap, rejected before any gate is built
    lines = ["wires 20"] + [f"cnot {i % 19} 19" for i in range(formats.MAX_GATES + 1)]
    (tmp_path / "long.rc").write_text("\n".join(lines) + "\n")
    done = run_fresh(["-m", "ibx.cli", "circuit", "parity", "--file", "long.rc"], tmp_path,
                     preexec_fn=_limit_address_space)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "gates exceed the cap of 65536" in done.stderr


@pytest.mark.parametrize("width, tables, entries", [(20, 0, 0), (12, 1, 4096)])
def test_a_circuit_document_at_the_gate_cap_runs_in_bounded_memory(tmp_path, width, tables, entries):
    # exactly MAX_GATES gate lines: above 12 wires the wire list and no
    # table, up to 12 wires one table of 2**width entries each way
    top = width - 1
    lines = [f"wires {width}"] + [f"toffoli {i % top} {(i + 5) % top} {top}"
                                  for i in range(formats.MAX_GATES)]
    (tmp_path / "long.rc").write_text("\n".join(lines) + "\n")
    done = run_fresh(["-m", "ibx.cli", "circuit", "iterate", "--file", "long.rc",
                      "--input", "1" * width, "--n", "10", "--report"], tmp_path,
                     preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip()) == width
    counts = json.loads(done.stderr)["step_counts"]
    assert (counts["tables"], counts["table_entries"]) == (tables, entries)


def test_a_circuit_over_the_plb_stage_cap_is_one_error_line(tmp_path):
    # 16 wires at the gate cap would ask circuit_to_plb for millions of stages
    lines = ["wires 16"] + [f"toffoli {i % 16} {(i + 5) % 16} {(i + 11) % 16}"
                            for i in range(formats.MAX_GATES)]
    (tmp_path / "long.rc").write_text("\n".join(lines) + "\n")
    done = run_fresh(["-m", "ibx.cli", "plb", "from-circuit", "--file", "long.rc"], tmp_path,
                     preexec_fn=_limit_address_space)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr == f"error: circuit compiles to more than {plb.MAX_CIRCUIT_PLB_STAGES} stages\n"


@pytest.mark.parametrize(
    "argv, flag, cap",
    [
        (["plb", "rotate", "--low"], "--k", cli.MAX_ROTATE_BITS),
        (["ca", "strobe-demo", "--t", "3", "--n", "1"], "--ring", cli.MAX_STROBE_RING),
        (["leaf", "walk", "--k", "40"], "--length", cli.MAX_PATH_LENGTH),
        (["leaf", "walk"], "--k", cli.MAX_LEAF_BITS),
        (["ca", "strobe-demo", "--n", "1"], "--t", cli.MAX_STROBE_PERIOD),
        (["iet", "three-gap", "--modulus", "1000", "--step", "7"], "--count", cli.MAX_GAP_COUNT),
        (["iet", "three-gap"], "--sweep", cli.MAX_GAP_SWEEP),
        (["reduce", "oracle", "--fn", "increment", "--count", "1", "--input", "0" * cli.MAX_MAP_WIDTH],
         "--width", cli.MAX_MAP_WIDTH),
        (["ca", "strobe-demo", "--t", "3", "--ring", "1024"], "--n", cli.MAX_STROBE_CELL_STEPS // 1024),
    ],
)
def test_arguments_run_up_to_their_cap(capsys, argv, flag, cap):
    rc, out, err = run_cli(capsys, *argv, flag, str(cap))
    assert rc == 0 and out and err == ""
    rc, out, err = run_cli(capsys, *argv, flag, str(cap + 1))
    assert rc == 1 and out == ""
    assert err == f"error: {flag} {cap + 1} exceeds the cap of {cap}\n"


def test_import_ibx_is_lazy(tmp_path):
    code = """
import importlib, sys
import ibx
assert [m for m in sys.modules if m.startswith("ibx.")] == [], sorted(sys.modules)
for name in ibx.__all__:
    home = importlib.import_module("ibx." + ibx._HOME[name])
    assert getattr(ibx, name) is getattr(home, name), name
assert set(ibx.__all__) <= set(dir(ibx))
try:
    ibx.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    done = run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_importing_the_array_free_layers_leaves_numpy_out(tmp_path):
    # a module-level numpy import in any of them would show here
    code = """
import sys
import ibx.ca, ibx.circuits, ibx.formats, ibx.kernel
assert "numpy" not in sys.modules, "numpy imported"
"""
    done = run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_importing_every_layer_loads_no_dataclasses_or_inspect(tmp_path):
    # importing dataclasses (and with it inspect) costs every command
    # milliseconds of start-up that no record needs
    code = """
import sys
before = set(sys.modules)
import ibx.cli, ibx.ca, ibx.circuits, ibx.formats, ibx.graphs, ibx.iet, ibx.kernel, ibx.plb, ibx.reductions
loaded = set(sys.modules) - before
assert not {"dataclasses", "inspect"} & loaded, sorted(loaded)
"""
    done = run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_a_command_that_reads_no_file_loads_no_hashlib(tmp_path):
    # the digest of --report's input files is the only use of hashlib
    code = """
import sys
before = set(sys.modules)
from ibx import cli
assert cli.main(["plb", "riffle", "--n", "13"]) == 0
assert "hashlib" not in set(sys.modules) - before
"""
    done = run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "plb 13\npiece 0 7 2 0\npiece 7 13 2 -13\n"


def test_orders_and_parity_run_without_numpy(tmp_path):
    code = """
import random, sys
from ibx import circuits, kernel, plb
assert plb.permutation_order(plb.riffle(13)) == 12
assert circuits.parity([1, 0, 2]) == "odd"
gates = (circuits.ReversibleGate("toffoli", (0, 1, 2)), circuits.ReversibleGate("swap", (0, 1)))
assert circuits.circuit_parity(circuits.ReversibleCircuit(3, gates[:1])) == "odd"
assert circuits.circuit_parity(circuits.ReversibleCircuit(3, gates)) == "odd"
assert circuits.circuit_parity(circuits.ReversibleCircuit(2, gates[1:])) == "odd"
assert kernel.check_bijection_exhaustive(kernel.cat_map(5)).ok
cat = kernel.cat_map(5)
assert list(kernel.images(cat)) == [cat.forward(v) for v in range(64)]
halve = kernel.Bijection(3, lambda v: v // 2)
zero, one = kernel.Bitstring(0, 3), kernel.Bitstring(1, 3)
assert kernel.check_bijection_exhaustive(halve) == kernel.BijectionCheck(False, (zero, one), "collision")
rng = random.Random(12)
kinds = rng.choices(list(circuits.GATE_ARITY), k=50)
c = circuits.ReversibleCircuit(12, tuple(
    circuits.gate(k, *rng.sample(range(12), circuits.GATE_ARITY[k])) for k in kinds))
perm = circuits.permutation_of(c)
assert perm == [c.eval_int(v) for v in range(1 << 12)]
assert list(kernel.images(c.as_bijection())) == perm
clear_low = lambda wires, ones: wires[:-1] + [0]
keep = lambda wires, ones: wires
low = kernel.Bijection(13, lambda v: v & ~1, lambda v: v, sliced=(clear_low, keep))
assert kernel.check_bijection_exhaustive(low).reason == "collision"
assert "numpy" not in sys.modules
"""
    done = run_fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_console_script_installed(tmp_path):
    exe = shutil.which("ibx")
    assert exe, "console script not on PATH"
    path = tmp_path / "t.iet"
    path.write_text(FIG_IET)
    done = subprocess.run(
        [exe, "iet", "solve", "--file", str(path), "--i", "6", "--n", "1"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "10"


# ---------------------------------------------------------------------------
# compiled answers against references built from the inputs alone


def run_quiet(*argv):
    """cli.main in process, its streams captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@st.composite
def stock_maps(draw):
    """A stock map's CLI flags, its width and its forward map, written from
    the map's definition."""
    kind = draw(st.sampled_from(["identity", "increment", "rotl", "add", "cat"]))
    if kind == "cat":
        n = draw(st.integers(2, 16))
        half = (n - 1).bit_length()

        def cat(v):
            x, y = v >> half, v & ((1 << half) - 1)
            if x >= n or y >= n:
                return v
            return (2 * x + y) % n << half | (x + y) % n

        return ["--fn", f"cat:{n}"], 2 * half, cat
    w = draw(st.integers(1, 8))
    mask = (1 << w) - 1
    flags = ["--width", str(w)]
    if kind == "identity":
        return ["--fn", "identity", *flags], w, lambda x: x
    if kind == "increment":
        return ["--fn", "increment", *flags], w, lambda x: (x + 1) & mask
    if kind == "rotl":
        return ["--fn", "rotl", *flags], w, lambda x: (x << 1 | x >> (w - 1)) & mask
    c = draw(st.integers(-300, 300))
    return ["--fn", f"add:{c}", *flags], w, lambda x: (x + c) & mask


@settings(max_examples=60, deadline=None)
@given(stock_maps(), st.data())
def test_reduce_answers_equal_the_maps_written_from_their_definitions(stock, data):
    flags, w, f = stock
    x = data.draw(st.integers(0, (1 << w) - 1))
    orbit = [x]
    while f(orbit[-1]) != x:
        orbit.append(f(orbit[-1]))
    length = len(orbit)  # the start's return time
    n = data.draw(st.sampled_from([0, 1, length, length + 1, 10**20 + 7]))
    n *= data.draw(st.sampled_from([1, -1]))
    text = format(x, f"0{w}b")
    assert run_quiet("reduce", "summation", *flags, "--x", text) == (0, format(f(x), f"0{w}b") + "\n", "")
    for action, args in (("clock", ["--x", text, "--n", str(n)]),
                         ("oracle", ["--input", text, "--count", str(n)])):
        rc, out, err = run_quiet("reduce", action, *flags, *args)
        if n < 0:  # both counts must be nonnegative
            assert (rc, out) == (1, "") and err.startswith("error:"), (action, err)
        else:
            assert (rc, out, err) == (0, format(orbit[n % length], f"0{w}b") + "\n", ""), action


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**64), st.data())
def test_leaf_commands_land_on_the_far_end_of_the_seeded_path(k, seed, data):
    length = data.draw(st.integers(2, min(1 << k, 64)))
    far = random.Random(seed).sample(range(2**k), length)[-1]
    for action in ("walk", "compile"):
        argv = ["leaf", action, "--k", str(k), "--length", str(length), "--seed", str(seed)]
        assert run_quiet(*argv) == (0, format(far, f"0{k}b") + "\n", ""), action


# ---------------------------------------------------------------------------
# rerouted answers against references written from the documents alone


def scan_apply(pieces, x):
    """The image of x under a ``piece lo hi mult off`` list, by a scan."""
    for lo, hi, mult, off in pieces:
        if lo <= x < hi:
            return mult * x + off
    raise AssertionError(f"{x} in no piece")


@st.composite
def exchange_documents(draw, flips=False):
    """N and the blocks of [0, N) put down in a drawn order, each a piece
    (lo, hi, mult, off), listed in domain order; with ``flips`` some are
    put down reversed (mult -1)."""
    n = draw(st.integers(1, 600))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 7)))) if n > 1 else []
    blocks = list(zip([0, *cuts], [*cuts, n]))
    order = draw(st.permutations(range(len(blocks))))
    starts, at = {}, 0
    for b in order:
        starts[b], at = at, at + blocks[b][1] - blocks[b][0]
    pieces = []
    for b, (lo, hi) in enumerate(blocks):
        if flips and draw(st.booleans()):
            pieces.append((lo, hi, -1, starts[b] + hi - 1))
        else:
            pieces.append((lo, hi, 1, starts[b] - lo))
    return n, pieces


@st.composite
def riffle_documents(draw):
    """The perfect riffle of N cards, written from its definition."""
    n = draw(st.integers(2, 600))
    half = (n + 1) // 2
    return n, [(0, half, 2, 0), (half, n, 2, 1 - n if n % 2 == 0 else -n)]


def scanned_power(pieces, x, data):
    """A drawn count n in {0, ±1, ±L, ±(L+1), ±(10**20 + 7)}, L the orbit
    length of x, and x's n-th image, read off the scanned orbit."""
    orbit = [x]
    while scan_apply(pieces, orbit[-1]) != x:
        orbit.append(scan_apply(pieces, orbit[-1]))
    size = len(orbit)
    n = data.draw(st.sampled_from([0, 1, size, size + 1, 10**20 + 7]))
    n *= data.draw(st.sampled_from([1, -1]))
    return n, orbit[n % size]


def write_plb_file(tmp_path_factory, n_points, pieces):
    path = tmp_path_factory.mktemp("plb") / "t.plb"
    path.write_text(f"plb {n_points}\n" + "".join(f"piece {lo} {hi} {m} {o}\n" for lo, hi, m, o in pieces))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(st.one_of(exchange_documents(), exchange_documents(flips=True), riffle_documents()), st.data())
def test_plb_apply_and_its_inverse_equal_a_piece_scan(tmp_path_factory, doc, data):
    n_points, pieces = doc
    path = write_plb_file(tmp_path_factory, n_points, pieces)
    x, y = (data.draw(st.integers(0, n_points - 1)) for _ in range(2))
    preimages = [v for v in range(n_points) if scan_apply(pieces, v) == y]
    assert len(preimages) == 1
    assert run_quiet("plb", "apply", "--file", path, "--x", str(x)) == (0, f"{scan_apply(pieces, x)}\n", "")
    assert run_quiet("plb", "apply", "--file", path, "--x", str(y), "--inverse") == (0, f"{preimages[0]}\n", "")


@settings(max_examples=60, deadline=None)
@given(st.one_of(exchange_documents(), exchange_documents(flips=True), riffle_documents()), st.data())
def test_plb_iterate_equals_a_piece_scan(tmp_path_factory, doc, data):
    n_points, pieces = doc
    path = write_plb_file(tmp_path_factory, n_points, pieces)
    x = data.draw(st.integers(0, n_points - 1))
    n, want = scanned_power(pieces, x, data)
    argv = ["plb", "iterate", "--file", path, "--x", str(x), "--n", str(n)]
    assert run_quiet(*argv) == (0, f"{want}\n", "")


@settings(max_examples=60, deadline=None)
@given(exchange_documents(), st.data())
def test_iet_solve_equals_a_piece_scan(tmp_path_factory, doc, data):
    n_points, pieces = doc
    path = tmp_path_factory.mktemp("iet") / "t.iet"
    path.write_text(f"iet {n_points}\n" + "".join(f"piece {lo} {hi} {o}\n" for lo, hi, _, o in pieces))
    i = data.draw(st.integers(0, n_points - 1))
    n, want = scanned_power(pieces, i, data)
    assert run_quiet("iet", "solve", "--file", str(path), "--i", str(i), "--n", str(n)) == (0, f"{want}\n", "")


def billiard_block(tl, tr, bl, br):
    """The billiard-ball rule on one block: a lone ball crosses to the
    opposite corner, a diagonal pair turns into the other diagonal, every
    other block stays."""
    if tl + tr + bl + br == 1:
        return br, bl, tr, tl
    if (tl, tr, bl, br) in ((1, 0, 0, 1), (0, 1, 1, 0)):
        return 1 - tl, 1 - tr, 1 - bl, 1 - br
    return tl, tr, bl, br


def torus_blocks(h, w, phase):
    """The (tl, tr, bl, br) cells of each block anchored at ``phase``,
    wrapping level at the right edge and the bottom."""
    for r in range(phase, h, 2):
        for c in range(phase, w, 2):
            yield (r, c), (r, (c + 1) % w), ((r + 1) % h, c), ((r + 1) % h, (c + 1) % w)


def helical_blocks(h, w, phase):
    """The blocks anchored at ``phase`` when the row pairs are one strip
    (position u = pair * w + column, the upper row's cells on track 0, the
    lower row's on track 1): an even block is the strip's square at an even
    u; an odd block takes track 1 at u, u + 1 over track 0 at u + w,
    u + w + 1, u odd, so a block past the right edge descends a row pair."""
    size = h * w // 2

    def cell(track, u):
        u %= size
        return 2 * (u // w) + track, u % w

    for u in range(phase, size, 2):
        if phase == 0:
            yield cell(0, u), cell(0, u + 1), cell(1, u), cell(1, u + 1)
        else:
            yield cell(1, u), cell(1, u + 1), cell(0, u + w), cell(0, u + w + 1)


def billiard_run(cells, phase, n, blocks):
    """n blocked updates of the billiard-ball rule (|n| undone for n < 0),
    cell by cell over ``blocks(h, w, anchor)``.  The rule is its own
    inverse, so a step back is the rule on the blocks the step forward
    used, the ones anchored at the other phase."""
    h, w = len(cells), len(cells[0])
    for _ in range(abs(n)):
        anchor = phase if n > 0 else 1 - phase
        out = [row[:] for row in cells]
        for block in blocks(h, w, anchor):
            for (r, c), v in zip(block, billiard_block(*(cells[r][c] for r, c in block))):
                out[r][c] = v
        cells, phase = out, 1 - phase
    return cells, phase


def grid_text(cells, phase):
    rows = ("".join(".#"[v] for v in row) for row in cells)
    return f"bbm {len(cells[0])} {len(cells)} {phase}\n" + "".join(f"{row}\n" for row in rows)


@st.composite
def grids(draw, least):
    """A grid of even sides from ``least`` to 8 and its phase."""
    h, w = (draw(st.sampled_from(range(least, 9, 2))) for _ in range(2))
    cells = [[draw(st.integers(0, 1)) for _ in range(w)] for _ in range(h)]
    return cells, draw(st.integers(0, 1))


def write_grid_file(tmp_path_factory, cells, phase):
    path = tmp_path_factory.mktemp("ca") / "g.grid"
    path.write_text(grid_text(cells, phase))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(grids(2), st.integers(-20, 20))
def test_bbm_commands_equal_a_cell_by_cell_torus_update(tmp_path_factory, grid, n):
    path = write_grid_file(tmp_path_factory, *grid)
    want = grid_text(*billiard_run(*grid, n, torus_blocks))
    assert run_quiet("ca", "bbm-run", "--file", path, "--n", str(n)) == (0, want, "")
    assert run_quiet("ca", "bbm-reverse", "--file", path, "--n", str(-n)) == (0, want, "")


@settings(max_examples=60, deadline=None)
@given(grids(4), st.integers(-20, 20))
def test_dimredux_commands_equal_a_cell_by_cell_helical_update(tmp_path_factory, grid, n):
    path = write_grid_file(tmp_path_factory, *grid)
    want = grid_text(*billiard_run(*grid, n, helical_blocks))
    assert run_quiet("ca", "dimredux-run", "--file", path, "--n", str(n)) == (0, want, "")
    ok = f"ok {n} blocked steps replayed\n"
    assert run_quiet("ca", "dimredux-verify", "--file", path, "--n", str(n)) == (0, ok, "")


# ---------------------------------------------------------------------------
# circuit answers against a gate-by-gate interpreter written here


def run_gate_lines(lines, w, x):
    """The w-bit state x after the gate lines ``kind wire ...``, one gate at
    a time on a list of bits, wire 0 the leftmost bit of the numeral."""
    bits = [int(b) for b in format(x, f"0{w}b")]
    for kind, *wires in (line.split() for line in lines):
        a = [int(t) for t in wires]
        if kind == "not":
            bits[a[0]] ^= 1
        elif kind == "swap":
            bits[a[0]], bits[a[1]] = bits[a[1]], bits[a[0]]
        elif kind == "cnot":
            bits[a[1]] ^= bits[a[0]]
        elif kind == "toffoli":
            bits[a[2]] ^= bits[a[0]] & bits[a[1]]
        elif bits[a[0]]:  # fredkin
            bits[a[1]], bits[a[2]] = bits[a[2]], bits[a[1]]
    return int("".join(map(str, bits)), 2)


@st.composite
def circuit_documents(draw):
    """A width of 1 to 8 wires and up to 12 gate lines on distinct wires."""
    w = draw(st.integers(1, 8))
    kinds = [k for k, arity in circuits.GATE_ARITY.items() if arity <= w]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(w)))[: circuits.GATE_ARITY[kind]]
        lines.append(" ".join([kind, *map(str, wires)]))
    return w, lines


@settings(max_examples=60, deadline=None)
@given(circuit_documents(), st.data())
def test_circuit_commands_equal_a_gate_by_gate_interpreter(tmp_path_factory, doc, data):
    w, lines = doc
    path = tmp_path_factory.mktemp("rc") / "c.rc"
    path.write_text(f"wires {w}\n" + "".join(f"{line}\n" for line in lines))
    table = [run_gate_lines(lines, w, v) for v in range(1 << w)]
    back = {y: v for v, y in enumerate(table)}
    x = data.draw(st.integers(0, (1 << w) - 1))
    text = format(x, f"0{w}b")
    assert run_quiet("circuit", "eval", "--file", str(path), "--input", text) == (
        0, format(table[x], f"0{w}b") + "\n", "")
    rc, out, err = run_quiet("circuit", "invert", "--file", str(path))
    header, *inverse = out.splitlines()
    assert (rc, err, header) == (0, "", f"wires {w}")
    assert [run_gate_lines(inverse, w, y) for y in table] == list(range(1 << w))
    # iterate runs the literal loop, so |n| stays near the orbit lengths
    n = data.draw(st.integers(-(2 ** (w + 1)), 2 ** (w + 1)))
    y = x
    for _ in range(abs(n)):
        y = table[y] if n > 0 else back[y]
    argv = ["circuit", "iterate", "--file", str(path), "--input", text, "--n", str(n)]
    assert run_quiet(*argv) == (0, format(y, f"0{w}b") + "\n", "")


# ---------------------------------------------------------------------------
# lift answers against a bit-by-bit interpreter of the boolean document


def run_boolean_lines(lines, inputs, x):
    """The wire values after the gate lines ``kind out arg ...`` of a
    boolean document, one gate at a time, from the input numeral x (wire 0
    its leftmost bit)."""
    values = dict(enumerate(int(b) for b in format(x, f"0{inputs}b")))
    for kind, out, *args in (line.split() for line in lines):
        a = [values[int(t)] for t in args]
        if kind == "and":
            values[int(out)] = a[0] & a[1]
        elif kind == "or":
            values[int(out)] = a[0] | a[1]
        elif kind == "xor":
            values[int(out)] = a[0] ^ a[1]
        elif kind == "not":
            values[int(out)] = 1 - a[0]
        else:  # copy
            values[int(out)] = a[0]
    return values


def boolean_document(inputs, lines, outputs):
    return f"inputs {inputs}\n" + "".join(f"{line}\n" for line in lines) + f"outputs {' '.join(map(str, outputs))}\n"


@st.composite
def boolean_documents(draw):
    """1 to 6 inputs, up to 10 gates writing fresh wires in any order of
    ids, and 1 to 6 outputs among the defined wires."""
    k = draw(st.integers(1, 6))
    count = draw(st.integers(0, 10))
    fresh = draw(st.permutations(range(k, k + 2 * count)))[:count]
    defined, lines = list(range(k)), []
    for out in fresh:
        kind = draw(st.sampled_from(["and", "or", "xor", "not", "copy"]))
        arity = 1 if kind in ("not", "copy") else 2
        args = [draw(st.sampled_from(defined)) for _ in range(arity)]
        lines.append(" ".join(map(str, [kind, out, *args])))
        defined.append(out)
    outputs = draw(st.lists(st.sampled_from(defined), min_size=1, max_size=6))
    return k, lines, outputs


def boolean_lines_of(k, gates):
    """Boolean gate lines computing the reversible gates ``(kind, wires)``
    on k wires, and the wires that end up holding the k results."""
    current, lines = list(range(k)), []
    for kind, wires in gates:
        if kind == "swap":
            a, b = wires
            current[a], current[b] = current[b], current[a]
            continue
        *controls, target = [current[w] for w in wires]
        if kind == "toffoli":  # the and of the controls on a wire of its own
            lines.append(f"and {k + len(lines)} {controls[0]} {controls[1]}")
            controls = [k + len(lines) - 1]
        out = k + len(lines)
        lines.append(f"xor {out} {controls[0]} {target}" if controls else f"not {out} {target}")
        current[wires[-1]] = out
    return lines, current


@st.composite
def bijection_documents(draw):
    """A k-bit bijection and its inverse as boolean documents: a list of
    reversible not/cnot/toffoli/swap gates written out gate by gate, once
    in order and once reversed."""
    k = draw(st.integers(1, 6))
    arity = {"not": 1, "swap": 2, "cnot": 2, "toffoli": 3}
    kinds = [kind for kind, a in arity.items() if a <= k]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        gates.append((kind, draw(st.permutations(range(k)))[: arity[kind]]))
    forward, inverse = boolean_lines_of(k, gates), boolean_lines_of(k, gates[::-1])
    return k, forward, inverse


@settings(max_examples=60, deadline=None)
@given(boolean_documents(), st.data())
def test_lift_bennett_equals_a_bit_by_bit_interpreter(tmp_path_factory, doc, data):
    k, lines, outputs = doc
    path = tmp_path_factory.mktemp("lift") / "f.bc"
    path.write_text(boolean_document(k, lines, outputs))
    x = data.draw(st.integers(0, (1 << k) - 1))
    values = run_boolean_lines(lines, k, x)
    want = "".join(str(values[w]) for w in outputs) + "\n"
    argv = ["lift", "bennett", "--file", str(path), "--input", format(x, f"0{k}b")]
    assert run_quiet(*argv) == (0, want, "")


@settings(max_examples=60, deadline=None)
@given(bijection_documents(), st.data())
def test_lift_exact_equals_a_bit_by_bit_interpreter(tmp_path_factory, doc, data):
    k, (lines, outputs), (inverse_lines, inverse_outputs) = doc
    folder = tmp_path_factory.mktemp("lift")
    (folder / "f.bc").write_text(boolean_document(k, lines, outputs))
    (folder / "g.bc").write_text(boolean_document(k, inverse_lines, inverse_outputs))
    x = data.draw(st.integers(0, (1 << k) - 1))
    values = run_boolean_lines(lines, k, x)
    want = "".join(str(values[w]) for w in outputs) + "\n"
    for action, extra in (("exact", ["--inverse-file", str(folder / "g.bc")]), ("bennett", [])):
        argv = ["lift", action, "--file", str(folder / "f.bc"), *extra, "--input", format(x, f"0{k}b")]
        assert run_quiet(*argv) == (0, want, ""), action


# ---------------------------------------------------------------------------
# lollipop answers against brute-force Hamiltonian cycles


@st.composite
def hamiltonian_cubic_documents(draw):
    """A cubic graph on 4 to 12 vertices around a Hamiltonian cycle: the
    cycle's edges and a perfect matching of chords, in any order and
    direction."""
    n = draw(st.sampled_from([4, 6, 8, 10, 12]))
    cycle = draw(st.permutations(range(n)))
    ring = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    on_ring = {frozenset(e) for e in ring}
    left, chords = list(range(n)), []
    while left:
        u = left.pop(0)
        options = [v for v in left if frozenset((u, v)) not in on_ring]
        assume(options)
        v = draw(st.sampled_from(options))
        left.remove(v)
        chords.append((u, v))
    edges = [e[::-1] if draw(st.booleans()) else e for e in draw(st.permutations(ring + chords))]
    return n, tuple(cycle), edges


def brute_force_cycles(n, edges):
    """Every Hamiltonian cycle, as the set of its edges, by a depth-first
    search over the simple paths from vertex 0."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    cycles = set()

    def extend(path):
        if len(path) == n:
            if 0 in adj[path[-1]]:
                cycles.add(frozenset(map(frozenset, zip(path, path[1:] + path[:1]))))
            return
        for v in adj[path[-1]]:
            if v not in path:
                extend(path + [v])

    extend([0])
    return cycles


def write_cubic_file(tmp_path_factory, n, edges):
    path = tmp_path_factory.mktemp("cubic") / "g.cubic"
    path.write_text(f"cubic {n}\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(hamiltonian_cubic_documents(), st.data())
def test_lollipop_count_equals_brute_force_cycles(tmp_path_factory, doc, data):
    n, _, edges = doc
    path = write_cubic_file(tmp_path_factory, n, edges)
    cycles = brute_force_cycles(n, edges)
    counts = [sum(frozenset(e) in c for c in cycles) for e in edges]
    want = "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, counts))
    assert run_quiet("lollipop", "count", "--file", path) == (0, want, "")
    (u, v), c = data.draw(st.sampled_from(list(zip(edges, counts))))
    assert run_quiet("lollipop", "count", "--file", path, "--edge", str(u), str(v)) == (0, f"{u} {v} {c}\n", "")


@settings(max_examples=60, deadline=None)
@given(hamiltonian_cubic_documents(), st.data())
def test_lollipop_second_cycle_is_another_brute_force_cycle(tmp_path_factory, doc, data):
    n, cycle, edges = doc
    path = write_cubic_file(tmp_path_factory, n, edges)
    i = data.draw(st.integers(0, n - 1))
    edge = (cycle[i], cycle[(i + 1) % n])[:: data.draw(st.sampled_from([1, -1]))]
    orientation = data.draw(st.sampled_from([0, 1]))
    argv = ["lollipop", "second-cycle", "--file", path, "--cycle", " ".join(map(str, cycle)),
            "--edge", *map(str, edge), "--orientation", str(orientation)]
    rc, out, err = run_quiet(*argv)
    assert (rc, err) == (0, "")
    other = tuple(int(t) for t in out.split())
    found = frozenset(map(frozenset, zip(other, other[1:] + other[:1])))
    given_cycle = frozenset(map(frozenset, zip(cycle, cycle[1:] + cycle[:1])))
    assert len(other) == n and found in brute_force_cycles(n, edges) and found != given_cycle
    assert other[:2] == (edge[::-1] if orientation else edge)
