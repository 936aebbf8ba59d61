"""End-to-end checks of the command-line front end.

Most cases drive ``cli.main`` in process and read the captured streams;
subprocess cases check what a fresh interpreter loads at start-up and
that the installed console script works.  Semantics
are pinned by the module tests, so these focus on plumbing: files in,
payload out, exit codes, the JSON report.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

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


def test_ca_strobe_demo(capsys):
    rc, out, _ = run_cli(capsys, "ca", "strobe-demo", "--t", "3", "--n", "9")
    assert rc == 0
    assert out.strip() == "0 3 6 9"


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


def test_iet_build_huge_domain(tmp_path, capsys):
    n = 10**12
    cuts = [0] + [n // 8 * j + j for j in range(1, 8)] + [n]
    segs = list(zip(cuts, cuts[1:]))
    lines, out = [f"iet {n}"], 0
    for lo, hi in segs[::-1]:
        lines.append(f"piece {lo} {hi} {out - lo}")
        out += hi - lo
    path = tmp_path / "t.iet"
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run_cli(capsys, "iet", "build", "--file", str(path))
    assert rc == 0
    assert out.splitlines()[0].startswith(f"surface domain={n} pieces=8 stripes=3")


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
    arc_steps = iet.arc_of(su, 6).length
    assert json.loads(err)["step_counts"] == dict(sizes, arc_steps=arc_steps)


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
    assert report["step_counts"] == {"states": 8}
    assert isinstance(report["wall_time_s"], float)
    assert report["phases_s"] == {"run": report["wall_time_s"]}
    assert report["loaded"] == sorted(report["loaded"])
    assert {"ibx.circuits", "ibx.formats", "numpy"} <= set(report["loaded"])


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


def test_circuit_parity_huge_width_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "wide.rc"
    path.write_text("wires 99999999999\nnot 0\n")
    rc, out, err = run_cli(capsys, "circuit", "parity", "--file", str(path), "--report")
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["frobnicate"])
    assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# start-up: fresh interpreters, since this process has every module loaded

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_fresh(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


# The cli benchmark workload's array-free commands, on small inputs, and
# one command that builds arrays.
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
}


@pytest.mark.parametrize("name", list(STARTUP_COMMANDS))
def test_only_array_commands_load_numpy(name, tmp_path):
    text = "wires 3\nnot 0\ncnot 0 2\ntoffoli 0 1 2\n"
    (tmp_path / "c.rc").write_text(text)
    t, _ = plb.circuit_to_plb(formats.parse_circuit(text))
    (tmp_path / "c.plb").write_text(formats.write_plb(t.domain, t.pieces))
    (tmp_path / "t.iet").write_text(FIG_IET)
    (tmp_path / "k4.cubic").write_text(formats.write_cubic(graphs.complete_graph_k4()))
    ball_grid(tmp_path)
    done = run_fresh(["-m", "ibx.cli", *STARTUP_COMMANDS[name], "--report"], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.strip().splitlines()[-1])["loaded"]
    assert ("numpy" in loaded) == (name == "ca_bbm_run"), loaded
    if name.startswith(("iet_", "plb_")):
        assert not {"ibx.circuits", "ibx.graphs"} & set(loaded), loaded


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
