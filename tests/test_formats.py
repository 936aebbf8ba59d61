"""Round trips and rejection cases for the text formats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibx import ca, circuits, formats, graphs, plb


# ---------------------------------------------------------------------------
# reversible circuits


def test_circuit_round_trip():
    c = circuits.ReversibleCircuit(
        4,
        (
            circuits.gate("not", 0),
            circuits.gate("cnot", 1, 3),
            circuits.gate("toffoli", 0, 1, 2),
            circuits.gate("fredkin", 3, 0, 1),
            circuits.gate("swap", 2, 3),
        ),
    )
    again = formats.parse_circuit(formats.write_circuit(c))
    assert again.width == c.width
    assert again.gates == c.gates


def test_circuit_comments_and_blanks():
    text = """
    # toggles the low wire
    wires 2

    not 0   # the gate itself
    """
    c = formats.parse_circuit(text)
    assert c.width == 2
    assert c.gates == (circuits.gate("not", 0),)


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header at all
        "wires\nnot 0",  # header missing the count
        "gates 2\nnot 0",  # wrong keyword
        "wires two\nnot 0",  # non-integer width
        "wires 2\nnand 0",  # unknown gate
        "wires 2\nnot 0 1",  # arity mismatch
        "wires 2\ncnot 0",  # arity mismatch the other way
        "wires 2\ncnot 0 5",  # wire out of range, from the circuit check
        "wires 2\nnot",  # a gate line with no wires
        "wires 2\nnand",  # an unknown kind with no wires
    ],
)
def test_circuit_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_circuit(text)


def test_circuit_width_is_capped_before_any_gate_is_built(monkeypatch):
    assert formats.parse_circuit(f"wires {formats.MAX_WIRES}\nnot 0\n").width == formats.MAX_WIRES
    built = []
    monkeypatch.setattr(circuits, "gate", lambda *a: built.append(a))
    with pytest.raises(formats.FormatError, match="exceeds the cap"):
        formats.parse_circuit(f"wires {formats.MAX_WIRES + 1}\nnot 0\n")
    assert built == []


def test_circuit_gate_count_is_capped_before_any_gate_is_built(monkeypatch):
    at_cap = "wires 1\n" + "not 0\n" * formats.MAX_GATES
    assert len(formats.parse_circuit(at_cap).gates) == formats.MAX_GATES
    built = []
    monkeypatch.setattr(circuits, "gate", lambda *a: built.append(a))
    with pytest.raises(formats.FormatError, match="65537 gates exceed the cap of 65536"):
        formats.parse_circuit(at_cap + "not 0\n")
    assert built == []


# ---------------------------------------------------------------------------
# classical circuits


def test_classical_round_trip():
    cc = circuits.ClassicalCircuit(
        inputs=3,
        gates=(
            circuits.ClassicalGate("xor", 3, (0, 1)),
            circuits.ClassicalGate("and", 4, (1, 2)),
            circuits.ClassicalGate("not", 5, (4,)),
            circuits.ClassicalGate("copy", 6, (3,)),
        ),
        outputs=(6, 5),
    )
    again = formats.parse_classical(formats.write_classical(cc))
    assert again.inputs == cc.inputs
    assert again.gates == cc.gates
    assert again.outputs == cc.outputs


@pytest.mark.parametrize(
    "text",
    [
        "inputs 2\nxor 2 0 1",  # no outputs line
        "inputs 2\noutputs 0\nxor 2 0 1",  # gate after outputs
        "inputs 2\nnand 2 0 1\noutputs 2",  # unknown kind
        "inputs 2\nxor 2 0\noutputs 2",  # arity mismatch
        "inputs 2\nnot 2 0 1\noutputs 2",  # arity mismatch
        "inputs 2\nxor 1 0 1\noutputs 1",  # rewrites an input wire
        "wires 2\noutputs 0",  # wrong header keyword
        "inputs 2\nand\noutputs 0",  # a gate line with no output field
        "inputs 2\nnand\noutputs 0",  # an unknown kind with no output field
        "inputs 2\nnot 2\noutputs 2",  # an output field and no argument
    ],
)
def test_classical_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_classical(text)


def test_classical_inputs_are_capped_before_any_gate_is_built(monkeypatch):
    top = formats.MAX_WIRES
    text = "inputs {0}\nnot {0} 0\noutputs {0}\n"
    assert formats.parse_classical(text.format(top)).inputs == top
    built = []
    monkeypatch.setattr(circuits, "ClassicalGate", lambda *a: built.append(a))
    with pytest.raises(formats.FormatError, match="inputs 65537 exceeds the cap of 65536"):
        formats.parse_classical(text.format(top + 1))
    assert built == []


# ---------------------------------------------------------------------------
# grids


def test_grid_round_trip():
    cells = np.zeros((4, 6), dtype=np.uint8)
    cells[1, 2] = 1
    cells[3, 5] = 1
    grid = ca.MargolusGrid(cells, 1)
    text = formats.write_grid(grid)
    assert formats.parse_grid(text) == grid
    # the live glyph lands in the row text verbatim
    assert text.splitlines()[2] == "..#..."


def parent_write_grid(grid):
    """write_grid as it read each cell of ``grid.cells``: the reference."""
    h, w = grid.shape
    lines = [f"bbm {w} {h} {grid.phase}"]
    for r in range(h):
        lines.append("".join("#" if grid.cells[r, c] else "." for c in range(w)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(2, 2), (2, 8), (8, 2), (4, 6), (6, 4), (10, 14), (64, 64)])
def test_grid_text_matches_the_cell_by_cell_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for phase in (0, 1):
        for density in (0.0, 0.3, 1.0):
            cells = (rng.random(shape) < density).astype(np.uint8)
            grid = ca.MargolusGrid(cells, phase)
            stepped = ca.margolus_step(grid, ca.bbm_rule())  # a grid that has only planes
            for g in (grid, stepped):
                text = formats.write_grid(g)
                assert text == parent_write_grid(g)
                again = formats.parse_grid(text)
                assert again == g and again.planes == g.planes
                assert np.array_equal(again.cells, g.cells)


def test_grid_hash_rows_are_not_comments():
    text = "bbm 4 2 0\n#..#\n####\n"
    grid = formats.parse_grid(text)
    assert grid.cells.tolist() == [[1, 0, 0, 1], [1, 1, 1, 1]]


def test_grid_comments_around_rows():
    text = "# a lone ball\nbbm 2 2 0\n#.\n..\n# done\n"
    grid = formats.parse_grid(text)
    assert grid.cells.tolist() == [[1, 0], [0, 0]]
    assert grid.phase == 0


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "bbm 2 2\n..\n..",  # header missing the phase
        "grid 2 2 0\n..\n..",  # wrong keyword
        "bbm 2 2 0\n..",  # too few rows
        "bbm 2 2 0\n...\n...",  # row width mismatch
        "bbm 2 2 0\n.x\n..",  # bad glyph
        "bbm 2 2 0\n..\n..\nextra",  # trailing content
        "bbm 3 2 0\n...\n...",  # odd width, from the grid check
    ],
)
def test_grid_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_grid(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("bbm 3 2 0\n...\n...", "grid sides must be even and at least 2"),
        ("bbm 2 1 0\n..", "grid sides must be even and at least 2"),
        ("bbm 2 2 2\n..\n..", "phase must be 0 or 1"),
        ("bbm 2 0 0\n", "grid must be two-dimensional"),
    ],
)
def test_grid_rules_read_as_the_grid_states_them(text, message):
    # parse_grid checks through ca, so its errors are MargolusGrid's words
    with pytest.raises(formats.FormatError, match=f"^{message}$"):
        formats.parse_grid(text)


# ---------------------------------------------------------------------------
# piecewise maps


def test_plb_round_trip_raw():
    raw = [(0, 4, 1, 4), (4, 8, 1, -4)]
    text = formats.write_plb(8, raw)
    domain, pieces = formats.parse_plb(text)
    assert domain == 8
    assert pieces == raw


def test_plb_round_trip_from_pieces():
    t = plb.riffle(13)
    domain, raw = formats.parse_plb(formats.write_plb(t.domain, t.pieces))
    assert plb.validate_plb(domain, raw).pieces == t.pieces


def test_plb_parse_is_unvalidated():
    # overlapping images parse fine; validation is a separate step
    domain, pieces = formats.parse_plb("plb 8\npiece 0 8 1 0\npiece 0 8 1 0")
    assert len(pieces) == 2
    with pytest.raises(plb.PlbValidationError):
        plb.validate_plb(domain, pieces)


@pytest.mark.parametrize(
    "text",
    [
        "plb\npiece 0 8 1 0",
        "iet 8\npiece 0 8 1 0",
        "plb 8\npiece 0 8 1",  # missing field
        "plb 8\npiece 0 8 1 0 0",  # extra field
        "plb 8\nsegment 0 8 1 0",  # wrong keyword
        "plb 8\npiece 0 8 one 0",  # non-integer
    ],
)
def test_plb_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_plb(text)


def test_iet_round_trip():
    raw = [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)]
    text = formats.write_iet(15, raw)
    assert formats.parse_iet(text) == (15, raw)
    t = plb.interval_exchange(15, raw)
    assert formats.parse_iet(formats.write_iet(t.domain, t.pieces)) == (15, raw)


@pytest.mark.parametrize(
    "text",
    ["iet 8\npiece 0 8 0 0", "iet 8\npiece 0 8", "plb 8\npiece 0 8 0", "iet x"],
)
def test_iet_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_iet(text)


# ---------------------------------------------------------------------------
# tagged integer records: plb, iet and cubic share one reader and one writer

RECORD_FORMATS = {
    "plb": (formats.parse_plb, "piece lo hi mult off"),
    "iet": (formats.parse_iet, "piece lo hi off"),
    "cubic": (formats.parse_cubic, "edge u v"),
}


FIG_EXCHANGE = [(0, 4, 11), (4, 6, -4), (6, 7, 4), (7, 15, -5)]


@pytest.mark.parametrize(
    "keyword, write, t",
    [
        ("plb", formats.write_plb, plb.riffle(13)),
        ("iet", formats.write_iet, plb.interval_exchange(15, FIG_EXCHANGE)),
    ],
)
def test_records_round_trip_tuples_and_objects(keyword, write, t):
    parse, record = RECORD_FORMATS[keyword]
    raw = [tuple(getattr(p, n) for n in record.split()[1:]) for p in t.pieces]
    text = write(t.domain, t.pieces)
    assert text == write(t.domain, raw)
    assert text.splitlines()[0] == f"{keyword} {t.domain}"
    assert parse(text) == (t.domain, raw)
    assert parse(write(7, [])) == (7, [])


def _one_record(keyword, fields):
    return f"{keyword} 4\n" + " ".join(fields) + "\n"


@pytest.mark.parametrize("keyword", list(RECORD_FORMATS))
def test_records_reject_malformed_lines(keyword):
    parse, record = RECORD_FORMATS[keyword]
    tag, *names = record.split()
    good = [tag] + ["1"] * len(names)
    expected = f"expected {record!r}"
    for fields in (
        ["entry"] + good[1:],  # wrong tag
        good[:-1],  # a field short
        good + ["1"],  # a field over
    ):
        with pytest.raises(formats.FormatError, match=expected):
            parse(_one_record(keyword, fields))
    with pytest.raises(formats.FormatError, match="not a decimal integer"):
        parse(_one_record(keyword, good[:-1] + ["one"]))
    for text in (" ".join(good) + "\n", "", f"{keyword}\n", f"{keyword} four\n"):
        with pytest.raises(formats.FormatError, match="header"):
            parse(text)


# ---------------------------------------------------------------------------
# graphs


def test_cubic_round_trip():
    g = graphs.petersen_graph()
    text = formats.write_cubic(g)
    assert text.splitlines() == ["cubic 10"] + [f"edge {u} {v}" for u, v in g.edges]
    again = formats.parse_cubic(text)
    assert again.vertex_count == g.vertex_count
    assert set(again.edges) == set(g.edges)


@pytest.mark.parametrize(
    "text",
    [
        "cubic 4\nedge 0 1",  # not 3-regular
        "cubic 2\narc 0 1",  # wrong keyword
        "cubic 4\nedge 0",  # missing endpoint
        "graph 4\nedge 0 1",  # wrong header
        "cubic 4\nedge 0 9",  # endpoint out of range
    ],
)
def test_cubic_rejects(text):
    with pytest.raises(formats.FormatError):
        formats.parse_cubic(text)


def test_vertex_list_round_trip():
    cycle = (0, 1, 2, 3)
    assert formats.parse_vertex_list(formats.write_vertex_list(cycle)) == cycle


def test_vertex_list_single_line_only():
    with pytest.raises(formats.FormatError):
        formats.parse_vertex_list("0 1\n2 3")
    with pytest.raises(formats.FormatError):
        formats.parse_vertex_list("")


# ---------------------------------------------------------------------------
# every parser on mixed-up tokens

PARSERS = [
    formats.parse_circuit,
    formats.parse_classical,
    formats.parse_grid,
    formats.parse_plb,
    formats.parse_iet,
    formats.parse_cubic,
    formats.parse_vertex_list,
]
KEYWORDS = ["wires", "inputs", "outputs", "bbm", "plb", "iet", "cubic", "piece", "edge"]
TOKENS = st.one_of(
    st.sampled_from(KEYWORDS + list(circuits.GATE_ARITY) + list(circuits.CLASSICAL_ARITY)),
    st.sampled_from(["#", "....", ".#.#", " ", "\t", "\n", "\n\n"]),
    st.integers(-3, 24).map(str),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(TOKENS, max_size=40).map(" ".join))
@example("cubic\t0 \t ")
def test_parsers_return_or_raise_value_errors(text):
    """Each parser returns a value or raises a ValueError on any text."""
    for parse in PARSERS:
        try:
            parse(text)
        except ValueError:
            pass
