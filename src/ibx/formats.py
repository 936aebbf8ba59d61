"""Line-oriented text formats for circuits, grids, maps, and graphs.

Every format is plain text: one record per line, ``#`` starting a comment,
integers in decimal with no size limit.  Parsers take the file content as
a string and writers return one, so file handling stays with the caller.

Grid rows are the one exception to comment stripping: a row is read
verbatim, since ``#`` is the live-cell glyph.  Comments around the header
and after the rows are still fine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from .ca import MargolusGrid
    from .circuits import ClassicalCircuit, ReversibleCircuit
    from .graphs import CubicGraph

__all__ = [
    "FormatError",
    "MAX_WIRES",
    "MAX_GATES",
    "parse_circuit",
    "write_circuit",
    "parse_classical",
    "write_classical",
    "parse_grid",
    "write_grid",
    "parse_plb",
    "write_plb",
    "parse_iet",
    "write_iet",
    "parse_cubic",
    "write_cubic",
    "parse_vertex_list",
    "write_vertex_list",
]


class FormatError(ValueError):
    """Raised when a text document does not match its format."""


# Declared size: the widest circuit a document may describe, checked before
# any gate is built.  It caps a boolean circuit's inputs too, because a lift
# turns every input into a wire.  Lifts of desk-scale boolean circuits reach
# a few hundred wires.
MAX_WIRES = 1 << 16
# The most gate lines a circuit document may hold, checked the same way, so
# the parse and a wire-list step stay bounded.  The tables do not need it: a
# circuit of at most 12 wires builds one whole table of at most 16 KiB, both
# ways, whatever its gate count, and a wider one builds none.
MAX_GATES = 1 << 16


def _significant_lines(text: str) -> List[List[str]]:
    """Token lists of the non-empty lines, comments removed."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _int(token: str, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise FormatError(f"{what}: {token!r} is not a decimal integer") from None


def _header(rows: List[List[str]], keyword: str) -> int:
    """N from the first row, which must read ``keyword N``."""
    if not rows:
        raise FormatError(f"empty document, expected a {keyword!r} header")
    head = rows[0]
    if head[0] != keyword or len(head) != 2:
        raise FormatError(f"bad header {' '.join(head)!r}, expected '{keyword} N'")
    return _int(head[1], f"{keyword} header")


def parse_circuit(text: str) -> ReversibleCircuit:
    """Reversible circuit: ``wires W`` then one gate per line."""
    from .circuits import ReversibleCircuit, gate

    rows = _significant_lines(text)
    width = _header(rows, "wires")
    if width > MAX_WIRES:
        raise FormatError(f"wires {width} exceeds the cap of {MAX_WIRES}")
    if len(rows) - 1 > MAX_GATES:
        raise FormatError(f"{len(rows) - 1} gates exceed the cap of {MAX_GATES}")
    try:
        gates = tuple(gate(kind, *(_int(t, kind) for t in wires)) for kind, *wires in rows[1:])
        return ReversibleCircuit(width, gates)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_circuit(circuit: ReversibleCircuit) -> str:
    lines = [f"wires {circuit.width}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind, *map(str, g.wires)]))
    return "\n".join(lines) + "\n"


def parse_classical(text: str) -> ClassicalCircuit:
    """Boolean circuit: ``inputs K``, gate lines, then ``outputs w1 ...``."""
    from .circuits import ClassicalCircuit, ClassicalGate

    rows = _significant_lines(text)
    inputs = _header(rows, "inputs")
    if inputs > MAX_WIRES:
        raise FormatError(f"inputs {inputs} exceeds the cap of {MAX_WIRES}")
    outputs_at = [i for i, row in enumerate(rows) if row[0] == "outputs"]
    if not outputs_at:
        raise FormatError("missing outputs line")
    if outputs_at[0] != len(rows) - 1:
        raise FormatError("content after the outputs line")
    gates = []
    try:
        for kind, *fields in rows[1:-1]:
            if not fields:
                raise FormatError(f"{kind} line names no output wire")
            out, *args = (_int(t, kind) for t in fields)
            gates.append(ClassicalGate(kind, out, tuple(args)))
        outputs = tuple(_int(t, "outputs") for t in rows[-1][1:])
        return ClassicalCircuit(inputs, tuple(gates), outputs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_classical(circuit: ClassicalCircuit) -> str:
    lines = [f"inputs {circuit.inputs}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind, str(g.out), *map(str, g.args)]))
    lines.append(" ".join(["outputs", *map(str, circuit.outputs)]))
    return "\n".join(lines) + "\n"


# Grid glyphs and the digits of a grid's strip (see ``ca``).
_DIGITS = str.maketrans(".#", "01")
_GLYPHS = str.maketrans("01", ".#")


def parse_grid(text: str) -> MargolusGrid:
    """Block-automaton grid: ``bbm W H phase`` then H rows of ``.``/``#``."""
    from .ca import CaError, MargolusGrid, _check_grid, _strip_planes

    lines = text.splitlines()
    at = 0
    header = None
    while at < len(lines):
        stripped = lines[at].split("#", 1)[0].strip()
        at += 1
        if stripped:
            header = stripped.split()
            break
    if header is None or header[0] != "bbm" or len(header) != 4:
        raise FormatError("expected a 'bbm W H phase' header")
    width, height, phase = (_int(t, "bbm header") for t in header[1:])
    rows = []
    while at < len(lines) and len(rows) < height:
        line = lines[at].strip()
        at += 1
        if not line:
            continue
        if len(line) != width or set(line) - {".", "#"}:
            raise FormatError(f"bad grid row {line!r}")
        rows.append(line.translate(_DIGITS))
    if len(rows) != height:
        raise FormatError(f"expected {height} rows, found {len(rows)}")
    for raw in lines[at:]:
        if raw.split("#", 1)[0].strip():
            raise FormatError("content after the grid rows")
    try:
        # no rows at all read as a one-dimensional grid, as MargolusGrid([]) does
        _check_grid((height, width) if rows else (0,), phase)
    except CaError as exc:
        raise FormatError(str(exc)) from None
    planes = _strip_planes("".join(rows[0::2]), "".join(rows[1::2]))
    return MargolusGrid._from_planes(planes, (height, width), phase)


def write_grid(grid: MargolusGrid) -> str:
    from .ca import _plane_strip

    h, w = grid.shape
    top, bottom = (s.decode().translate(_GLYPHS) for s in _plane_strip(grid.planes, h * w // 4))
    lines = [f"bbm {w} {h} {grid.phase}"]
    for at in range(0, h * w // 2, w):
        lines += (top[at : at + w], bottom[at : at + w])
    return "\n".join(lines) + "\n"


def _read_records(text: str, keyword: str, record: str) -> Tuple[int, List[Tuple[int, ...]]]:
    """A ``keyword N`` header, then lines shaped like ``record`` (a tag and
    field names, e.g. ``"piece lo hi off"``): N and each line's integers."""
    rows = _significant_lines(text)
    count = _header(rows, keyword)
    tag, *names = record.split()
    records = []
    for row in rows[1:]:
        if row[0] != tag or len(row) != 1 + len(names):
            raise FormatError(f"expected {record!r}")
        records.append(tuple(_int(t, tag) for t in row[1:]))
    return count, records


def _write_records(keyword: str, count: int, record: str, items: Sequence) -> str:
    """Inverse of _read_records.  An item is a tuple of the fields, or an
    object carrying them as attributes named as in ``record``."""
    tag, *names = record.split()
    lines = [f"{keyword} {count}"]
    for item in items:
        fields = [getattr(item, n) for n in names] if hasattr(item, names[0]) else item
        lines.append(" ".join([tag, *map(str, fields)]))
    return "\n".join(lines) + "\n"


def parse_plb(text: str) -> Tuple[int, List[Tuple[int, int, int, int]]]:
    """Piecewise map: ``plb N`` then ``piece lo hi mult off`` lines.

    Returns the raw description unvalidated so that a checker can report
    exactly what is wrong with it.
    """
    return _read_records(text, "plb", "piece lo hi mult off")


def write_plb(domain: int, pieces: Sequence) -> str:
    return _write_records("plb", domain, "piece lo hi mult off", pieces)


def parse_iet(text: str) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Interval exchange: ``iet N`` then ``piece lo hi off`` lines."""
    return _read_records(text, "iet", "piece lo hi off")


def write_iet(domain: int, pieces: Sequence) -> str:
    return _write_records("iet", domain, "piece lo hi off", pieces)


def parse_cubic(text: str) -> CubicGraph:
    """Cubic graph: ``cubic V`` then ``edge u v`` lines."""
    from .graphs import cubic_graph

    n, edges = _read_records(text, "cubic", "edge u v")
    try:
        return cubic_graph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_cubic(g: CubicGraph) -> str:
    return _write_records("cubic", g.vertex_count, "edge u v", g.edges)


def parse_vertex_list(text: str) -> Tuple[int, ...]:
    """A cycle or path given as whitespace-separated vertices on one line."""
    rows = _significant_lines(text)
    if len(rows) != 1:
        raise FormatError("expected a single line of vertices")
    return tuple(_int(t, "vertex") for t in rows[0])


def write_vertex_list(vertices: Sequence[int]) -> str:
    return " ".join(map(str, vertices)) + "\n"
