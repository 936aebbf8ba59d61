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


def _header(rows: List[List[str]], keyword: str, argc: int) -> List[int]:
    if not rows:
        raise FormatError(f"empty document, expected a {keyword!r} header")
    head = rows[0]
    if head[0] != keyword or len(head) != argc + 1:
        raise FormatError(
            f"bad header {' '.join(head)!r}, expected {keyword!r} with {argc} fields"
        )
    return [_int(tok, f"{keyword} header") for tok in head[1:]]


def parse_circuit(text: str) -> ReversibleCircuit:
    """Reversible circuit: ``wires W`` then one gate per line."""
    from .circuits import GATE_ARITY, ReversibleCircuit, gate

    rows = _significant_lines(text)
    (width,) = _header(rows, "wires", 1)
    gates = []
    for row in rows[1:]:
        kind = row[0]
        if kind not in GATE_ARITY:
            raise FormatError(f"unknown gate {kind!r}")
        if len(row) != 1 + GATE_ARITY[kind]:
            raise FormatError(f"{kind} takes {GATE_ARITY[kind]} wires")
        gates.append(gate(kind, *(_int(t, kind) for t in row[1:])))
    try:
        return ReversibleCircuit(width, tuple(gates))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_circuit(circuit: ReversibleCircuit) -> str:
    lines = [f"wires {circuit.width}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind, *map(str, g.wires)]))
    return "\n".join(lines) + "\n"


def parse_classical(text: str) -> ClassicalCircuit:
    """Boolean circuit: ``inputs K``, gate lines, then ``outputs w1 ...``."""
    from .circuits import CLASSICAL_ARITY, ClassicalCircuit, ClassicalGate

    rows = _significant_lines(text)
    (inputs,) = _header(rows, "inputs", 1)
    gates: List[ClassicalGate] = []
    outputs: Tuple[int, ...] | None = None
    for row in rows[1:]:
        if outputs is not None:
            raise FormatError("content after the outputs line")
        kind = row[0]
        if kind == "outputs":
            outputs = tuple(_int(t, "outputs") for t in row[1:])
            continue
        if kind not in CLASSICAL_ARITY:
            raise FormatError(f"unknown boolean gate {kind!r}")
        if len(row) != 2 + CLASSICAL_ARITY[kind]:
            raise FormatError(f"{kind} takes an output and {CLASSICAL_ARITY[kind]} arguments")
        args = [_int(t, kind) for t in row[1:]]
        gates.append(ClassicalGate(kind, args[0], tuple(args[1:])))
    if outputs is None:
        raise FormatError("missing outputs line")
    try:
        return ClassicalCircuit(inputs, tuple(gates), outputs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_classical(circuit: ClassicalCircuit) -> str:
    lines = [f"inputs {circuit.inputs}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind, str(g.out), *map(str, g.args)]))
    lines.append(" ".join(["outputs", *map(str, circuit.outputs)]))
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> MargolusGrid:
    """Block-automaton grid: ``bbm W H phase`` then H rows of ``.``/``#``."""
    from .ca import CaError, MargolusGrid

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
        rows.append([1 if ch == "#" else 0 for ch in line])
    if len(rows) != height:
        raise FormatError(f"expected {height} rows, found {len(rows)}")
    for raw in lines[at:]:
        if raw.split("#", 1)[0].strip():
            raise FormatError("content after the grid rows")
    try:
        return MargolusGrid(rows, phase)
    except CaError as exc:
        raise FormatError(str(exc)) from None


def write_grid(grid: MargolusGrid) -> str:
    h, w = grid.shape
    lines = [f"bbm {w} {h} {grid.phase}"]
    for r in range(h):
        lines.append("".join("#" if grid.cells[r, c] else "." for c in range(w)))
    return "\n".join(lines) + "\n"


def parse_plb(text: str) -> Tuple[int, List[Tuple[int, int, int, int]]]:
    """Piecewise map: ``plb N`` then ``piece lo hi mult off`` lines.

    Returns the raw description unvalidated so that a checker can report
    exactly what is wrong with it.
    """
    rows = _significant_lines(text)
    (domain,) = _header(rows, "plb", 1)
    pieces = []
    for row in rows[1:]:
        if row[0] != "piece" or len(row) != 5:
            raise FormatError("expected 'piece lo hi mult off'")
        lo, hi, mult, off = (_int(t, "piece") for t in row[1:])
        pieces.append((lo, hi, mult, off))
    return domain, pieces


def write_plb(domain: int, pieces: Sequence) -> str:
    lines = [f"plb {domain}"]
    for p in pieces:
        lo, hi, mult, off = (p.lo, p.hi, p.mult, p.off) if hasattr(p, "lo") else p
        lines.append(f"piece {lo} {hi} {mult} {off}")
    return "\n".join(lines) + "\n"


def parse_iet(text: str) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Interval exchange: ``iet N`` then ``piece lo hi off`` lines."""
    rows = _significant_lines(text)
    (domain,) = _header(rows, "iet", 1)
    pieces = []
    for row in rows[1:]:
        if row[0] != "piece" or len(row) != 4:
            raise FormatError("expected 'piece lo hi off'")
        lo, hi, off = (_int(t, "piece") for t in row[1:])
        pieces.append((lo, hi, off))
    return domain, pieces


def write_iet(domain: int, pieces: Sequence) -> str:
    lines = [f"iet {domain}"]
    for p in pieces:
        lo, hi, off = (p.lo, p.hi, p.off) if hasattr(p, "lo") else p
        lines.append(f"piece {lo} {hi} {off}")
    return "\n".join(lines) + "\n"


def parse_cubic(text: str) -> CubicGraph:
    """Cubic graph: ``cubic V`` then ``edge u v`` lines."""
    from .graphs import cubic_graph

    rows = _significant_lines(text)
    (n,) = _header(rows, "cubic", 1)
    edges = []
    for row in rows[1:]:
        if row[0] != "edge" or len(row) != 3:
            raise FormatError("expected 'edge u v'")
        edges.append((_int(row[1], "edge"), _int(row[2], "edge")))
    try:
        return cubic_graph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_cubic(g: CubicGraph) -> str:
    lines = [f"cubic {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_vertex_list(text: str) -> Tuple[int, ...]:
    """A cycle or path given as whitespace-separated vertices on one line."""
    rows = _significant_lines(text)
    if len(rows) != 1:
        raise FormatError("expected a single line of vertices")
    return tuple(_int(t, "vertex") for t in rows[0])


def write_vertex_list(vertices: Sequence[int]) -> str:
    return " ".join(map(str, vertices)) + "\n"
