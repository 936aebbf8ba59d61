"""Normal-coordinate orbit solver for integer interval exchanges.

An interval exchange on ``{0, .., N-1}`` cuts the domain into translated
pieces.  Gluing the top of a rectangle to its bottom by that exchange (and
the left side to the right) yields a flat surface on which the vertical
lines through the integer points close up into disjoint simple curves.
Following one curve upward from the central horizontal edge for one period
advances the intersection point by exactly one application of the map, so
the n-th iterate of any point can be read off a single traced curve with
modular arithmetic instead of n successive applications.

The surface is triangulated so that the curve is a normal curve: inside a
triangle it runs corner to corner, and its intersections with an edge are
identified purely by their count and position.  Tracing therefore needs
only the per-edge crossing counts, never floating-point geometry.

Tracing works on runs, not points (as in Erickson and Nayyeri's compressed
curve tracing): a run of consecutive crossings entering a triangle leaves
it as at most two runs.  Tracing the central edge as one run for a period d
costs O(k * d) whatever N is and yields the first-return map as a few
translated runs.

That return map is the exchange itself, so powers skip the surface:
``iet_orbit_solve`` answers from the exchange's own induction, which lives
beside ``plb.power_path``, and only checks its arguments here.

Coordinates: x is doubled (``x2 = 2 * x``) so that all triangulation
vertices sit at odd x2 while the traced verticals sit at even x2; rows are
the integer heights ``-s .. s``.  Every edge is recorded oriented
left-to-right, with vertical edges bottom-to-top.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .kernel import _Frozen
from .plb import PiecewiseLinearBijection, _certify, _exchange_power, is_exchange

__all__ = [
    "IetError", "Point", "Triangle", "Port", "Edge", "TriangulatedSurface",
    "Arc", "IetSurface", "build_surface", "validate_normal_coords", "arc_of",
    "iet_orbit_solve", "three_gap_check", "three_gap_max_distinct",
]


class IetError(ValueError):
    """Raised for malformed exchanges or surfaces that fail validation."""


# A vertex: (x2, y) with x2 the doubled horizontal coordinate.
Point = Tuple[int, int]
# A run of crossings (edge, port, a, b, s, o): central crossings i in [a, b)
# sit at index s * i + o of edge (s = +1 or -1), about to enter by port.
Run = Tuple[int, int, int, int, int, int]


class Triangle(NamedTuple):
    """Corner points in counterclockwise order."""

    vertices: Tuple[Point, Point, Point]

    def side(self, i: int) -> Tuple[Point, Point]:
        """Directed side i, from vertex i to vertex i + 1."""
        return self.vertices[i], self.vertices[(i + 1) % 3]


class Port(NamedTuple):
    """One attachment of an edge to a triangle side.

    aligned is True when the side's counterclockwise direction agrees with
    the edge's canonical (left-to-right / bottom-to-top) orientation.
    """

    triangle: int
    side: int
    aligned: bool


class Edge(NamedTuple):
    """A glued edge of the surface.

    Boundary identifications are resolved before edges are interned, so
    every edge has exactly two ports and the key names its canonical
    geometric representative.
    """

    key: Tuple[Point, Point]
    crossings: int
    ports: Tuple[Port, Port]


class TriangulatedSurface(NamedTuple):
    triangles: Tuple[Triangle, ...]
    edges: Tuple[Edge, ...]
    # side_edges[t][i] = edge id of triangle t's side i
    side_edges: Tuple[Tuple[int, int, int], ...]
    # side_counts[t] = crossing counts of the three sides, for tracing
    side_counts: Tuple[Tuple[int, int, int], ...]


class Arc(NamedTuple):
    """A closed component of the traced curve.

    orbit lists its central crossings in trace order, one every period
    triangle steps; the two define the arc, and the rest is read off them.
    """

    orbit: Tuple[int, ...]
    period: int

    @property
    def length(self) -> int:
        """Triangle steps once around the closed curve."""
        return self.period * len(self.orbit)


class IetSurface(_Frozen):
    """A built surface together with its tracing bookkeeping.

    period is the uniform number of trace steps between consecutive
    central-edge crossings; it is measured from the surface, not assumed.
    returns is the traced first-return map: sorted runs (lo, hi, off)
    sending central crossing i in [lo, hi) to i + off, proven equal to the
    exchange.  Power queries run on the exchange, never on a surface.
    arc_of memoizes each crossing's arc in _arcs, and bisects the run
    starts and offsets that construction splits out of returns, kept in
    _return_runs.
    """

    _fields = ("transform", "surface", "central", "up_port", "stripes", "period", "returns")
    transform: PiecewiseLinearBijection
    surface: TriangulatedSurface
    central: int
    up_port: int
    stripes: int
    period: int
    returns: Tuple[Tuple[int, int, int], ...]

    def __init__(
        self,
        transform: PiecewiseLinearBijection,
        surface: TriangulatedSurface,
        central: int,
        up_port: int,
        stripes: int,
        period: int,
        returns: Tuple[Tuple[int, int, int], ...],
    ) -> None:
        for name, value in zip(self._fields, (transform, surface, central, up_port, stripes, period, returns)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_arcs", {})
        object.__setattr__(self, "_return_runs", ([r[0] for r in returns], [r[2] for r in returns]))

    @property
    def width(self) -> int:
        return self.transform.domain


def _check_exchange(transform: PiecewiseLinearBijection) -> None:
    """Refuse a map with a piece that is no translation, a one-point piece
    included: the surface reads each piece's offset as its shift."""
    if not is_exchange(transform):
        raise IetError("not an interval exchange: some piece scales")


def _check_point(i: int, width: int) -> None:
    if not 0 <= i < width:
        raise IetError(f"point {i} outside [0, {width})")


def _thinned_levels(interior: List[int], stripes: int) -> List[List[int]]:
    """Cut positions per row, from the unsubdivided row 0 out to row s.

    Each thinning keeps every other cut, so each coarse segment contains
    at most one finer cut and s halvings erase all of them.
    """
    levels: List[List[int]] = [[] for _ in range(stripes + 1)]
    levels[stripes] = list(interior)
    for r in range(stripes, 0, -1):
        levels[r - 1] = levels[r][1::2]
    if levels[0]:
        raise IetError("central row still subdivided; too few stripes")
    return levels


def _emit_stripe(
    triangles: List[Triangle],
    coarse: Sequence[int],
    fine: Sequence[int],
    n2: int,
    y_lo: int,
    y_hi: int,
    split_top: bool,
) -> None:
    """Triangulate one horizontal stripe.

    Cells are bounded by verticals at the coarse cuts; the finer row adds
    at most one extra cut per cell, on the top boundary for the upper half
    and on the bottom for the mirrored lower half.
    """
    bounds = [-1] + list(coarse) + [n2 - 1]
    kept = set(coarse)
    extra = [c for c in fine if c not in kept]
    pos = 0
    for a, b in zip(bounds, bounds[1:]):
        mids = []
        while pos < len(extra) and extra[pos] < b:
            if extra[pos] > a:
                mids.append(extra[pos])
            pos += 1
        if not mids:
            triangles.append(Triangle(((a, y_lo), (b, y_lo), (b, y_hi))))
            triangles.append(Triangle(((a, y_lo), (b, y_hi), (a, y_hi))))
            continue
        if len(mids) > 1:
            raise IetError("stripe cell split more than once")
        (m,) = mids
        if split_top:
            triangles.append(Triangle(((a, y_lo), (b, y_lo), (m, y_hi))))
            triangles.append(Triangle(((a, y_lo), (m, y_hi), (a, y_hi))))
            triangles.append(Triangle(((b, y_lo), (b, y_hi), (m, y_hi))))
        else:
            triangles.append(Triangle(((a, y_lo), (m, y_lo), (a, y_hi))))
            triangles.append(Triangle(((m, y_lo), (b, y_hi), (a, y_hi))))
            triangles.append(Triangle(((m, y_lo), (b, y_lo), (b, y_hi))))


def _canonical_side(
    v1: Point, v2: Point, n2: int, stripes: int, images: Sequence[Tuple[int, int, int]]
) -> Tuple[Point, Point]:
    """Map a directed side into the frame of its glued partner.

    The right boundary column translates onto the left one; each bottom
    boundary segment lies in an output interval and translates onto its
    piece's input segment on the top.  Interior sides pass through
    unchanged.  ``images`` holds the output intervals sorted, so a segment
    finds its interval by bisection.
    """
    if v1[0] == n2 - 1 and v2[0] == n2 - 1:
        return (-1, v1[1]), (-1, v2[1])
    if v1[1] == -stripes and v2[1] == -stripes:
        lo = min(v1[0], v2[0])
        hi = max(v1[0], v2[0])
        i = bisect_right(images, lo, key=lambda img: img[0]) - 1
        if i >= 0 and hi <= images[i][1]:
            shift = 2 * images[i][2]
            return (v1[0] - shift, stripes), (v2[0] - shift, stripes)
        raise IetError("bottom boundary segment matches no output interval")
    return v1, v2


def build_surface(transform: PiecewiseLinearBijection) -> IetSurface:
    """Triangulate the glued rectangle of an interval exchange.

    The rectangle spans x in [-1/2, N - 1/2] with s stripes of triangles
    above and below an unsubdivided full-width central edge, where
    s = max(1, ceil(log2 k)) for k pieces.  The input interval endpoints
    subdivide the top boundary and the output endpoints the bottom one;
    each row inward keeps every other cut so the subdivision dies out by
    the central row.

    The whole central edge is then traced upward as one run until it
    returns; every part must return after the same number of steps d (the
    period), and the resulting first-return map must equal the exchange
    exactly.  Both checks cost O(k * d), not O(N).
    """
    _check_exchange(transform)
    t = _certify(transform)
    n = t.domain
    n2 = 2 * n
    k = len(t.pieces)
    stripes = max(1, (k - 1).bit_length())

    input_cuts = [2 * p.lo - 1 for p in t.pieces[1:]]
    output_cuts = [2 * v - 1 for v in sorted(p.lo + p.off for p in t.pieces)[1:]]
    up = _thinned_levels(input_cuts, stripes)
    down = _thinned_levels(output_cuts, stripes)

    triangles: List[Triangle] = []
    for r in range(1, stripes + 1):
        _emit_stripe(triangles, up[r - 1], up[r], n2, r - 1, r, split_top=True)
        _emit_stripe(triangles, down[r - 1], down[r], n2, -r, -r + 1, split_top=False)

    images = sorted((2 * (p.lo + p.off) - 1, 2 * (p.hi + p.off) - 1, p.off) for p in t.pieces)

    # Intern edges: canonicalize glued sides, then demand exactly two ports
    # per edge with opposite alignment (an orientable gluing).
    registry: Dict[Tuple[Point, Point], List[Port]] = {}
    for ti, tri in enumerate(triangles):
        for si in range(3):
            v1, v2 = tri.side(si)
            w1, w2 = _canonical_side(v1, v2, n2, stripes, images)
            key = (w1, w2) if w1 < w2 else (w2, w1)
            registry.setdefault(key, []).append(Port(ti, si, w1 < w2))

    edges: List[Edge] = []
    side_to_edge: Dict[Tuple[int, int], int] = {}
    for key in sorted(registry):
        ports = registry[key]
        if len(ports) != 2:
            raise IetError(f"edge {key} glued {len(ports)} times, expected 2")
        if ports[0].aligned == ports[1].aligned:
            raise IetError(f"edge {key} glued without flipping orientation")
        # Vertices sit at odd doubled coordinates and the integer verticals
        # at even ones, so an edge spanning [a, b] in x2 is crossed (b - a) / 2
        # times and a vertical edge never.
        count = abs(key[1][0] - key[0][0]) // 2
        eid = len(edges)
        edges.append(Edge(key, count, (ports[0], ports[1])))
        for p in ports:
            side_to_edge[(p.triangle, p.side)] = eid

    side_edges = tuple(
        tuple(side_to_edge[(ti, si)] for si in range(3)) for ti in range(len(triangles))
    )
    side_counts = tuple(tuple(edges[e].crossings for e in trio) for trio in side_edges)
    surface = TriangulatedSurface(tuple(triangles), tuple(edges), side_edges, side_counts)
    validate_normal_coords(surface, [e.crossings for e in edges])

    central_key = ((-1, 0), (n2 - 1, 0))
    central = next((i for i, e in enumerate(edges) if e.key == central_key), None)
    if central is None or edges[central].crossings != n:
        raise IetError("central edge missing or with wrong crossing count")
    up_port = next(
        pi for pi, p in enumerate(edges[central].ports)
        if any(v[1] > 0 for v in triangles[p.triangle].vertices)
    )

    period, returns = _trace_returns(surface, central, up_port, n, stripes)
    su = IetSurface(t, surface, central, up_port, stripes, period, returns)
    _check_trace_agreement(su)
    return su


def _trace_returns(
    surface: TriangulatedSurface, central: int, up_port: int, n: int, stripes: int
) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """Trace the n crossings of the central edge upward, entering by
    up_port, as one run until it returns.

    The step count d at which the first part lands on the central edge is
    the period; every part must land there at that step, entering upward,
    and in the same order as it left.  Returns d and the return runs.
    """
    runs = [(central, up_port, 0, n, 1, 0)]
    for period in range(1, 40 * stripes + 41):
        runs = [part for run in runs for part in _trace_run(surface, run)]
        if any(run[0] == central for run in runs):
            break
    else:
        raise IetError("trace failed to return to the central edge")
    returns = []
    for edge, port, a, b, s, o in sorted(runs, key=lambda run: run[2]):
        if edge != central or port != up_port:
            raise IetError(f"nonuniform period at crossing {a}")
        if s != 1 and b - a > 1:
            raise IetError(f"trace reverses crossings {a} to {b - 1}")
        returns.append((a, b, s * a + o - a))
    return period, tuple(returns)


def _check_trace_agreement(su: IetSurface) -> None:
    """Prove that one period of the curve is the exchange.

    Each return run is a translation, as is each piece, so they agree on
    their overlap exactly when their offsets match; the runs tile the
    domain, so this covers every crossing in O(runs + k).
    """
    pieces = su.transform.pieces
    los = [p.lo for p in pieces]
    for lo, hi, off in su.returns:
        for p in pieces[bisect_right(los, lo) - 1 : bisect_left(los, hi)]:
            if p.off != off:
                i = max(lo, p.lo)
                raise IetError(f"trace maps {i} to {i + off}, exchange maps it to {i + p.off}")


def validate_normal_coords(
    surface: TriangulatedSurface, coords: Sequence[int]
) -> Tuple[Tuple[int, int, int], ...]:
    """Check coords describe a normal curve; return per-corner arc counts.

    In each triangle the three counts must have an even sum and satisfy
    the triangle inequality; the count of arcs rounding the corner at
    vertex i is then (N(i-1) + N(i) - N(i+1)) / 2 with side i running from
    vertex i to vertex i + 1.
    """
    if len(coords) != len(surface.edges):
        raise IetError("one coordinate per edge required")
    if any(c < 0 for c in coords):
        raise IetError("negative crossing count")
    corners: List[Tuple[int, int, int]] = []
    for ti, trio in enumerate(surface.side_edges):
        ns = tuple(coords[e] for e in trio)
        if sum(ns) % 2:
            raise IetError(f"odd crossing total in triangle {ti}")
        cs = tuple((ns[i - 1] + ns[i] - ns[(i + 1) % 3]) // 2 for i in range(3))
        if any(c < 0 for c in cs):
            raise IetError(f"triangle inequality fails in triangle {ti}")
        corners.append(cs)
    return tuple(corners)


def _trace_run(surface: TriangulatedSurface, run: Run) -> List[Run]:
    """Advance a run of crossings through one triangle.

    Inside the triangle the a(v) arcs nearest a corner v pair up
    innermost-first across its two sides: entering side i at position p
    (from the side's start vertex) exits side i - 1 at N(i-1) - 1 - p when
    p < a(start of side i), otherwise side i + 1 at N(i) - 1 - p.  So the
    run splits once, at that corner count, into at most two runs.
    """
    edge_id, port, a, b, s, o = run
    edges = surface.edges
    tri, side, aligned = edges[edge_id].ports[port]
    if not aligned:  # flip to p = s * i + o, the position along the side
        s, o = -s, edges[edge_id].crossings - 1 - o
    counts = surface.side_counts[tri]
    at_start = (counts[side - 1] + counts[side] - counts[(side + 1) % 3]) // 2
    cut = at_start - o if s > 0 else o - at_start + 1
    lower, upper = (a, min(b, cut)), (max(a, cut), b)
    parts = (lower, upper) if s > 0 else (upper, lower)
    out = []
    exits = (((side - 1) % 3, counts[side - 1]), ((side + 1) % 3, counts[side]))
    for (lo, hi), (out_side, count) in zip(parts, exits):
        if lo >= hi:
            continue
        out_id = surface.side_edges[tri][out_side]
        out_edge = edges[out_id]
        out_port = 0 if out_edge.ports[0][:2] == (tri, out_side) else 1
        # q = count - 1 - p along the exit side, then into edge orientation
        qs, qo = -s, count - 1 - o
        if not out_edge.ports[out_port].aligned:
            qs, qo = s, out_edge.crossings - 1 - qo
        out.append((out_id, 1 - out_port, lo, hi, qs, qo))
    return out


def arc_of(su: IetSurface, i: int) -> Arc:
    """The closed curve component through central crossing i, memoized:
    every member of the orbit maps to the same Arc.

    Walks i's orbit on the traced first-return map, one bisection per orbit
    point, so it costs O(orbit * log runs); the run starts and offsets are
    split out of returns once per surface.  The arc's length is d times
    the size of that orbit.
    """
    _check_point(i, su.width)
    arcs = su._arcs
    if i in arcs:
        return arcs[i]
    los, offs = su._return_runs
    orbit, j = [i], i + offs[bisect_right(los, i) - 1]
    while j != i:
        orbit.append(j)
        j += offs[bisect_right(los, j) - 1]
    arc = Arc(tuple(orbit), su.period)
    for member in orbit:
        arcs[member] = arc
    return arc


def iet_orbit_solve(
    transform: PiecewiseLinearBijection, i: int, n: int, surface: Optional[IetSurface] = None
) -> int:
    """The n-th iterate of i under an interval exchange, n of any sign,
    from the exchange's memoized induction in ``ibx.plb``.  A surface, if
    passed, must have been built for this exchange; it is checked, then
    unused.  A different exchange's surface, a point out of range and a
    map that is not an exchange are refused here, as IetErrors.
    """
    built = surface.transform if surface is not None else transform
    if (built.domain, built.pieces) != (transform.domain, transform.pieces):
        raise IetError("surface built for a different exchange")
    _check_point(i, transform.domain)
    _check_exchange(transform)
    return _exchange_power(transform, i, n)


def three_gap_check(modulus: int, step: int, count: int) -> Tuple[int, ...]:
    """Distinct cyclic gaps of the first count multiples of step mod modulus.

    The three-distance theorem bounds the result at three values; this
    computes, it does not assume.  Repeated points are collapsed before
    gaps are taken.
    """
    if modulus < 1 or count < 1:
        raise IetError("modulus and count must be positive")
    points = sorted({(j * step) % modulus for j in range(count)})
    if len(points) == 1:
        return (modulus,)
    gaps = {
        (b - a) % modulus or modulus
        for a, b in zip(points, points[1:] + points[:1])
    }
    return tuple(sorted(gaps))


def three_gap_max_distinct(modulus: int, step: int, limit: int) -> int:
    """Largest distinct-gap count over all prefixes count = 1 .. limit.

    With g = gcd(step, modulus), the points are g times a rotation by
    step/g on a circle of m = modulus/g, and only the first m are
    distinct.  Euclid on (m, step/g) gives quotients a, denominators q and
    remainders e; the three-distance theorem in continued-fraction form
    (Sos 1958; Alessandri and Berthe 1998) says that n = r q_k + q_{k-1} + t
    points, 1 <= r <= a_{k+1} and 0 <= t < q_k, leave gaps e_k (n - q_k of
    them), e_{k-1} - r e_k (t of them) and e_{k-1} - (r - 1) e_k (q_k - t).
    The count changes only with n > q_k, t > 0 and, on the last level
    where lengths can meet, r in {a - 1, a}; smaller r and t mean smaller
    n, so r in {1, 2, 3, a - 1, a} and t in {0, 1} reach every count a
    level allows.  O(log modulus).
    """
    if modulus < 1 or limit < 1:
        raise IetError("modulus and limit must be positive")
    step %= modulus
    g = gcd(step, modulus)
    cap = min(limit, modulus // g)
    e_prev, e = modulus // g, step // g
    q_prev, q = 0, 1
    worst = 1
    while e and q + q_prev <= cap and worst < 3:
        a = e_prev // e
        for r in {1, 2, 3, a - 1, a}:
            if not 1 <= r <= a:
                continue
            long = e_prev - (r - 1) * e
            for t in range(min(q, 2, cap - r * q - q_prev + 1)):
                gaps = {long, e} if r * q + q_prev + t > q else {long}
                if t:
                    gaps.add(long - e)
                worst = max(worst, len(gaps))
        e_prev, e = e, e_prev - a * e
        q_prev, q = q, a * q + q_prev
    return worst
