"""Piecewise linear bijections on [0, N) with integer coefficients.

A description is a list of half-open pieces (lo, hi, mult, off), each acting
as x -> mult*x + off.  validate_plb certifies bijectivity in time polynomial
in the description size: it never evaluates the map pointwise, instead
intersecting the arithmetic progressions that piece images form.  Multipliers
may be negative or large; only mult = 0 is forbidden.

Inverses are evaluated, never materialized as descriptions: solving
mult*y + off = x inside the unique piece whose image progression contains x
is exact integer arithmetic.

The compilers at the bottom turn reversible circuits into single PLBs whose
iteration replays the circuit, built from two four-piece rotation primitives
and a block-permutation stage, all fused by compose_lift.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .kernel import cycle_lengths, iterate_map

if TYPE_CHECKING:
    from .circuits import ReversibleCircuit

# Documented piece-count constant for bit_permute: a k-bit program moving
# |C| bits spends at most (k-1) full rotations (2 pieces each) plus (k-2)
# low rotations (4 pieces each) per element, under 6k pieces per element.
BIT_PERMUTE_PIECE_FACTOR = 6

MAX_CIRCUIT_PLB_WIDTH = 16


class PlbError(ValueError):
    pass


class PlbValidationError(PlbError):
    """Rejection naming the violated condition and the witness pieces."""

    def __init__(self, condition: str, witnesses: Tuple = (), detail: str = ""):
        self.condition = condition
        self.witnesses = witnesses
        msg = f"{condition}: {detail}" if detail else condition
        super().__init__(msg)


@dataclass(frozen=True)
class Piece:
    lo: int
    hi: int
    mult: int
    off: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise PlbValidationError("malformed", (self,), "empty interval")
        if self.mult == 0:
            raise PlbValidationError("malformed", (self,), "zero multiplier")

    def apply(self, x: int) -> int:
        return self.mult * x + self.off

    def image_interval(self) -> Tuple[int, int]:
        """Smallest and largest image values (inclusive)."""
        a, b = self.apply(self.lo), self.apply(self.hi - 1)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PiecewiseLinearBijection:
    """Syntactically well-formed description; run validate_plb to certify
    that it is actually a bijection.  Pieces are kept sorted by lo."""

    domain: int
    pieces: Tuple[Piece, ...]

    def __post_init__(self) -> None:
        if self.domain <= 0:
            raise PlbValidationError("malformed", (), "empty domain")
        object.__setattr__(
            self, "pieces", tuple(sorted(self.pieces, key=lambda p: p.lo))
        )
        object.__setattr__(self, "_los", [p.lo for p in self.pieces])


@dataclass(frozen=True)
class IntervalExchange(PiecewiseLinearBijection):
    """PLB whose every piece is a pure translation."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for p in self.pieces:
            if p.mult != 1:
                raise PlbValidationError("malformed", (p,), "multiplier is not 1")


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b); a, b >= 1."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


@dataclass(frozen=True)
class ProgressionHit:
    residue: int
    modulus: int
    member: int


def progression_intersect(a: int, m: int, b: int, n: int) -> Optional[ProgressionHit]:
    """Intersection of {a mod m} and {b mod n}, or None when empty.

    Nonempty exactly when a = b modulo gcd(m, n); then the intersection is a
    single progression modulo lcm(m, n), and the returned member certifies
    membership in both inputs.
    """
    if m < 1 or n < 1:
        raise PlbError("progression moduli must be positive")
    g, mp, np_ = _egcd(m, n)
    if (a - b) % g:
        return None
    modulus = m * n // g
    r = (a * n * np_ + b * m * mp) // g % modulus
    assert r % m == a % m and r % n == b % n
    return ProgressionHit(r, modulus, r)


def _piece_images_collide(p: Piece, q: Piece) -> Optional[int]:
    """A common image value of the two pieces, or None."""
    hit = progression_intersect(p.off, abs(p.mult), q.off, abs(q.mult))
    if hit is None:
        return None
    lo = max(p.image_interval()[0], q.image_interval()[0])
    hi = min(p.image_interval()[1], q.image_interval()[1])
    if lo > hi:
        return None
    first = hit.residue + -(-(lo - hit.residue) // hit.modulus) * hit.modulus
    return first if first <= hi else None


def validate_plb(domain: int, pieces: Iterable[Tuple[int, int, int, int]] | Iterable[Piece]) -> PiecewiseLinearBijection:
    """Certify a description as a bijection of [0, domain).

    Checks, in order: the pieces tile [0, domain) without gap or overlap;
    every image stays inside [0, domain); no two images share a value,
    decided by intersecting their arithmetic progressions.  Together with
    the cover these force surjectivity by counting, so acceptance is exact.
    Raises PlbValidationError naming the condition and witnesses otherwise.
    """
    ps = tuple(p if isinstance(p, Piece) else Piece(*p) for p in pieces)
    cand = PiecewiseLinearBijection(domain, ps)
    ps = cand.pieces
    if not ps:
        raise PlbValidationError("gap", (), "no pieces")
    if ps[0].lo != 0:
        raise PlbValidationError("gap", (ps[0],), f"[0,{ps[0].lo}) uncovered")
    for prev, cur in zip(ps, ps[1:]):
        if cur.lo < prev.hi:
            raise PlbValidationError("overlap", (prev, cur))
        if cur.lo > prev.hi:
            raise PlbValidationError("gap", (prev, cur))
    if ps[-1].hi != domain:
        raise PlbValidationError("gap", (ps[-1],), f"[{ps[-1].hi},{domain}) uncovered")
    for p in ps:
        lo, hi = p.image_interval()
        if lo < 0 or hi >= domain:
            raise PlbValidationError("image-escape", (p,), f"image reaches {lo if lo < 0 else hi}")
    order = sorted(ps, key=lambda p: p.image_interval()[0])
    for i, p in enumerate(order):
        p_hi = p.image_interval()[1]
        for q in order[i + 1 :]:
            if q.image_interval()[0] > p_hi:
                break
            w = _piece_images_collide(p, q)
            if w is not None:
                raise PlbValidationError(
                    "image-collision", (p, q), f"both reach {w}"
                )
    return cand


def plb(domain: int, pieces: Sequence[Tuple[int, int, int, int]]) -> PiecewiseLinearBijection:
    return validate_plb(domain, pieces)


def interval_exchange(
    domain: int, pieces: Sequence[Tuple[int, int, int]]
) -> IntervalExchange:
    """Build and certify an interval exchange from (lo, hi, off) triples."""
    full = validate_plb(domain, [(lo, hi, 1, off) for lo, hi, off in pieces])
    return IntervalExchange(full.domain, full.pieces)


def apply_plb(t: PiecewiseLinearBijection, x: int) -> int:
    if not 0 <= x < t.domain:
        raise PlbError(f"{x} outside [0,{t.domain})")
    i = bisect_right(t._los, x) - 1
    p = t.pieces[i]
    if not p.lo <= x < p.hi:
        raise PlbError(f"{x} falls in a coverage gap")
    return p.apply(x)


def _image_index(t: PiecewiseLinearBijection) -> Tuple[list, list, list]:
    """Pieces sorted by image start: (starts, reach, order), where reach[k]
    is the largest image end among the first k + 1 of them.  Built on the
    first inverse call and kept on ``t``; construction never pays for it."""
    index = t.__dict__.get("_image_index")
    if index is None:
        order = sorted(range(len(t.pieces)), key=lambda i: t.pieces[i].image_interval())
        starts, reach, top = [], [], -1
        for i in order:
            lo, hi = t.pieces[i].image_interval()
            top = max(top, hi)
            starts.append(lo)
            reach.append(top)
        index = (starts, reach, order)
        object.__setattr__(t, "_image_index", index)
    return index


def apply_plb_inverse(t: PiecewiseLinearBijection, y: int) -> int:
    """The preimage of y.  Only pieces whose image interval can hold y are
    tried: walking back from the last image start at or below y while the
    running image end still reaches y."""
    if not 0 <= y < t.domain:
        raise PlbError(f"{y} outside [0,{t.domain})")
    starts, reach, order = _image_index(t)
    k = bisect_right(starts, y) - 1
    while k >= 0 and reach[k] >= y:
        p = t.pieces[order[k]]
        q, r = divmod(y - p.off, p.mult)
        if not r and p.lo <= q < p.hi:
            return q
        k -= 1
    raise PlbError(f"{y} has no preimage; description is not bijective")


def iterate_plb(t: PiecewiseLinearBijection, n: int, x: int) -> int:
    """T applied n times to x through the kernel engine; a negative n
    applies the inverse -n times."""
    return iterate_map(
        lambda y: apply_plb(t, y), n, x, lambda y: apply_plb_inverse(t, y)
    )


class _Evaluator:
    """Repeated application without the per-call domain check."""

    def __init__(self, t: PiecewiseLinearBijection):
        self.los = t._los
        self.pieces = t.pieces

    def __call__(self, x: int) -> int:
        p = self.pieces[bisect_right(self.los, x) - 1]
        return p.mult * x + p.off


def permutation_order(t: PiecewiseLinearBijection) -> int:
    """Multiplicative order of the map, via cycle lengths.  Desk-scale N."""
    if t.domain > 1 << 20:
        raise PlbError("domain too large for order computation")
    order = 1
    for length in cycle_lengths(_Evaluator(t), t.domain):
        order = lcm(order, length)
    return order


def identity_plb(domain: int) -> PiecewiseLinearBijection:
    return plb(domain, [(0, domain, 1, 0)])


def riffle(n: int) -> PiecewiseLinearBijection:
    """Perfect riffle shuffle of n cards: i < ceil(n/2) -> 2i, else 2i-n
    for odd n and 2i-n+1 for even n."""
    if n < 2:
        raise PlbError("riffle needs at least two cards")
    half = (n + 1) // 2
    second = (half, n, 2, -n) if n % 2 else (half, n, 2, -n + 1)
    return plb(n, [(0, half, 2, 0), second])


def circular_shift(k: int) -> PiecewiseLinearBijection:
    """Left rotation of all k bits by one position, as a two-piece PLB."""
    if k < 1:
        raise PlbError("need at least one bit")
    half = 1 << (k - 1)
    if k == 1:
        return identity_plb(2)
    return plb(1 << k, [(0, half, 2, 0), (half, 2 * half, 2, -2 * half + 1)])


def low_rotation(k: int) -> PiecewiseLinearBijection:
    """Left rotation of the low k-1 bits, top bit fixed; four pieces."""
    if k < 2:
        raise PlbError("need at least two bits")
    n = 1 << k
    half, quarter = n // 2, n // 4
    if k == 2:
        return plb(4, [(0, 1, 2, 0), (1, 2, 2, -1), (2, 3, 2, -2), (3, 4, 2, -3)])
    return plb(
        n,
        [
            (0, quarter, 2, 0),
            (quarter, half, 2, -half + 1),
            (half, half + quarter, 2, -half),
            (half + quarter, n, 2, -n + 1),
        ],
    )


@dataclass(frozen=True)
class PlbProgram:
    """Stage list on a shared domain plus its compose_lift fusion.

    Iterating ``lifted`` len(stages) times from x < domain applies the
    stages left to right and returns to the base block.
    """

    domain: int
    stages: Tuple[PiecewiseLinearBijection, ...]
    lifted: PiecewiseLinearBijection

    def apply_stages(self, x: int) -> int:
        for t in self.stages:
            x = apply_plb(t, x)
        return x

    def apply_stages_inverse(self, x: int) -> int:
        for t in reversed(self.stages):
            x = apply_plb_inverse(t, x)
        return x


def compose_lift(stages: Sequence[PiecewiseLinearBijection]) -> PlbProgram:
    """Fuse stages T_1..T_k on [0,n) into one PLB on [0, k*n).

    Block i-1 holds the translated pieces of T_i with images landing in
    block i, the last stage wrapping back to block 0, so the k-th iterate
    restricted to [0,n) is exactly the left-to-right composition.
    """
    if not stages:
        raise PlbError("compose_lift needs at least one stage")
    n = stages[0].domain
    for t in stages:
        if t.domain != n:
            raise PlbError("stages must share one domain size")
    k = len(stages)
    lifted_pieces = []
    for i, t in enumerate(stages):
        base = i * n
        bump = (i + 1) * n if i + 1 < k else 0
        for p in t.pieces:
            lifted_pieces.append(
                (p.lo + base, p.hi + base, p.mult, p.off - p.mult * base + bump)
            )
    return PlbProgram(n, tuple(stages), validate_plb(k * n, lifted_pieces))


@dataclass(frozen=True)
class BitPermutation:
    """Programs moving a chosen bit set to the top of the word.

    placement[b] is the position where the bit originally at position b
    lands after the forward program; the induction fixes no canonical order
    inside the top block, so consult placement rather than assume one.
    """

    width: int
    moved: Tuple[int, ...]
    forward: PlbProgram
    inverse: PlbProgram
    placement: Tuple[int, ...]


def _rotation_stages(
    k: int, full_turns: int, low_turns: int
) -> List[PiecewiseLinearBijection]:
    out: List[PiecewiseLinearBijection] = []
    out.extend([circular_shift(k)] * full_turns)
    if low_turns:
        out.extend([low_rotation(k)] * low_turns)
    return out


def bit_permute(positions: Iterable[int], k: int) -> BitPermutation:
    """Program sending the given bit positions to the k-|C| .. k-1 block.

    Induction on |C|: park one element on the most significant bit with
    full rotations, then herd the rest to the top of the remaining k-1 bit
    circle with low rotations.  Both primitives have at most four pieces;
    the piece total stays below BIT_PERMUTE_PIECE_FACTOR * |C| * k.  The
    inverse program uses the same two primitives (their inverses are their
    own repeats; halving maps are not integer pieces).
    """
    moved = tuple(sorted(set(positions)))
    if any(not 0 <= p < k for p in moved):
        raise PlbError("bit position out of range")
    if k < 1:
        raise PlbError("need at least one bit")
    placement = list(range(k))

    def rotate_full(times: int) -> None:
        for b in range(k):
            placement[b] = (placement[b] + times) % k

    def rotate_low(times: int) -> None:
        for b in range(k):
            if placement[b] < k - 1:
                placement[b] = (placement[b] + times) % (k - 1)

    fwd: List[PiecewiseLinearBijection] = []
    rev: List[PiecewiseLinearBijection] = []

    def build(targets: Tuple[int, ...]) -> None:
        if not targets:
            return
        e, rest = targets[0], targets[1:]
        build(rest)
        i = placement[e]
        r = (k - 1 - i) % k
        j = (k - 1 - r) % (k - 1) if k > 1 and rest else 0
        fwd.extend(_rotation_stages(k, r, j))
        rotate_full(r)
        rotate_low(j)
        inv: List[PiecewiseLinearBijection] = []
        inv.extend(_rotation_stages(k, 0, (k - 1 - j) % (k - 1) if j else 0))
        inv.extend(_rotation_stages(k, (k - r) % k if r else 0, 0))
        rev[:0] = inv

    build(moved)
    if not fwd:
        fwd = [identity_plb(1 << k)]
    if not rev:
        rev = [identity_plb(1 << k)]
    return BitPermutation(
        k,
        moved,
        compose_lift(fwd),
        compose_lift(rev),
        tuple(placement),
    )


# ---------------------------------------------------------------------------
# Reversible circuit -> single PLB.


def circuit_to_plb(circuit: ReversibleCircuit) -> Tuple[PiecewiseLinearBijection, int]:
    """Compile a reversible circuit into (T, s) with T^(s) = one circuit
    evaluation on [0, 2^k), hence T^(n*s) = n circuit iterations.

    Per gate: rotate the gate's bit set to the top of the word, permute the
    2^|C| aligned subintervals by the gate's truth table (a pure block
    exchange), rotate back, then fuse every stage of every gate with
    compose_lift.
    """
    from .circuits import ReversibleCircuit, ReversibleGate

    k = circuit.width
    if k > MAX_CIRCUIT_PLB_WIDTH:
        raise PlbError(f"width {k} exceeds cap {MAX_CIRCUIT_PLB_WIDTH}")
    n = 1 << k
    stages: List[PiecewiseLinearBijection] = []
    for g in circuit.gates:
        c_positions = tuple(k - 1 - w for w in g.wires)
        perm = bit_permute(c_positions, k)
        c = len(c_positions)
        base = k - c
        local = [perm.placement[p] - base for p in c_positions]
        if any(not 0 <= b < c for b in local):
            raise PlbError("bit permutation failed to reach the top block")
        # The gate alone on its c-bit block, local bit b on wire c-1-b.
        block_gate = ReversibleGate(g.kind, tuple(c - 1 - b for b in local))
        block_circuit = ReversibleCircuit(c, (block_gate,))
        table = [block_circuit.eval_int(i) for i in range(1 << c)]
        block = 1 << base
        block_pieces = [
            (i * block, (i + 1) * block, 1, (table[i] - i) * block)
            for i in range(1 << c)
        ]
        stages.extend(perm.forward.stages)
        stages.append(plb(n, block_pieces))
        stages.extend(perm.inverse.stages)
    if not stages:
        stages = [identity_plb(n)]
    program = compose_lift(stages)
    return program.lifted, len(stages)
