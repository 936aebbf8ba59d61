"""Piecewise linear bijections on [0, N) with integer coefficients.

A description is a list of half-open pieces (lo, hi, mult, off), each acting
as x -> mult*x + off.  validate_plb certifies bijectivity in time polynomial
in the description size: it never evaluates the map pointwise, instead
intersecting the arithmetic progressions that piece images form.  Multipliers
may be negative or large; only mult = 0 is forbidden.

Inverses are evaluated, never materialized as descriptions: solving
mult*y + off = x inside the unique piece whose image progression contains x
is exact integer arithmetic.

Powers and orders take one of three paths.  An interval exchange answers
from its induction (``ibx.iet``).  An affine map, x -> (a*x + b) mod M on
[0, M) with every point of [M, N) fixed (every riffle and circular shift),
is read off its pieces in O(k) and answers from its description: powers
by ``kernel.power`` on (a, b) mod M, the order from the multiplicative
order of a.  ``power_path`` alone picks the path of a power, which the
kernel engine takes as one leap, or walks; an order tabulates the images.

The compilers at the bottom turn reversible circuits into single PLBs whose
iteration replays the circuit, built from two four-piece rotation primitives
and a block-permutation stage, all fused by compose_lift.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .kernel import cycle_lengths, iterate_map, power, power_leap

if TYPE_CHECKING:
    from .circuits import ReversibleCircuit

# Documented piece-count constant for bit_permute: a k-bit program moving
# |C| bits spends at most (k-1) full rotations (2 pieces each) plus (k-2)
# low rotations (4 pieces each) per element, under 6k pieces per element.
BIT_PERMUTE_PIECE_FACTOR = 6

MAX_CIRCUIT_PLB_WIDTH = 16

# circuit_to_plb's cap on stages, checked as they are appended: at 16 wires
# a gate compiles to about 52 stages and 144 pieces, so the cap holds about
# 300 such gates, which ``plb from-circuit`` prints in about 0.5 s.
MAX_CIRCUIT_PLB_STAGES = 1 << 14

# permutation_order's caps: the domain a map without an affine form may
# tabulate, and the modulus M an affine form may factor (trial division up
# to sqrt(M), for M and for phi(M)).
MAX_ORDER_TABLE = 1 << 20
MAX_AFFINE_ORDER_MODULUS = 1 << 40


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


class ProgressionHit(NamedTuple):
    residue: int
    modulus: int


def progression_intersect(a: int, m: int, b: int, n: int) -> Optional[ProgressionHit]:
    """Intersection of {a mod m} and {b mod n}, or None when empty.

    Nonempty exactly when a = b modulo gcd(m, n); then the intersection is a
    single progression modulo lcm(m, n), whose least residue lies in both.
    """
    if m < 1 or n < 1:
        raise PlbError("progression moduli must be positive")
    g = gcd(m, n)
    if (a - b) % g:
        return None
    modulus = m // g * n
    # r = a + m*k with m*k = b - a modulo n, so k = (b - a)/g * (m/g)^-1 modulo n/g
    r = (a + m * ((b - a) // g * pow(m // g, -1, n // g))) % modulus
    assert r % m == a % m and r % n == b % n
    return ProgressionHit(r, modulus)


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
    return _certify(PiecewiseLinearBijection(domain, ps))


def _certify(cand: PiecewiseLinearBijection) -> PiecewiseLinearBijection:
    """validate_plb's checks on a constructed description; the collision
    sweep runs over the image index, which stays on ``cand``."""
    ps = cand.pieces
    domain = cand.domain
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
    starts, _, order = _image_index(cand)
    for i, a in enumerate(order):
        p = ps[a]
        p_hi = p.image_interval()[1]
        for j in range(i + 1, len(order)):
            if starts[j] > p_hi:
                break
            q = ps[order[j]]
            w = _piece_images_collide(p, q)
            if w is not None:
                raise PlbValidationError(
                    "image-collision", (p, q), f"both reach {w}"
                )
    return cand


plb = validate_plb


def interval_exchange(
    domain: int, pieces: Sequence[Tuple[int, int, int]]
) -> PiecewiseLinearBijection:
    """Certify an interval exchange from (lo, hi, off) triples: every
    piece a translation, so ``is_exchange`` holds."""
    return validate_plb(domain, [(lo, hi, 1, off) for lo, hi, off in pieces])


def apply_plb(t: PiecewiseLinearBijection, x: int) -> int:
    if not 0 <= x < t.domain:
        raise PlbError(f"{x} outside [0,{t.domain})")
    i = bisect_right(t._los, x) - 1
    p = t.pieces[i]
    if not p.lo <= x < p.hi:
        raise PlbError(f"{x} falls in a coverage gap")
    return p.apply(x)


def _image_index(t: PiecewiseLinearBijection) -> Tuple[list, list, list]:
    """Pieces sorted by image start, ties in domain order: (starts, reach,
    order), where reach[k] is the largest image end among the first k + 1
    of them.  validate_plb builds it for its collision sweep and leaves it
    on the map it returns; any other map builds it on its first inverse
    call."""
    index = t.__dict__.get("_image_index")
    if index is None:
        spans = [p.image_interval() for p in t.pieces]
        order = sorted(range(len(spans)), key=lambda i: spans[i][0])
        starts, reach, top = [], [], -1
        for i in order:
            lo, hi = spans[i]
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


def is_exchange(t: PiecewiseLinearBijection) -> bool:
    """Every piece is a translation: the map is an interval exchange."""
    return all(p.mult == 1 for p in t.pieces)


def affine_form(t: PiecewiseLinearBijection) -> Optional[Tuple[int, int, int]]:
    """(a, b, M) when T is x -> (a*x + b) mod M on [0, M) and fixes every
    point of [M, N), with a != 1 and gcd(a, M) = 1; None otherwise.

    Read from the pieces in O(k) and memoized on the map: one multiplier a;
    a trailing run of one-point pieces that fix their point is the tail,
    and the rest is the body, ending at E; M is the gcd of the body's
    offset differences (E when they are all equal, and never above E),
    every body offset equals b modulo M, and each body piece's part below
    M lands in [0, M) while its part at or above M is one fixed point.
    Each condition is checked on the pieces, tiling included, so the form
    holds for an unvalidated description too."""
    if "_affine" not in t.__dict__:
        object.__setattr__(t, "_affine", _affine_form(t.pieces, t.domain))
    return t.__dict__["_affine"]


def _affine_form(ps: Tuple[Piece, ...], domain: int) -> Optional[Tuple[int, int, int]]:
    a = ps[0].mult if ps else 1
    if a == 1 or any(p.mult != a for p in ps):
        return None
    if ps[0].lo or ps[-1].hi != domain or any(p.hi != q.lo for p, q in zip(ps, ps[1:])):
        return None
    k = len(ps)
    while k > 1 and ps[k - 1].hi - ps[k - 1].lo == 1 and ps[k - 1].apply(ps[k - 1].lo) == ps[k - 1].lo:
        k -= 1
    body, end = ps[:k], ps[k - 1].hi
    m = 0
    for p in body:
        m = gcd(m, p.off - body[0].off)
    m = min(m or end, end)
    b = body[0].off % m
    if gcd(a, m) != 1:
        return None
    for p in body:
        if (p.off - b) % m:
            return None
        top = min(p.hi, m)
        if p.lo < top:
            lo, hi = sorted((p.apply(p.lo), p.apply(top - 1)))
            if lo < 0 or hi >= m:
                return None
        start = max(p.lo, m)
        if start < p.hi and (p.hi - start > 1 or p.apply(start) != start):
            return None
    return a, b, m


def _affine_power(form: Tuple[int, int, int], x: int, n: int) -> int:
    """T^n(x) for the form (a, b, M): x at or above M, else (a'*x + b') mod M
    with (a', b') the pair raised by ``kernel.power``, the 1x1 case of its
    affine powers (inverse if n < 0)."""
    a, b, m = form
    if x >= m:
        return x
    if n < 0:
        a = pow(a, -1, m)
        b, n = -a * b % m, -n
    pa, pb = power(lambda p, q: (p[0] * q[0] % m, (p[0] * q[1] + p[1]) % m), (1 % m, 0), (a, b), n)
    return (pa * x + pb) % m


def _prime_factors(n: int) -> List[int]:
    """The distinct primes of n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _multiplicative_order(a: int, m: int) -> int:
    """Least n >= 1 with a^n = 1 mod m, for gcd(a, m) = 1: phi(m), then
    each prime of phi(m) divided out while the power stays 1."""
    phi = m
    for p in _prime_factors(m):
        phi = phi // p * (p - 1)
    n = phi
    for q in _prime_factors(phi):
        while n % q == 0 and pow(a, n // q, m) == 1 % m:
            n //= q
    return n


def power_path(t: PiecewiseLinearBijection) -> Tuple[Optional[Callable[[int, int], int]], Dict[str, int]]:
    """How T answers powers, decided here only: a signed power(x, n) = T^n(x)
    from an exchange's induction (``ibx.iet``) or an ``affine_form``, at any
    n and N, and the sizes it reads; (None, {}) for a map that walks."""
    if is_exchange(t):
        from .iet import _power, induction

        return partial(_power, t), {"induction_ops": len(induction(t))}
    form = affine_form(t)
    if form is None:
        return None, {}
    return partial(_affine_power, form), {"affine_modulus": form[2]}


def iterate_plb(t: PiecewiseLinearBijection, n: int, x: int) -> int:
    """T applied n times to x (its inverse -n times for negative n) in the
    kernel engine: a ``power_path`` power is one leap, other maps walk."""
    if not 0 <= x < t.domain:
        raise PlbError(f"{x} outside [0,{t.domain})")
    power, _ = power_path(t)
    leap = power and power_leap(power)
    return iterate_map(lambda y: apply_plb(t, y), n, x, lambda y: apply_plb_inverse(t, y), leap)


def permutation_order(t: PiecewiseLinearBijection) -> int:
    """Multiplicative order of the map.

    An interval exchange takes the lcm of its tower heights, at any N.  An
    affine map (``affine_form``) with M up to ``MAX_AFFINE_ORDER_MODULUS``
    is n0 * M / gcd(c, M), at any N, with n0 the order of a mod M and c the
    offset of T^n0, a translation.  Any other map, up to N =
    ``MAX_ORDER_TABLE``, tabulates its images in an int64 array, one range
    per piece, and reads the table's cycles with ``cycle_lengths``; above
    that it raises PlbError.
    """
    if is_exchange(t):
        from .iet import cycle_type

        return lcm(*cycle_type(t))
    form = affine_form(t)
    if form is not None and form[2] <= MAX_AFFINE_ORDER_MODULUS:
        a, _, m = form
        n0 = _multiplicative_order(a, m)
        return n0 * m // gcd(_affine_power(form, 0, n0), m)
    if t.domain > MAX_ORDER_TABLE:
        raise PlbError("domain too large for order computation")
    table = array("q", bytes(8 * t.domain))
    for p in t.pieces:
        table[p.lo : p.hi] = array("q", range(p.apply(p.lo), p.apply(p.hi), p.mult))
    return lcm(*cycle_lengths(table))


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
    """Stage lists moving a chosen bit set to the top of the word and back.

    Applying the ``forward`` stages left to right sends the bit originally
    at position b to position placement[b]; the ``inverse`` stages undo
    them.  The induction fixes no canonical order inside the top block, so
    consult placement rather than assume one.
    """

    width: int
    moved: Tuple[int, ...]
    forward: Tuple[PiecewiseLinearBijection, ...]
    inverse: Tuple[PiecewiseLinearBijection, ...]
    placement: Tuple[int, ...]


def bit_permute(positions: Iterable[int], k: int) -> BitPermutation:
    """Stages sending the given bit positions to the k-|C| .. k-1 block.

    Induction on |C|: park one element on the most significant bit with
    full rotations, then herd the rest to the top of the remaining k-1 bit
    circle with low rotations.  Every stage is one of the two primitives
    circular_shift(k) and low_rotation(k), each built once, with at most
    four pieces; the piece total stays below BIT_PERMUTE_PIECE_FACTOR * |C|
    * k.  The inverse stages use the same two primitives (their inverses
    are their own repeats; halving maps are not integer pieces).  Positions
    already on top need no stage, so both lists are then empty.
    """
    moved = tuple(sorted(set(positions)))
    if any(not 0 <= p < k for p in moved):
        raise PlbError("bit position out of range")
    if k < 1:
        raise PlbError("need at least one bit")
    return _bit_permute(moved, k, *_rotations(k))


def _rotations(k: int) -> Tuple[PiecewiseLinearBijection, Optional[PiecewiseLinearBijection]]:
    """circular_shift(k) and low_rotation(k); one bit has no low rotation."""
    return circular_shift(k), low_rotation(k) if k > 1 else None


def _bit_permute(
    moved: Tuple[int, ...],
    k: int,
    full: PiecewiseLinearBijection,
    low: Optional[PiecewiseLinearBijection],
) -> BitPermutation:
    """bit_permute on checked, sorted positions, with the primitives given."""
    placement = list(range(k))
    fwd: List[PiecewiseLinearBijection] = []
    rev: List[PiecewiseLinearBijection] = []
    for e in reversed(moved):
        r = (k - 1 - placement[e]) % k
        j = (k - 1 - r) % (k - 1) if k > 1 and e != moved[-1] else 0
        fwd += [full] * r + [low] * j
        for b in range(k):
            placement[b] = (placement[b] + r) % k
            if j and placement[b] < k - 1:
                placement[b] = (placement[b] + j) % (k - 1)
        rev[:0] = [low] * ((k - 1 - j) % (k - 1) if j else 0) + [full] * ((k - r) % k)
    return BitPermutation(k, moved, tuple(fwd), tuple(rev), tuple(placement))


# ---------------------------------------------------------------------------
# Reversible circuit -> single PLB.


def circuit_to_plb(circuit: ReversibleCircuit) -> Tuple[PiecewiseLinearBijection, int]:
    """Compile a reversible circuit into (T, s) with T^(s) = one circuit
    evaluation on [0, 2^k), hence T^(n*s) = n circuit iterations.

    Per gate: rotate the gate's bit set to the top of the word (no stage
    when it is already there), permute the 2^|C| aligned subintervals by
    the gate's truth table (a pure block exchange), rotate back.  The two
    rotation primitives are built once, every block exchange once per
    gate, and the whole stage list is fused by one compose_lift, so the
    compile validates gates + 3 maps.  An empty circuit is the identity;
    more than ``MAX_CIRCUIT_PLB_STAGES`` stages raise PlbError before any
    fusion.
    """
    from .circuits import ReversibleCircuit, ReversibleGate

    k = circuit.width
    if k > MAX_CIRCUIT_PLB_WIDTH:
        raise PlbError(f"width {k} exceeds cap {MAX_CIRCUIT_PLB_WIDTH}")
    n = 1 << k
    if not circuit.gates:
        return identity_plb(n), 1
    full, low = _rotations(k)
    stages: List[PiecewiseLinearBijection] = []
    for g in circuit.gates:
        c_positions = tuple(k - 1 - w for w in g.wires)
        perm = _bit_permute(tuple(sorted(c_positions)), k, full, low)
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
        stages += perm.forward
        stages.append(plb(n, block_pieces))
        stages += perm.inverse
        if len(stages) > MAX_CIRCUIT_PLB_STAGES:
            raise PlbError(f"circuit compiles to more than {MAX_CIRCUIT_PLB_STAGES} stages")
    return compose_lift(stages).lifted, len(stages)
