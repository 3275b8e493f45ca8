"""The universal-cover model space, within a ball of the dual tree T0.

Blocks are copies of H0 x R^(n-2) indexed by vertices of the dual tree T0;
adjacent blocks are glued along walls (boundary line x R^(n-2)) by the edge
permutation, zero offset, matching the integer grids.  All blocks share one
HexModel, so a block is just its tree address plus a label assignment.

Block addressing: a block id is the tuple of parent component indices along
the path from the root, across wall components (minimal hexagon address
length <= wall_comp_depth), down to depth t0_depth; component 0 of a
non-root block is its gluing component.  Edge labels are assigned
round-robin over the boundary edges of the block's graph vertex in
canonical component order; a child's component 0 carries the reverse edge
label.

Nothing is explored up front: a block is a function of its id, computed
from the root by this child rule on first use and cached per complex, and
the caches never change an answer.  The ball is a regular tree, so its size
and its lexicographic order (a preorder) are address arithmetic too, and
summary(), the ball's description that `ogm explore` prints, lists no block:
it is the depths that name the ball, its block count and component table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import hexagon as hx
from .manifold import GraphManifoldSpec, OrientedEdge, Permutation, class_label, validate

BlockId = tuple[int, ...]


@dataclass(frozen=True)
class Block:
    id: BlockId
    labels: tuple[str, ...]  # oriented edge ids from the root block
    g_vertex: str
    shift: int  # round-robin offset into boundary(g_vertex)
    sigma: Permutation  # composed gluing permutation from the root
    class_label: int  # manifold.class_label(sigma)


@dataclass(frozen=True)
class Wall:
    parent: BlockId
    parent_comp: int  # index into the shared component table
    child: BlockId
    edge_id: str  # oriented parent -> child


WallChain = tuple[tuple[Wall, bool], ...]


@dataclass(frozen=True)
class CoverPoint:
    block: BlockId
    base: hx.H0Point
    fiber: tuple[float, ...]


class CoverError(ValueError):
    pass


# sample_local attempts whose words sample_points draws per stream; at the
# hexagon's acceptance rate of about 0.68, one stream in about 1000 needs
# more and is drawn again by sample_point
SAMPLE_ATTEMPTS = 6


class CoverComplex:
    """A ball of the cover, radius t0_depth in T0.  Blocks and walls are
    computed from their ids on first use and cached (see the module
    docstring); the caches never change an answer."""

    def __init__(
        self,
        spec: GraphManifoldSpec,
        t0_depth: int,
        hex_depth: int,
        fiber_range: float = 8.0,
        wall_comp_depth: Optional[int] = None,
    ):
        """wall_comp_depth restricts which boundary components spawn walls
        and children: only those whose minimal chain hexagon has address
        length <= wall_comp_depth.  None glues every labeled component (the
        literal construction); small values keep every wall's arclength
        window wide enough for verification sampling, since a component
        whose minimal hexagon sits at depth d spans arclengths
        [-(hex_depth-d), hex_depth-d+1] only."""
        if t0_depth < 0:
            raise ValueError("t0_depth must be >= 0")
        if hex_depth < 1:
            raise ValueError("hex_depth must be >= 1")
        if wall_comp_depth is not None and wall_comp_depth < 0:
            raise ValueError("wall_comp_depth must be >= 0 or None")
        if not (math.isfinite(fiber_range) and fiber_range >= 0):
            raise ValueError("fiber_range must be finite and >= 0")
        bad = validate(spec)
        if bad:
            raise CoverError("invalid spec: " + "; ".join(bad))
        self.spec = spec
        self.t0_depth = t0_depth
        self.hex_depth = hex_depth
        self.fiber_range = float(fiber_range)
        self.wall_comp_depth = wall_comp_depth
        self.model = hx.HexModel(hex_depth)
        # components are sorted by min_addr length, so the wall components
        # are the first wall_count of them
        self.wall_count = sum(wall_comp_depth is None or len(c.min_addr) <= wall_comp_depth
                              for c in self.model.components)
        # _sizes[d]: blocks in the subtree of a block at depth d
        self._sizes = [1] * (t0_depth + 1)
        for d in range(t0_depth - 1, -1, -1):
            self._sizes[d] = 1 + len(self.child_comps(d)) * self._sizes[d + 1]
        self.block_count = self._sizes[0]
        identity = Permutation.identity(spec.n - 1)
        root = Block((), (), spec.root_vertex(), 0, identity, class_label(identity))
        self._blocks: dict[BlockId, Block] = {(): root}

    # -- structure queries --------------------------------------------------

    def block_label(self, blk: Block, comp_index: int) -> OrientedEdge:
        ring = self.spec.boundary(blk.g_vertex)
        return ring[(blk.shift + comp_index) % len(ring)]

    def child(self, blk: Block, comp_index: int) -> Block:
        """The child rule: the child of blk across component comp_index is
        glued by that component's round-robin label, and its shift puts the
        reverse label on its component 0."""
        edge = self.block_label(blk, comp_index)
        shift = self.spec.boundary(edge.to).index(self.spec.edges[edge.reverse])
        sigma = edge.perm.after(blk.sigma)
        return Block(blk.id + (comp_index,), blk.labels + (edge.id,), edge.to, shift,
                     sigma, class_label(sigma))

    def child_comps(self, depth: int) -> range:
        """Components across which a block at this depth has children in
        the ball: every wall component at the root, all but component 0,
        which links upward, below it, and none at depth t0_depth."""
        if depth >= self.t0_depth:
            return range(0)
        return range(1 if depth else 0, self.wall_count)

    def in_ball(self, bid: BlockId) -> bool:
        return all(ci in self.child_comps(j) for j, ci in enumerate(bid))

    def block(self, bid: BlockId) -> Block:
        blk = self._blocks.get(bid)
        if blk is None:
            if not self.in_ball(bid):
                raise CoverError(f"block {bid} not explored")
            blk = self._blocks[bid] = self.child(self.block(bid[:-1]), bid[-1])
        return blk

    def block_at(self, index: int) -> BlockId:
        """The index-th block id of the ball in lexicographic order, which is
        a preorder of T0."""
        if not 0 <= index < self.block_count:
            raise CoverError(f"block index {index} outside 0..{self.block_count - 1}")
        bid: BlockId = ()
        while index:
            q, index = divmod(index - 1, self._sizes[len(bid) + 1])
            bid += (self.child_comps(len(bid))[q],)
        return bid

    def parent_wall(self, bid: BlockId) -> Wall:
        if not bid:
            raise CoverError("root block has no parent wall")
        return Wall(bid[:-1], bid[-1], bid, self.block(bid).labels[-1])

    def wall_chain(self, u: BlockId, v: BlockId) -> WallChain:
        """Walls along the T0 geodesic from u to v, in order, with a flag:
        True when the step crosses from the wall's child into its parent.
        Built on each call from the common prefix of the two block ids; no
        chain is kept."""
        self.block(u), self.block(v)
        k = hx.lcp_len(u, v)
        up = tuple((self.parent_wall(u[:i]), True) for i in range(len(u), k, -1))
        down = tuple((self.parent_wall(v[: i + 1]), False) for i in range(k, len(v)))
        return up + down

    def wall_component(self, w: Wall, child_side: bool) -> hx.ComponentId:
        if child_side:
            return self.model.components[0]
        return self.model.components[w.parent_comp]

    # -- coordinates on walls -------------------------------------------------
    #
    # Canonical wall coordinates: (arclength on the parent-side component,
    # parent fibers).  The child reads them through the edge permutation s:
    # child_coords[s(i)] = canonical[i]; child coordinate 0 is again an
    # arclength, of the child's gluing component.  normalize crosses a
    # child-side point in one step, canonical[i] = child_coords[s(i)].

    def point_from_wall_coords(self, w: Wall, coords: tuple[float, ...]) -> CoverPoint:
        """The parent-side point of wall w at canonical coordinates coords."""
        base = self.model.boundary_point(self.wall_component(w, False), coords[0])
        return CoverPoint(w.parent, base, tuple(coords[1:]))

    def normalize(self, p: CoverPoint) -> CoverPoint:
        """Wall points resolve to the lower-rank block."""
        p = CoverPoint(p.block, hx.normalize_point(p.base), p.fiber)
        if not p.block:
            return p
        try:
            bc = hx.boundary_param(p.base)
        except hx.NotOnBoundaryError:
            return p
        if bc.component != self.model.components[0]:
            return p
        w = self.parent_wall(p.block)
        child = (bc.arclength,) + p.fiber
        perm = self.spec.edges[w.edge_id].perm
        canonical = tuple(child[perm(i)] for i in range(len(child)))
        return self.point_from_wall_coords(w, canonical)

    # -- sampling -----------------------------------------------------------
    #
    # sample_point draws from one stream through a Generator; sample_points
    # draws many streams' raw words and reads the same values off them

    def sample_point(self, rng: np.random.Generator) -> CoverPoint:
        if self.block_count > 2**63:  # numpy draws the block index as an int64
            raise CoverError(f"cannot sample a ball of {self.block_count} blocks (at most 2**63)")
        bid = self.block_at(int(rng.integers(0, self.block_count)))
        addr = self.model.hexagons[int(rng.integers(0, len(self.model.hexagons)))]
        local = self.model.sample_local(rng)
        fiber = tuple(
            float(x) for x in rng.uniform(-self.fiber_range, self.fiber_range, self.spec.n - 2)
        )
        return CoverPoint(bid, hx.H0Point(addr, local), fiber)

    def sample_points(self, seed: int, indices: Sequence[int]) -> list[CoverPoint]:
        """[sample_point(make_stream(seed, i)) for i in indices], bit for
        bit, without a SeedSequence or a Generator call per point: every
        stream's seed is hashed in one numpy pass, one reused PCG64 is set
        to each stream's state in turn and draws its raw 64-bit words, and
        the words become sample_point's values in numpy, by the algorithms
        of numpy's Generator (see _from_words).  NEP 19 does not freeze
        those algorithms, as it does the seeding; the equality test with
        make_stream guards them.  A stream that its words cannot settle is
        redrawn by sample_point itself.  Indices must lie in [0, 2**32)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and not (idx.min() >= 0 and idx.max() < 2**32):
            raise ValueError("sample indices must lie in [0, 2**32)")
        seeds = _stream_seeds(seed, idx)
        bitgen = np.random.PCG64(0)

        def stream(k: int) -> np.random.PCG64:
            state, inc = seeds[k]
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            return bitgen

        settled = np.zeros(len(seeds), dtype=bool)
        if self.block_count <= 2**32:  # else a 64-bit draw, which _from_words does not lay out
            width = 1 + 2 * SAMPLE_ATTEMPTS + self.spec.n - 2
            words = np.empty((len(seeds), width), dtype=np.uint64)
            for k in range(len(seeds)):
                words[k] = stream(k).random_raw(width)
            block, hexagon, local, fiber, settled = self._from_words(words)
            block, hexagon, local, fiber = (a.tolist() for a in (block, hexagon, local, fiber))
            ids = {b: self.block_at(b) for b in set(block)}
        rng = np.random.Generator(bitgen)
        hexes = self.model.hexagons
        points = []
        for k, ok in enumerate(settled.tolist()):
            if ok:
                points.append(CoverPoint(ids[block[k]],
                                         hx.H0Point(hexes[hexagon[k]], tuple(local[k])),
                                         tuple(fiber[k])))
            else:
                stream(k)
                points.append(self.sample_point(rng))
        return points

    def _from_words(self, words: np.ndarray) -> tuple[np.ndarray, ...]:
        """sample_point's values from each stream's first raw PCG64 words
        (one row per stream), by numpy's Generator algorithms as WordStream
        describes them: (block index, hexagon index, local point, fibers,
        settled).  The block index takes the low half of word 0 and the
        hexagon index the next half; sample_local's attempt a takes words
        1 + 2a and 2 + 2a, and the fibers, low + (high - low) * random(),
        the n - 2 words after the accepted attempt.  A stream is unsettled
        when a Lemire draw is rejected or every attempt within
        SAMPLE_ATTEMPTS misses."""
        m = len(words)
        settled = np.ones(m, dtype=bool)
        halves = [words[:, 0] & np.uint64(_MASK32), words[:, 0] >> np.uint64(32)]
        picks = []
        for size in (self.block_count, len(self.model.hexagons)):
            if size == 1:
                picks.append(np.zeros(m, dtype=np.int64))
                continue
            scaled = halves.pop(0) * np.uint64(size)
            settled &= (scaled & np.uint64(_MASK32)) >= np.uint64(_SPAN32 % size)
            picks.append((scaled >> np.uint64(32)).astype(np.int64))
        u = (words[:, 1:] >> np.uint64(11)) * _UNIT53
        local, took = hx.sample_local_rows(u[:, :2 * SAMPLE_ATTEMPTS])
        settled &= took >= 0
        cols = 2 * (took + 1)[:, None] + np.arange(self.spec.n - 2)  # unsettled: any column
        low = -self.fiber_range
        fiber = low + (self.fiber_range - low) * np.take_along_axis(u, cols, axis=1)
        return picks[0], picks[1], local, fiber, settled

    def contains(self, p: CoverPoint) -> bool:
        if not self.in_ball(p.block) or len(p.fiber) != self.spec.n - 2:
            return False
        return all(math.isfinite(f) for f in p.fiber) and self.model.contains(p.base)

    # -- serialization --------------------------------------------------------

    def format_point(self, p: CoverPoint) -> str:
        blk = self.block(p.block)
        segs = [f"{lab}#{ci}" for lab, ci in zip(blk.labels, p.block)]
        hexes = "".join(str(d) for d in p.base.hex)
        pos = f"{p.base.local[1]!r},{p.base.local[2]!r}"
        fib = ",".join(repr(x) for x in p.fiber)
        return f"block={','.join(segs)};hex={hexes};pos={pos};fiber={fib}"

    def parse_point(self, text: str) -> CoverPoint:
        fields: dict[str, str] = {}
        for part in text.strip().split(";"):
            key, eq, value = part.partition("=")
            if not eq:
                raise CoverError(f"point part {part!r} has no '='")
            fields[key] = value
        if "pos" not in fields:
            raise CoverError(f"point {text!r} has no pos field")

        def numbers(key: str, conv, items) -> tuple:
            try:
                return tuple(conv(v) for v in items)
            except ValueError:
                raise CoverError(f"malformed {key} field {fields[key]!r}") from None

        bid: BlockId = ()
        if fields.get("block"):
            for seg in fields["block"].split(","):
                lab, _, ci = seg.partition("#")
                child = bid + (int(ci),) if ci.isdecimal() else None
                if child is None or not self.in_ball(child) or self.block(child).labels[-1] != lab:
                    raise CoverError(f"unknown block segment {seg!r}")
                bid = child
        addr = numbers("hex", int, fields.get("hex", ""))
        pos = numbers("pos", float, fields["pos"].split(","))
        if len(pos) != 2:
            raise CoverError(f"malformed pos field {fields['pos']!r}")
        x1, x2 = pos
        local = (math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)
        fiber = numbers("fiber", float, fields["fiber"].split(",")) if fields.get("fiber") else ()
        p = CoverPoint(bid, hx.H0Point(addr, local), fiber)
        if not self.contains(p):
            raise CoverError(f"point outside complex: {text!r}")
        return p

    def summary(self) -> dict:
        """The ball's description: the spec digest, n, the three depths that
        name the ball (explore's arguments), its block count and the
        component table.  No block or wall is listed, so a ball of any depth
        is described at once; block_at and parent_wall name each of them.
        fiber_range is not listed: it bounds sample_point's draws, not the
        ball."""
        return {
            "spec_digest": self.spec.digest(),
            "n": self.spec.n,
            "t0_depth": self.t0_depth,
            "hex_depth": self.hex_depth,
            "wall_comp_depth": self.wall_comp_depth,
            "block_count": self.block_count,
            "components": [
                {"index": i, "min_hex": list(c.min_addr), "side": c.side}
                for i, c in enumerate(self.model.components)
            ],
        }


def explore(
    spec: GraphManifoldSpec,
    t0_depth: int,
    hex_depth: int,
    fiber_range: float = 8.0,
    wall_comp_depth: Optional[int] = None,
) -> CoverComplex:
    return CoverComplex(spec, t0_depth, hex_depth, fiber_range, wall_comp_depth)


def make_stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample stream; order and worker independent.  The
    one-stream reference: CoverComplex.sample_points seeds many streams at
    once and draws the same points."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


_MASK32 = 0xFFFFFFFF
_SPAN32 = 1 << 32
_UNIT53 = 1.0 / (1 << 53)

# raw words a WordStream takes per random_raw call; it holds one block
WORD_BLOCK = 1024


class WordStream:
    """The values of Generator.random() and Generator.integers(low, high)
    on a PCG64, read off its raw 64-bit words, which it takes from
    random_raw in blocks of WORD_BLOCK.  These are numpy's Generator
    algorithms, which _from_words lays out as arrays:

    - random() is (w >> 11) * 2**-53 of the next word w;
    - integers(low, high), for 1 <= m = high - low <= 2**32, is low +
      ((u * m) >> 32) by 32-bit Lemire on a uint32 u, drawn again while
      (u * m) mod 2**32 < 2**32 mod m.  PCG64 serves uint32s from the low
      half of a word, then buffers its high half for the next uint32 draw,
      across random() calls.  A range of one draws nothing.

    Other ranges raise ValueError: numpy draws them by algorithms this
    reader does not lay out."""

    def __init__(self, bitgen: np.random.PCG64):
        self._raw = bitgen.random_raw
        self._words = iter(())
        self._half = None  # the buffered high half of the last uint32 draw's word

    def _refill(self) -> int:
        """The first word of a new block."""
        self._words = iter(self._raw(WORD_BLOCK).tolist())
        return next(self._words)

    def random(self) -> float:
        w = next(self._words, None)
        return ((self._refill() if w is None else w) >> 11) * _UNIT53

    def integers(self, low: int, high: int) -> int:
        m = high - low
        if not 1 <= m <= _SPAN32:
            raise ValueError(f"integers({low}, {high}): the range must hold 1 to 2**32 values")
        if m == 1:
            return low
        while True:
            if self._half is None:
                w = next(self._words, None)
                if w is None:
                    w = self._refill()
                u, self._half = w & _MASK32, w >> 32
            else:
                u, self._half = self._half, None
            scaled = u * m
            if (scaled & _MASK32) >= _SPAN32 % m:
                return low + (scaled >> 32)


# numpy's SeedSequence pool hash and PCG64's setseq seeding, whose output
# numpy keeps fixed across versions (NEP 19).  The hash constants are Python
# ints masked to 32 bits: numpy scalar arithmetic would warn on overflow,
# while uint32 array arithmetic wraps silently.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(init: int, mult: int):
    """SeedSequence's word hash, whose multiplier advances on every call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def _stream_seeds(seed: int, indices: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 that make_stream(seed, i) seeds, for each
    index i < 2**32 (one entropy word): SeedSequence((seed, i)) mixes the
    32-bit words of seed, least significant first, then i, into its pool;
    generate_state(4, uint64) hashes the pool into the 128-bit initstate
    and initseq; the setseq rule turns those into (state, inc)."""
    words = [seed >> (32 * k) & _MASK32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    m = len(indices)
    entropy = [np.full(m, w, np.uint32) for w in words] + [indices.astype(np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(m, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)  # generate_state's hash
    state = [out(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    # little-endian uint32 pairs -> uint64 words: initstate, then initseq,
    # each high word first
    w = [state[2 * j] | (state[2 * j + 1] << np.uint64(32)) for j in range(4)]
    seeds = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(x.tolist() for x in w)):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        seeds.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds
