"""Keyed draws: every random outcome of the simulator is a pure function of
the seed and the draw's coordinates (domain, slot, entity, sequence number).

A draw chains one splitmix64 round per coordinate (Steele, Lea & Flood,
OOPSLA 2014) and succeeds when the 64-bit hash is below an integer
threshold. A slot's many draws are computed together as a plane: SWAR
("SIMD within a register") over one big integer, one 128-bit lane per draw.
"""

from __future__ import annotations

import itertools
import math

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_LINK_DOMAIN = 0x4C494E4B
_SWAP_DOMAIN = 0x53574150


def _absorb(base: int, a: int) -> int:
    """One splitmix64 round: add coordinate `a` to `base`, then finalize.
    A draw chains one round per coordinate."""
    h = (base + _GAMMA * (a + 1)) & MASK64
    h = (h ^ (h >> 30)) * _M1 & MASK64
    h = (h ^ (h >> 27)) * _M2 & MASK64
    return h ^ (h >> 31)


def _threshold(p: float) -> int:
    """The bound a 64-bit draw `h` succeeds below: `h < _threshold(p)` iff
    `(h >> 11) * 2**-53 < p`, exactly, since `p * 2**53` and
    `(h >> 11) * 2**-53` are both exact doubles."""
    return math.ceil(p * 2.0**53) << 11


class KeyedRng:
    """Stateless keyed stream: each draw is a pure function of the seed
    and its coordinates (domain, slot, entity index, sequence number), one
    `_absorb` round per coordinate."""

    __slots__ = ("_link_base", "_swap_base")

    def __init__(self, seed: int):
        self._link_base = _absorb(seed, _LINK_DOMAIN)
        self._swap_base = _absorb(seed, _SWAP_DOMAIN)

    def link_slot_base(self, slot: int) -> int:
        return _absorb(self._link_base, slot)

    def swap_slot_base(self, slot: int) -> int:
        return _absorb(self._swap_base, slot)


def _pack(values) -> int:
    """One 128-bit lane per value, lane 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values),
                          "little")


class _Plane:
    """Many two-coordinate draws as one big-integer pass (SWAR): lane i of
    `bits(base)` is 1 iff `_absorb(_absorb(base, a), b) < threshold` for the
    i-th lane `(a, b, threshold)`, exactly.

    Each draw owns a 128-bit lane of one int. Masking every lane to its low
    64 bits after each add and xor-shift keeps lanes apart: a shift moves the
    next lane's low bits into this lane's top, where the mask drops them, and
    a masked lane times `_M1` or `_M2` is below 2**128, so a product never
    carries into the next lane. The test adds `2**64 - threshold` to a lane:
    bit 64 then holds `h >= threshold`, also at thresholds 0 and 2**64.
    """

    __slots__ = ("_n", "_ones", "_low", "_offsets", "_neg", "_carry")

    def __init__(self, lanes):
        lanes = list(lanes)
        self._n = len(lanes)
        self._ones = _pack([1] * self._n)
        self._low = MASK64 * self._ones
        self._carry = self._ones << 64
        self._offsets = tuple(  # each coordinate's addend, as `_absorb` adds it
            _pack([_GAMMA * (lane[i] + 1) & MASK64 for lane in lanes])
            for i in (0, 1)
        )
        # a 64-bit h is below t iff it is below t clamped to [0, 2**64]
        self._neg = _pack([(1 << 64) - min(max(t, 0), 1 << 64)
                           for _, _, t in lanes])

    def bits(self, base: int) -> bytes:
        """Every lane's outcome at `base`, one byte (0 or 1) per lane."""
        low = self._low
        h = base * self._ones
        for offset in self._offsets:
            h = (h + offset) & low
            h = (h ^ (h >> 30)) & low
            h = h * _M1 & low
            h = (h ^ (h >> 27)) & low
            h = h * _M2 & low
            h = (h ^ (h >> 31)) & low
        carry = self._carry
        return (((h + self._neg) & carry) ^ carry).to_bytes(
            16 * self._n, "little")[8::16]


class _SwapLanes:
    """A run's swap plane: lanes (node rank, sequence number) for each node's
    first `caps[rank]` sequence numbers of a slot, node by node in rank order,
    each drawn against its node's threshold `thresholds[rank]`."""

    __slots__ = ("plane", "first", "caps", "thresholds")

    def __init__(self, caps: list[int], thresholds: list[int]):
        self.caps = caps
        self.thresholds = thresholds
        self.first = list(itertools.accumulate(caps, initial=0))
        self.plane = _Plane((r, s, thresholds[r])
                            for r, cap in enumerate(caps) for s in range(cap))


class _SwapDraws:
    """One slot's swap randomness, keyed (slot, node rank, sequence number):
    sequence numbers count per node from 0, so identical event orders
    reproduce identical outcomes across runs.

    Draws within a node's plane cap are slices of the slot's swap plane,
    computed on first use; the rest take one `_absorb` round each after the
    node's first round. Both are the same draws.
    """

    __slots__ = ("_base", "_lanes", "_bits", "_bases", "_seq")

    def __init__(self, base: int, lanes: _SwapLanes):
        self._base = base
        self._lanes = lanes
        self._bits: bytes | None = None
        nodes = len(lanes.caps)
        self._bases: list[int | None] = [None] * nodes  # per-node first round
        self._seq = [0] * nodes

    def successes(self, rank: int, m: int) -> bytes:
        """The next `m` swap outcomes at node `rank`, in sequence order, one
        byte (0 or 1) each."""
        seq = self._seq[rank]
        end = self._seq[rank] = seq + m
        lanes = self._lanes
        cap = lanes.caps[rank]
        if seq >= cap or not m:
            return self._chain(rank, seq, end)
        bits = self._bits
        if bits is None:
            bits = self._bits = lanes.plane.bits(self._base)
        lo = lanes.first[rank]
        if end <= cap:
            return bits[lo + seq:lo + end]
        return bits[lo + seq:lo + cap] + self._chain(rank, cap, end)

    def _chain(self, rank: int, seq: int, end: int) -> bytes:
        """Draws `seq` to `end` at node `rank`, one round each after the
        node's first round."""
        if seq == end:
            return b""
        h = self._bases[rank]
        if h is None:
            h = self._bases[rank] = _absorb(self._base, rank)
        threshold = self._lanes.thresholds[rank]
        return bytes([_absorb(h, s) < threshold for s in range(seq, end)])
