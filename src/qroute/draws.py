"""Keyed draws: every random outcome of the simulator is a pure function of
the seed and the draw's coordinates (domain, slot, entity, sequence number).

A draw chains one splitmix64 round per coordinate (Steele, Lea & Flood,
OOPSLA 2014) and succeeds when the 64-bit hash is below an integer
threshold. The draws of a block of slots are computed together as a
plane: SWAR ("SIMD within a register") over one big integer, one 128-bit
lane per draw, slot after slot.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_LINK_DOMAIN = 0x4C494E4B
_SWAP_DOMAIN = 0x53574150
_LANE = 16  # bytes per lane
_MASK_LANE = MASK64.to_bytes(_LANE, "little")  # a lane's low 64 bits
_BLOCK_LANES = 4096  # lanes per block int: 64 KiB


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
    """A seed's two domain keys, link and swap: the seed absorbed with each
    domain; `_slot_bases` absorbs the slot next."""

    __slots__ = ("link_key", "swap_key")

    def __init__(self, seed: int):
        self.link_key = _absorb(seed, _LINK_DOMAIN)
        self.swap_key = _absorb(seed, _SWAP_DOMAIN)


def _lanes(values) -> bytes:
    """One 16-byte little-endian lane per value, lane 0 first."""
    return b"".join(v.to_bytes(_LANE, "little") for v in values)


def _round(h: int, offset: int, low: int) -> int:
    """`_absorb` on every lane of `h` at once; lane i of `offset` holds lane
    i's `_GAMMA * (a + 1)` mod 2**64, and `low` masks each lane to 64 bits."""
    h += offset  # a step per statement keeps fewer 64 KiB temporaries alive
    h &= low
    h ^= h >> 30
    h &= low
    h *= _M1
    h &= low
    h ^= h >> 27
    h &= low
    h *= _M2
    h &= low
    h ^= h >> 31
    return h & low


@lru_cache(maxsize=2)
def _slot_lanes(count: int) -> tuple[int, int, int]:
    """For `count` lanes: lanes of 1, the 64-bit lane mask, and lanes 1 to
    `count`."""
    return (int.from_bytes((b"\x01" + bytes(15)) * count, "little"),
            int.from_bytes(_MASK_LANE * count, "little"),
            int.from_bytes(_lanes(range(1, count + 1)), "little"))


def _slot_bases(key: int, first: int, count: int) -> bytes:
    """`_absorb(key, slot)` for the `count` slots from `first`, as one SWAR
    round over the slot coordinates: a 16-byte lane per slot, in order.
    Slots stay below 2**64, so no lane's `(slot + 1) * _GAMMA` carries."""
    ones, low, index = _slot_lanes(count)
    offsets = (index + first * ones) * _GAMMA & low  # lane k: slot first + k, + 1
    return _round(key * ones, offsets, low).to_bytes(_LANE * count, "little")


class _Plane:
    """Many two-coordinate draws at every slot of a block, as one big-integer
    pass (SWAR). For a plane of n lanes `(a, b, threshold)`, byte k * n + i
    of `block(bases)` is 1 iff `_absorb(_absorb(base, a), b) < threshold`
    for lane i and the k-th slot base, exactly, and 0 otherwise.

    Each draw owns a 128-bit lane of one int, slot-major: the block's slots
    in order, each with the plane's n lanes. A slot's base is copied into
    its n lanes by bytes repetition, and the lane offsets are tiled once per
    slot, so each lane computes the very chain `_absorb` computes. Masking
    every lane to its low 64 bits after each add and xor-shift keeps lanes
    apart: a shift moves the next lane's low bits into this lane's top,
    where the mask drops them, and a masked lane times `_M1` or `_M2` is
    below 2**128, so a product never carries into the next lane. The test
    adds the threshold to `2**64 - 1 - h`: bit 64, the lane's byte 8, then
    holds `h < threshold`, also at thresholds 0 and 2**64. A block takes
    about 30 big-integer operations, whatever its lane count.
    """

    __slots__ = ("_n", "_offsets", "_thresholds", "_tiled")

    def __init__(self, lanes):
        lanes = list(lanes)
        self._n = len(lanes)
        self._offsets = tuple(  # each coordinate's addend, as `_absorb` adds it
            _lanes([_GAMMA * (lane[i] + 1) & MASK64 for lane in lanes])
            for i in (0, 1)
        )
        # a 64-bit h is below t iff it is below t clamped to [0, 2**64]
        self._thresholds = _lanes([min(max(t, 0), 1 << 64) for _, _, t in lanes])
        self._tiled: tuple = (None, ())  # (slots, lane constants tiled)

    def __len__(self) -> int:
        return self._n

    def block(self, bases: bytes) -> bytes:
        """Every lane's outcome at each slot base in `bases` (16-byte lanes,
        as `_slot_bases` gives them), one byte (0 or 1) per lane, slot by
        slot."""
        n = self._n
        count = len(bases) // _LANE
        if self._tiled[0] != count:
            self._tiled = (count, [
                int.from_bytes(lanes * count, "little")
                for lanes in (*self._offsets, self._thresholds, _MASK_LANE * n)
            ])
        first, second, thresholds, low = self._tiled[1]
        h = _round(_round(int.from_bytes(b"".join(
            [bases[k:k + _LANE] * n for k in range(0, len(bases), _LANE)]
        ), "little"), first, low), second, low)
        h ^= low  # 2**64 - 1 - h
        h += thresholds
        return h.to_bytes(_LANE * n * count, "little")[8::_LANE]


def _block_slots(planes) -> int:
    """Slots per block: the most whose lanes fit `_BLOCK_LANES` in each of
    the `planes`, and in the slot bases' one lane per slot, but at least
    one. A run's last block takes the slots left."""
    return max(1, _BLOCK_LANES // max(1, *map(len, planes)))


def _link_schedule(graph, runs) -> list:
    """The link schedule both forwarding modes generate on: one entry per
    channel run, (run, channel range, threshold), where a run is (edge
    index, first channel, width), in (edge index, first channel) order,
    which async link ids follow."""
    return [(run, range(run[1], run[1] + run[2]),
             _threshold(graph.edges[run[0]].link_prob))
            for run in sorted(runs)]


def _link_plane(schedule) -> _Plane:
    """The plane of every channel's link draw, keyed (edge index, channel),
    from a link schedule."""
    return _Plane((run[0], ch, threshold)
                  for run, chans, threshold in schedule for ch in chans)


def _link_spans(schedule) -> list[tuple[int, int]]:
    """Each link schedule entry's lanes (lo, hi) in the link plane, which
    has one lane per channel in schedule order."""
    ends = list(itertools.accumulate(len(chans) for _, chans, _ in schedule))
    return list(zip([0, *ends], ends))


def _span_counts(bits: bytes, width: int, lo: int, hi: int, size: int) -> list[int]:
    """Set lanes lo to hi of each of the `size` slots in a block's `bits`,
    whose slots are `width` lanes each."""
    count = list(bits[lo::width]) if hi > lo else [0] * size
    for lane in range(lo + 1, hi):
        count = list(map(add, count, bits[lane::width]))
    return count


class _SwapLanes:
    """A run's swap plane: lanes (node rank, sequence number) for each node's
    first `caps[rank]` sequence numbers of a slot, node by node in rank order,
    each drawn against its node's swap probability `probs[rank]`."""

    __slots__ = ("plane", "first", "caps")

    def __init__(self, caps: list[int], probs: list[float]):
        self.caps = caps
        self.first = list(itertools.accumulate(caps, initial=0))
        thresholds = list(map(_threshold, probs))
        self.plane = _Plane((r, s, thresholds[r])
                            for r, cap in enumerate(caps) for s in range(cap))

    def starts(self, size: int) -> list[list[int]]:
        """Each node's first byte in each slot of a block of `size` slots."""
        depth = len(self.plane)
        return [list(itertools.islice(itertools.count(lo, depth), size))
                for lo in self.first]


class _SwapDraws:
    """One slot's swap randomness, keyed (slot, node rank, sequence number):
    sequence numbers count per node from 0, so identical event orders
    reproduce identical outcomes across runs.

    Every draw is a byte of slot k's part of a block's swap plane `bits`.
    A draw past its node's plane cap raises `AssertionError`: the caps bound
    what the kernels draw, so such a draw is a broken kernel or cap.
    """

    __slots__ = ("_bits", "_at", "_lanes", "_seq")

    def __init__(self, bits: bytes, k: int, lanes: _SwapLanes):
        self._bits = bits
        self._at = k * len(lanes.plane)
        self._lanes = lanes
        self._seq = [0] * len(lanes.caps)

    def successes(self, rank: int, m: int) -> bytes:
        """The next `m` swap outcomes at node `rank`, in sequence order, one
        byte (0 or 1) each."""
        seq = self._seq[rank]
        end = self._seq[rank] = seq + m
        lanes = self._lanes
        if end > lanes.caps[rank]:
            raise AssertionError(f"node rank {rank}: swap draw {end - 1} is past "
                                 f"its plane cap {lanes.caps[rank]}")
        lo = self._at + lanes.first[rank]
        return self._bits[lo + seq:lo + end]

    def success(self, rank: int) -> int:
        """The next swap outcome at node `rank`: `successes(rank, 1)[0]`."""
        seq = self._seq[rank]
        if seq < self._lanes.caps[rank]:
            self._seq[rank] = seq + 1
            return self._bits[self._at + self._lanes.first[rank] + seq]
        return self.successes(rank, 1)[0]  # raises: past the cap
