"""A keyless bloom filter over DET equality tokens.

Zone maps need an "is this token possibly in this partition?" structure
whose size does not grow with partition cardinality.  A bloom filter fits,
with one hard requirement inherited from the pruning contract: **no false
negatives, ever** -- a membership "no" must be proof of absence, because
the planner drops the partition on it.  False positives only cost a
wasted scan.

Leakage: the filter is built from the DET token column the server
already stores, and its hash functions are *public constants* (splitmix
finalisers, no key material), so the server could compute the identical
bit array itself -- the artifact reveals nothing beyond the DET
ciphertext baseline.  The security tests assert exactly this
recomputability (:func:`repro.attacks.frequency.audit_zone_maps`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SeabedError

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# splitmix64 finaliser constants -- fixed and public by design: the bits
# must be derivable from the tokens alone (see module docstring).  The
# shard ring routes DET tokens through the same mixer.
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_SEED_H2 = 0x9E3779B97F4A7C15

#: Bits per distinct token targeting roughly a 1% false-positive rate.
BITS_PER_TOKEN = 10
#: Cap on the number of probe functions (k = m/n * ln 2, clamped).
MAX_HASHES = 8


_MIX_STEPS = ((30, _MIX_MUL_1), (27, _MIX_MUL_2))
_MIX_STEPS_U64 = tuple((_U64(s), _U64(m)) for s, m in _MIX_STEPS)


def mix64(x: np.ndarray | int) -> np.ndarray | int:
    """The public splitmix64 finaliser (a bijection), over a uint64 array
    -- whose multiplies wrap -- or over one Python int, masked to 64 bits
    after each multiply (a single key skips numpy's per-call overhead)."""
    array = isinstance(x, np.ndarray)
    for shift, mul in _MIX_STEPS_U64 if array else _MIX_STEPS:
        x = (x ^ (x >> shift)) * mul
        if not array:
            x &= _MASK64
    return x ^ (x >> (_U64(31) if array else 31))


class BloomFilter:
    """Fixed-size bloom filter over uint64 tokens (double hashing)."""

    def __init__(self, num_bits: int, num_hashes: int,
                 words: np.ndarray | None = None):
        if num_bits < 64 or num_bits % 64:
            raise SeabedError("bloom size must be a positive multiple of 64 bits")
        if not 1 <= num_hashes <= 64:
            raise SeabedError("bloom needs 1..64 hash functions")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        if words is None:
            words = np.zeros(self.num_bits // 64, dtype=_U64)
        elif words.shape != (self.num_bits // 64,) or words.dtype != _U64:
            raise SeabedError("bloom word array does not match num_bits")
        self._words = words

    @classmethod
    def for_capacity(cls, num_tokens: int) -> "BloomFilter":
        """Size a filter for ``num_tokens`` distinct tokens (~1% FPR)."""
        num_tokens = max(1, int(num_tokens))
        num_bits = ((num_tokens * BITS_PER_TOKEN + 63) // 64) * 64
        num_hashes = max(1, min(
            MAX_HASHES, round(num_bits / num_tokens * math.log(2))
        ))
        return cls(num_bits, num_hashes)

    # -- hashing -------------------------------------------------------------

    def _probes(self, tokens: np.ndarray) -> np.ndarray:
        """(k, N) bit indices via double hashing: h1 + i*h2 mod m."""
        t = np.asarray(tokens, dtype=_U64)
        h1 = mix64(t)
        h2 = mix64(t ^ _U64(_SEED_H2)) | _U64(1)
        steps = np.arange(self.num_hashes, dtype=_U64)[:, None]
        return (h1[None, :] + steps * h2[None, :]) % _U64(self.num_bits)

    # -- mutation / queries --------------------------------------------------

    def add_tokens(self, tokens: np.ndarray) -> None:
        """Set the bits for every token in the (uint64) array."""
        if len(tokens) == 0:
            return
        idx = self._probes(tokens).ravel()
        words = idx >> _U64(6)
        bits = _U64(1) << (idx & _U64(63))
        np.bitwise_or.at(self._words, words.astype(np.int64), bits)

    def might_contain(self, token: int) -> bool:
        """True unless the token is *provably* absent (no false negatives)."""
        idx = self._probes(np.asarray([int(token) & _MASK64], dtype=_U64))[:, 0]
        words = self._words[(idx >> _U64(6)).astype(np.int64)]
        bits = _U64(1) << (idx & _U64(63))
        return bool(np.all(words & bits != 0))

    # -- introspection / serialisation ---------------------------------------

    @property
    def fill_ratio(self) -> float:
        set_bits = int(np.bitwise_count(self._words).sum())
        return set_bits / self.num_bits

    def to_dict(self) -> dict:
        """JSON-serialisable form (bits little-endian, hex-encoded)."""
        return {
            "m": self.num_bits,
            "k": self.num_hashes,
            "bits": self._words.astype("<u8").tobytes().hex(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BloomFilter":
        try:
            num_bits = int(payload["m"])
            num_hashes = int(payload["k"])
            raw = bytes.fromhex(payload["bits"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SeabedError(f"malformed bloom payload: {exc}") from None
        if len(raw) * 8 != num_bits:
            raise SeabedError(
                f"bloom payload holds {len(raw) * 8} bits, header says {num_bits}"
            )
        words = np.frombuffer(raw, dtype="<u8").astype(_U64)
        return cls(num_bits, num_hashes, words)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomFilter)
            and self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and bool(np.array_equal(self._words, other._words))
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, "
            f"fill={self.fill_ratio:.2f})"
        )
