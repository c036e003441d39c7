"""The keyed pseudo-random function ``F_k : Z_{2^64} -> Z_{2^64}``.

ASHE (Section 3.1 of the paper) is built on a PRF over row identifiers,
and the paper instantiates it with AES, whose AES-NI hardware
instructions evaluate it at 47 ns per 128-bit block (Table 1).
:class:`AesNiCtrPrf` is that PRF: AES-128 in counter mode through the
``cryptography`` package's OpenSSL backend, which uses AES-NI.  One AES
block yields two 64-bit outputs, the paper's optimisation of carving
several pseudo-random numbers out of one AES operation (Section 4.3),
and a whole column's counter blocks are encrypted in one ECB call.

The identifier domain is ``Z_{2^64}`` with wraparound, so ``F_k(i - 1)``
is well defined for ``i = 0`` (it wraps to ``F_k(2^64 - 1)``); the
encryptor never assigns that identifier to a row.
"""

from __future__ import annotations

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.errors import CryptoError

#: ``cryptography`` is a hard dependency, so hardware AES is always there
#: (the benchmark in ``perf/`` checks this flag before it runs).
HAVE_AESNI = True

MASK64 = (1 << 64) - 1

_U64 = np.uint64


class AesNiCtrPrf:
    """AES-128-CTR, batch-evaluated through ``cryptography``'s AES-NI path.

    Identifier ``i`` maps to the big-endian counter block ``i >> 1``; the
    low bit of ``i`` selects the 64-bit lane (lane 0 is the first eight
    big-endian bytes of the AES output).  A CTR keystream *is* ECB over
    the counter blocks, so every evaluation is one ECB call over an array
    of blocks.  Evaluation is deterministic per key and offers random
    access (``eval_one``), bulk random access (``eval_many``) and
    contiguous streams (``eval_range``): ASHE encryption walks contiguous
    IDs while decryption touches only range endpoints.
    """

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)):
            raise CryptoError(f"PRF key must be bytes, got {type(key).__name__}")
        if len(key) < 16:
            raise CryptoError(f"PRF key must be at least 16 bytes, got {len(key)}")
        self._cipher = Cipher(algorithms.AES(bytes(key[:16])), modes.ECB())

    def _blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """ECB-encrypt counter blocks; returns an ``(n, 2)`` lane array."""
        counters = np.zeros((block_ids.size, 2), dtype=">u8")
        counters[:, 1] = block_ids
        enc = self._cipher.encryptor()
        out = enc.update(counters.tobytes()) + enc.finalize()
        return np.frombuffer(out, dtype=">u8").astype(_U64).reshape(-1, 2)

    def eval_one(self, i: int) -> int:
        """Return ``F_k(i)`` as a Python int in ``[0, 2^64)``."""
        return int(self.eval_many(np.asarray([i & MASK64], dtype=_U64))[0])

    def eval_many(self, ids: np.ndarray) -> np.ndarray:
        """Return ``F_k`` over an array of identifiers (uint64 in/out)."""
        flat = np.asarray(ids, dtype=_U64).ravel()
        if flat.size == 0:
            return np.empty(np.shape(ids), dtype=_U64)
        lanes = self._blocks(flat >> _U64(1))
        out = np.where(flat & _U64(1), lanes[:, 1], lanes[:, 0])
        return out.reshape(np.shape(ids))

    def eval_range(self, start: int, count: int) -> np.ndarray:
        """Return ``F_k`` over the contiguous IDs ``start .. start+count-1``.

        ``start`` may be ``-1`` (it wraps mod ``2^64``), which is how the
        encryptor obtains ``F_k(i - 1)`` for the first row of a table.
        """
        if count < 0:
            raise CryptoError(f"negative PRF range count: {count}")
        start &= MASK64
        if count == 0:
            return np.empty(0, dtype=_U64)
        if start + count > (1 << 64):  # identifier wraparound: split the stream
            head = (1 << 64) - start
            return np.concatenate(
                [self.eval_range(start, head), self.eval_range(0, count - head)]
            )
        first_block = start >> 1
        last_block = (start + count - 1) >> 1
        block_ids = np.arange(first_block, last_block + 1, dtype=_U64)
        lanes = self._blocks(block_ids).reshape(-1)
        offset = start - 2 * first_block
        return lanes[offset : offset + count].copy()
