"""The keyed pseudo-random function ``F_k : Z_{2^64} -> Z_{2^64}``, and
the one AES-NI pass that ASHE, DET and ORE all run on.

ASHE (Section 3.1 of the paper) is built on a PRF over row identifiers,
and the paper instantiates it with AES, whose AES-NI hardware
instructions evaluate it at 47 ns per 128-bit block (Table 1).
:class:`AesNiCtrPrf` is that PRF: AES-128 in counter mode through the
``cryptography`` package's OpenSSL backend, which uses AES-NI.  One AES
block yields two 64-bit outputs, the paper's optimisation of carving
several pseudo-random numbers out of one AES operation (Section 4.3).
DET's Feistel rounds and ORE's CLWW PRF are AES blocks under their
column key too, through the same pass (:meth:`AesNiCtrPrf.ecb`), so this
module is the one place that knows how blocks reach AES-NI.

Blocks go through ECB ``update_into`` :data:`CHUNK` at a time, into two
small buffers per call, and each chunk's output lands straight in the
caller's result array.  One ``update()`` over a whole column is several
times slower: its fresh ``bytes`` result, and every full-size copy after it,
is a new mapping above glibc's 128 KiB mmap threshold whose pages fault
on first touch -- 2.4 MB of blocks cost 2.3-3.7 ms through ``update()``
against ~0.4 ms through ``update_into`` on a 2-vCPU host, with the cliff
between 128 and 512 KiB.

The identifier domain is ``Z_{2^64}`` with wraparound, so ``F_k(i - 1)``
is well defined for ``i = 0`` (it wraps to ``F_k(2^64 - 1)``); the
encryptor never assigns that identifier to a row.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.errors import CryptoError

#: ``cryptography`` is a hard dependency, so hardware AES is always there
#: (the benchmark in ``perf/`` checks this flag before it runs).
HAVE_AESNI = True

MASK64 = (1 << 64) - 1

#: Blocks per ECB call: 64 KiB in and 64 KiB out, L2-resident and
#: below the mmap threshold, so a call's buffers are reused heap.
CHUNK = 4096

_U64 = np.uint64
_ONE = _U64(1)


class AesNiCtrPrf:
    """AES-128-CTR, batch-evaluated through ``cryptography``'s AES-NI path.

    Identifier ``i`` maps to the big-endian counter block ``i >> 1``; the
    low bit of ``i`` selects the 64-bit lane (lane 0 is the first eight
    big-endian bytes of the AES output).  A CTR keystream *is* ECB over
    the counter blocks, so every evaluation is an :meth:`ecb` pass over
    :data:`CHUNK`-block slices, in buffers of the call's own and the
    calling thread's ECB context (one PRF serves many threads).
    Evaluation is deterministic per key and offers random access
    (``eval_one``), bulk random access (``eval_many``) and contiguous
    streams (``eval_range``): ASHE encryption walks contiguous IDs while
    decryption touches only range endpoints.  DET and ORE hold one under
    their column key for its :meth:`ecb` pass.
    """

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)):
            raise CryptoError(f"AES key must be bytes, got {type(key).__name__}")
        if len(key) < 16:
            raise CryptoError(f"AES key must be at least 16 bytes, got {len(key)}")
        self._cipher = Cipher(algorithms.AES(bytes(key[:16])), modes.ECB())
        # One ECB context per thread, made on its first call (~5 us, most of
        # a one-block call): fed whole blocks only, a context holds no
        # state between calls, but one context must not serve two threads.
        self._contexts = threading.local()

    def ecb(self, blocks: int) -> tuple[np.ndarray, np.ndarray, Callable[[int], int]]:
        """An AES-128-ECB pass in buffers of the call's own, through the
        calling thread's context, :data:`CHUNK` blocks at a time at
        most: the ``(size, 2)`` big-endian words of the blocks to fill (a
        block is the pair ``(hi, lo)``, zero until written), the ``(size,
        2)`` big-endian words they encrypt to and ``encrypt(k)``, which
        encrypts the first ``k`` blocks; ``size`` is
        ``min(blocks, CHUNK)``."""
        size = min(blocks, CHUNK)
        words = np.zeros((size, 2), dtype=">u8")
        data = words.view(np.uint8).reshape(-1)
        out = np.empty(16 * size + 15, dtype=np.uint8)  # update_into's slack
        update_into = getattr(self._contexts, "update_into", None)
        if update_into is None:
            update_into = self._contexts.update_into = self._cipher.encryptor().update_into
        return (words, out[: 16 * size].view(">u8").reshape(size, 2),
                lambda k: update_into(data[: 16 * k], out))

    def eval_one(self, i: int) -> int:
        """Return ``F_k(i)`` as a Python int in ``[0, 2^64)``."""
        return int(self.eval_many(np.asarray([i & MASK64], dtype=_U64))[0])

    def eval_many(self, ids: np.ndarray) -> np.ndarray:
        """Return ``F_k`` over an array of identifiers (uint64 in/out)."""
        flat = np.asarray(ids, dtype=_U64).ravel()
        result = np.empty(flat.size, dtype=_U64)
        if flat.size:
            words, out, encrypt = self.ecb(flat.size)
            column, lanes = words[:, 1], out.reshape(-1)
            for at in range(0, flat.size, CHUNK):
                part = flat[at : at + CHUNK]
                k = part.size
                column[:k] = part >> _ONE
                encrypt(k)
                result[at : at + k] = lanes[np.arange(0, 2 * k, 2) + (part & _ONE).view(np.int64)]
        return result.reshape(np.shape(ids))

    def eval_range(self, start: int, count: int) -> np.ndarray:
        """Return ``F_k`` over the contiguous IDs ``start .. start+count-1``.

        ``start`` may be ``-1`` (it wraps mod ``2^64``), which is how the
        encryptor obtains ``F_k(i - 1)`` for the first row of a table.
        """
        if count < 0:
            raise CryptoError(f"negative PRF range count: {count}")
        start &= MASK64
        result = np.empty(count, dtype=_U64)
        head = (1 << 64) - start
        if count > head:  # identifier wraparound: split the stream
            self._range_into(0, result[head:])
        self._range_into(start, result[:head])
        return result

    def _range_into(self, start: int, result: np.ndarray) -> None:
        """Fill ``result`` with ``F_k`` over ``start, start + 1, ...``
        (no wraparound inside)."""
        if not result.size:
            return
        first = start >> 1
        blocks = ((start + result.size - 1) >> 1) - first + 1
        words, out, encrypt = self.ecb(blocks)
        column, lanes = words[:, 1], out.reshape(-1)
        for at in range(0, blocks, column.size):
            k = min(column.size, blocks - at)
            column[:k] = np.arange(first + at, first + at + k, dtype=_U64)
            encrypt(k)
            lo = 2 * at - (start & 1)  # the result index of the chunk's first lane
            a, b = max(lo, 0), min(lo + 2 * k, result.size)
            result[a:b] = lanes[a - lo : b - lo]
