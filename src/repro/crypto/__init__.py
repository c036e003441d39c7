"""Cryptographic substrate for Seabed.

Each scheme has array-in / array-out batch operations for exactly what
the planner picks it for, beside a per-value reference path
(``encrypt_one`` / ``decrypt_one`` / ``encrypt(m, i)``) that tests and
microbenchmarks check the batch operations against:

- ASHE: ``encrypt_column``, ``decrypt_column`` and ``pad_range`` (sums);
- DET: ``encrypt_column``, ``decrypt_column`` and ``compare_column``
  (equality);
- ORE: ``encrypt_column`` and ``compare_column`` (order);
- Paillier: ``encrypt_column`` and ``decrypt_column`` (the baseline).

Modules:

- :mod:`repro.crypto.kernel` -- timing of the batch operations into the
  metrics registry (:class:`~repro.crypto.kernel.InstrumentedKernel`).
- :mod:`repro.crypto.prf` -- keyed pseudo-random functions (BLAKE2b,
  vectorised SplitMix64 family, from-scratch AES-CTR, and the batch
  AES-NI path through the ``cryptography`` package).
- :mod:`repro.crypto.aes` -- from-scratch FIPS-197 AES-128 with CTR mode.
- :mod:`repro.crypto.ashe` -- the paper's additively symmetric homomorphic
  encryption scheme (Section 3.1).
- :mod:`repro.crypto.det` -- deterministic, invertible encryption (a
  Luby-Rackoff Feistel PRP) plus dictionary encoding for strings.
- :mod:`repro.crypto.ore` -- Chenette et al. order-revealing encryption
  (Appendix A.3).
- :mod:`repro.crypto.paillier` -- the Paillier baseline used by
  CryptDB/Monomi-style systems.
- :mod:`repro.crypto.keys` -- master-key / per-column subkey derivation.
"""

from repro.crypto.ashe import AsheCiphertext, AsheScheme
from repro.crypto.det import DetScheme, DictionaryEncoder
from repro.crypto.keys import KeyChain
from repro.crypto.ore import OreScheme
from repro.crypto.paillier import PaillierKeyPair, PaillierScheme
from repro.crypto.prf import (
    HAVE_AESNI,
    AesCtrPrf,
    AesNiCtrPrf,
    Blake2Prf,
    Prf,
    SplitMix64Prf,
    prf_from_name,
)

__all__ = [
    "AesCtrPrf",
    "AesNiCtrPrf",
    "AsheCiphertext",
    "AsheScheme",
    "Blake2Prf",
    "DetScheme",
    "DictionaryEncoder",
    "HAVE_AESNI",
    "KeyChain",
    "OreScheme",
    "PaillierKeyPair",
    "PaillierScheme",
    "Prf",
    "SplitMix64Prf",
    "prf_from_name",
]
