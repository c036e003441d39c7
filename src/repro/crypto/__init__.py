"""Cryptographic substrate for Seabed.

Modules:

- :mod:`repro.crypto.kernel` -- the batch :class:`Kernel` protocol every
  scheme implements (``encrypt_column`` / ``decrypt_column`` /
  ``compare_column`` / ``pad_range``, array-in / array-out) and the
  plaintext :class:`PlainKernel`.
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
from repro.crypto.kernel import (
    KERNEL_OPS,
    Kernel,
    KernelUnsupported,
    PlainKernel,
    kernel_ops,
    validate_kernel,
)
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
    "KERNEL_OPS",
    "Kernel",
    "KernelUnsupported",
    "KeyChain",
    "OreScheme",
    "PaillierKeyPair",
    "PaillierScheme",
    "PlainKernel",
    "Prf",
    "SplitMix64Prf",
    "kernel_ops",
    "prf_from_name",
    "validate_kernel",
]
