"""The Paillier cryptosystem: the baseline Seabed is measured against.

CryptDB and Monomi perform encrypted aggregation with Paillier's additively
homomorphic public-key scheme (paper Sections 2.1, 6).  We implement it in
full so every benchmark can run the three-way comparison the paper reports
(NoEnc / Seabed / Paillier):

- key generation with Miller-Rabin safe random primes,
- ``Enc(m) = (1 + m n) r^n  mod n^2`` (using the standard ``g = n + 1``),
- homomorphic addition = ciphertext multiplication mod ``n^2``,
- decryption via ``L(c^lambda mod n^2) mu mod n``, with an optional
  CRT-accelerated path (~4x) that mirrors production implementations.

Ciphertexts are plain Python ints (arbitrary precision); a 1024-bit modulus
gives the 2048-bit ciphertexts used in the paper's storage table.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from random import Random

import numpy as np

from repro.errors import CryptoError

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def _is_probable_prime(n: int, rng: Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass
class PaillierKeyPair:
    """Public (n) and private (p, q, lambda, mu) Paillier key material."""

    n: int
    p: int
    q: int

    @classmethod
    def generate(cls, bits: int = 1024, seed: int | None = None) -> "PaillierKeyPair":
        """Generate a keypair with an ``bits``-bit modulus.

        ``seed`` makes tests reproducible; production callers omit it and
        get OS randomness.
        """
        rng = Random(seed) if seed is not None else Random(secrets.randbits(256))
        half = bits // 2
        while True:
            p = _generate_prime(half, rng)
            q = _generate_prime(bits - half, rng)
            if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
                n = p * q
                if n.bit_length() == bits:
                    return cls(n=n, p=p, q=q)

    @property
    def ciphertext_bits(self) -> int:
        return 2 * self.n.bit_length()


class PaillierScheme:
    """Encrypt / add / decrypt with one keypair.

    Randomness for encryption blinding comes from a dedicated RNG;  pass
    ``seed`` for reproducible ciphertexts in tests.
    """

    def __init__(self, keys: PaillierKeyPair, seed: int | None = None,
                 blinding_pool: int | None = None):
        """``blinding_pool`` precomputes that many ``r^n mod n^2`` blinding
        factors and samples encryptions from the pool.  This reuses
        randomness and is **not semantically secure**; it exists so
        benchmark *setup* (bulk-encrypting baseline datasets) is tractable
        while ciphertext sizes and every server-side cost stay identical.
        Never enable it for real data.
        """
        self._keys = keys
        self._rng = Random(seed) if seed is not None else Random(secrets.randbits(256))
        n = keys.n
        self._n = n
        self._n2 = n * n
        lam = math.lcm(keys.p - 1, keys.q - 1)
        self._lam = lam
        # mu = L(g^lam mod n^2)^-1 with g = n+1:  g^lam = 1 + lam*n (mod n^2)
        self._mu = pow(lam % n, -1, n)
        # CRT precomputation
        self._p2 = keys.p * keys.p
        self._q2 = keys.q * keys.q
        self._hp = pow(self._l_func(pow(n + 1, keys.p - 1, self._p2), keys.p), -1, keys.p)
        self._hq = pow(self._l_func(pow(n + 1, keys.q - 1, self._q2), keys.q), -1, keys.q)
        self._q_inv_p = pow(keys.q, -1, keys.p)
        self._blinding: list[int] | None = None
        if blinding_pool is not None:
            if blinding_pool < 1:
                raise CryptoError("blinding pool must be positive")
            self._blinding = [
                pow(self._rng.randrange(1, n), n, self._n2)
                for _ in range(blinding_pool)
            ]

    @property
    def n(self) -> int:
        return self._n

    @staticmethod
    def _l_func(x: int, n: int) -> int:
        return (x - 1) // n

    # -- core operations ----------------------------------------------------

    def encrypt(self, m: int) -> int:
        """Encrypt a (possibly negative) integer; |m| must be << n/2."""
        m_mod = m % self._n
        if self._blinding is not None:
            blind = self._blinding[self._rng.randrange(len(self._blinding))]
        else:
            r = self._rng.randrange(1, self._n)  # gcd(r, n) = 1 w.h.p.
            blind = pow(r, self._n, self._n2)
        return ((1 + m_mod * self._n) * blind) % self._n2

    def add(self, c1: int, c2: int) -> int:
        """Homomorphic addition: multiply ciphertexts mod n^2."""
        return (c1 * c2) % self._n2

    def add_plain(self, c: int, m: int) -> int:
        return (c * (1 + (m % self._n) * self._n)) % self._n2

    def mul_plain(self, c: int, k: int) -> int:
        """Scalar multiplication: Enc(m)^k = Enc(k*m)."""
        return pow(c, k % self._n, self._n2)

    def decrypt(self, c: int) -> int:
        """Standard decryption: L(c^lambda mod n^2) * mu mod n, signed."""
        m = (self._l_func(pow(c, self._lam, self._n2), self._n) * self._mu) % self._n
        return m - self._n if m > self._n // 2 else m

    def decrypt_crt(self, c: int) -> int:
        """CRT-accelerated decryption (identical output, ~4x faster)."""
        p, q = self._keys.p, self._keys.q
        mp = (self._l_func(pow(c % self._p2, p - 1, self._p2), p) * self._hp) % p
        mq = (self._l_func(pow(c % self._q2, q - 1, self._q2), q) * self._hq) % q
        m = (mq + q * (((mp - mq) * self._q_inv_p) % p)) % self._n
        return m - self._n if m > self._n // 2 else m

    # -- column interface (object arrays of Python ints) ------------------------

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt each element; returns a dtype=object array of big ints.

        ``start_id`` is ignored: Paillier ciphertexts do not depend on row
        identity.  They are arbitrary-precision ints, so
        the batch path is a loop -- exactly the per-row cost the paper's
        baseline measurements charge Paillier for.
        """
        out = np.empty(len(values), dtype=object)
        for j, m in enumerate(np.asarray(values).tolist()):
            out[j] = self.encrypt(int(m))
        return out

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Decrypt a dtype=object ciphertext column to int64 plaintexts.

        Uses the CRT-accelerated path per element (~4x over the standard
        decryption, same output).
        """
        c = np.asarray(cipher, dtype=object)
        out = np.empty(c.size, dtype=np.int64)
        for j, ct in enumerate(c.tolist()):
            out[j] = self.decrypt_crt(int(ct))
        return out

    def aggregate(self, cipher: np.ndarray, mask: np.ndarray | None = None) -> int:
        """Server-side SUM: the big-int product of selected ciphertexts."""
        selected = cipher if mask is None else cipher[mask]
        total = 1
        n2 = self._n2
        for c in selected.tolist():
            total = (total * c) % n2
        return total

    def zero_ciphertext(self) -> int:
        """An encryption of zero (the aggregation identity with blinding)."""
        return self.encrypt(0)
