"""Per-column scheme instantiation from the master key chain.

Section 4.2: "We choose a different secret key k for each new column we
encrypt."  The factory derives one subkey per physical column (or per join
group, so equi-join columns in different tables share DET ciphertexts) and
caches scheme instances.  An ASHE column runs on the AES-NI PRF
(:class:`~repro.crypto.prf.AesNiCtrPrf`) under its subkey, over its plan's
group (``ashe_bits``, :meth:`~repro.core.schema.EncryptedSchema.ashe_bits`),
else ``Z_2^64``.

Every instance is handed out behind an
:class:`~repro.crypto.kernel.InstrumentedKernel` wrapper, so the batch
kernel calls the client issues (encrypt/decrypt/compare/pad) feed the
per-scheme ``seabed_kernel_*`` metrics for free; the wrapper forwards
all other attributes to the scheme, so callers are none the wiser.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.kernel import InstrumentedKernel
from repro.crypto.keys import KeyChain
from repro.crypto.ore import OreScheme
from repro.crypto.prf import AesNiCtrPrf


class CryptoFactory:
    """Caches ASHE/DET/ORE instances keyed by physical column name."""

    def __init__(
        self,
        keychain: KeyChain,
        table: str,
        ashe_bits: Mapping[str, int] | None = None,
    ):
        self._keychain = keychain
        self._ashe_bits = dict(ashe_bits or {})
        self._table = table
        self._ashe: dict[str, InstrumentedKernel] = {}
        self._det: dict[str, InstrumentedKernel] = {}
        self._ore: dict[str, InstrumentedKernel] = {}
        # One session may be shared by several caller threads; the lock
        # keeps the check-then-insert below from constructing a scheme
        # twice (the loser's per-scheme op counters would be silently
        # discarded).
        self._lock = threading.Lock()

    def ashe(self, physical_column: str) -> InstrumentedKernel:
        with self._lock:
            if physical_column not in self._ashe:
                key = self._keychain.column_key(self._table, physical_column, "ashe")
                self._ashe[physical_column] = InstrumentedKernel(
                    AsheScheme(AesNiCtrPrf(key),
                               self._ashe_bits.get(physical_column, 64)), "ashe"
                )
            return self._ashe[physical_column]

    def det(self, physical_column: str, join_group: str | None = None) -> InstrumentedKernel:
        cache_key = f"join:{join_group}" if join_group else physical_column
        with self._lock:
            if cache_key not in self._det:
                if join_group:
                    key = self._keychain.derive("join", join_group, "det")
                else:
                    key = self._keychain.column_key(self._table, physical_column, "det")
                self._det[cache_key] = InstrumentedKernel(DetScheme(key), "det")
            return self._det[cache_key]

    def ore(self, physical_column: str, nbits: int = 32,
            signed: bool = True) -> InstrumentedKernel:
        cache_key = f"{physical_column}/{nbits}/{signed}"
        with self._lock:
            if cache_key not in self._ore:
                key = self._keychain.column_key(self._table, physical_column, "ore")
                self._ore[cache_key] = InstrumentedKernel(
                    OreScheme(key, nbits=nbits, signed=signed), "ore"
                )
            return self._ore[cache_key]
