"""Known-answer tests of the AES under every scheme (repro.crypto.prf).

The FIPS-197 examples, AESAVS known answers and the NIST SP 800-38A
F.1.1 (ECB) and F.5.1 (counter-mode) vectors go through the ECB pass
that ASHE's PRF, DET's rounds and ORE's trits all run on
(``AesNiCtrPrf.ecb``), so their block function is AES-128 by published
vectors, not by agreement with another implementation.
"""

import numpy as np
import pytest

from repro.crypto.prf import AesNiCtrPrf


def ecb(key: bytes, blocks: bytes) -> bytes:
    """AES-128-ECB through the schemes' own ECB pass."""
    n = len(blocks) // 16
    words, out, encrypt = AesNiCtrPrf(key).ecb(n)
    words[:] = np.frombuffer(blocks, dtype=">u8").reshape(n, 2)
    encrypt(n)
    return out.tobytes()


class TestFips197Vectors:
    def test_appendix_b_cipher_example(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        ct = ecb(key, bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_appendix_c1_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ct = ecb(key, bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_all_zero_key_and_block(self):
        assert ecb(bytes(16), bytes(16)).hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"

    def test_all_zero_vector_is_the_prf_at_ids_0_and_1(self):
        # Counter block 0 under the all-zero key: ID 0 is the first eight
        # big-endian bytes of AES-128(0^16, 0^16), ID 1 the last eight.
        prf = AesNiCtrPrf(bytes(16))
        assert prf.eval_one(0) == 0x66E94BD4EF8A2C3B
        assert prf.eval_one(1) == 0x884CFA59CA342B2E
        assert prf.eval_range(0, 2).tolist() == [0x66E94BD4EF8A2C3B, 0x884CFA59CA342B2E]


#: AESAVS (the NIST AES Algorithm Validation Suite) known answers for
#: AES-128: GFSbox (all-zero key), VarTxt (all-zero key, one-prefix
#: plaintexts) and VarKey (one-prefix keys, all-zero plaintext).
AESAVS = [
    ("gfsbox-0", "00" * 16, "f34481ec3cc627bacd5dc3fb08f273e6",
     "0336763e966d92595a567cc9ce537f5e"),
    ("gfsbox-1", "00" * 16, "9798c4640bad75c7c3227db910174e72",
     "a9a1631bf4996954ebc093957b234589"),
    ("gfsbox-2", "00" * 16, "96ab5c2ff612d9dfaae8c31f30c42168",
     "ff4f8391a6a40ca5b25d23bedd44a597"),
    ("gfsbox-3", "00" * 16, "6a118a874519e64e9963798a503f1d35",
     "dc43be40be0e53712f7e2bf5ca707209"),
    ("gfsbox-4", "00" * 16, "cb9fceec81286ca3e989bd979b0cb284",
     "92beedab1895a94faa69b632e5cc47ce"),
    ("gfsbox-5", "00" * 16, "b26aeb1874e47ca8358ff22378f09144",
     "459264f4798f6a78bacb89c15ed3d601"),
    ("gfsbox-6", "00" * 16, "58c8e00b2631686d54eab84b91f0aca1",
     "08a4e2efec8a8e3312ca7460b9040bbf"),
    ("vartxt-0", "00" * 16, "80" + "00" * 15, "3ad78e726c1ec02b7ebfe92b23d9ec34"),
    ("vartxt-1", "00" * 16, "c0" + "00" * 15, "aae5939c8efdf2f04e60b9fe7117b2c2"),
    ("varkey-0", "80" + "00" * 15, "00" * 16, "0edd33d3c621e546455bd8ba1418bec8"),
    ("varkey-1", "c0" + "00" * 15, "00" * 16, "4bc3f883450c113c64ca42e1112a9e87"),
]


@pytest.mark.parametrize("key,pt,ct", [v[1:] for v in AESAVS], ids=[v[0] for v in AESAVS])
def test_aesavs_known_answer(key, pt, ct):
    assert ecb(bytes.fromhex(key), bytes.fromhex(pt)).hex() == ct


class TestSp80038aEcb:
    """F.1.1 ECB-AES128.Encrypt: the cipher call itself, block by block
    and as one four-block call."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    BLOCKS_PT = [
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ]
    BLOCKS_CT = [
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    ]

    @pytest.mark.parametrize("block", range(4))
    def test_each_block(self, block):
        assert ecb(self.KEY, bytes.fromhex(self.BLOCKS_PT[block])).hex() == self.BLOCKS_CT[block]

    def test_four_blocks_in_one_call(self):
        ct = ecb(self.KEY, bytes.fromhex("".join(self.BLOCKS_PT)))
        assert ct.hex() == "".join(self.BLOCKS_CT)


class TestSp80038aCtr:
    """F.5.1 CTR-AES128.Encrypt: the keystream is ECB over the counter
    blocks, exactly how the PRF evaluates a stream of IDs."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    CTR0 = int.from_bytes(bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"), "big")
    BLOCKS_PT = [
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ]
    BLOCKS_CT = [
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ]

    def counters(self, n: int) -> bytes:
        return b"".join(
            ((self.CTR0 + j) % (1 << 128)).to_bytes(16, "big") for j in range(n)
        )

    @pytest.mark.parametrize("block", range(4))
    def test_each_block(self, block):
        stream = ecb(self.KEY, self.counters(4))[16 * block : 16 * block + 16]
        pt = bytes.fromhex(self.BLOCKS_PT[block])
        ct = bytes(a ^ b for a, b in zip(pt, stream))
        assert ct.hex() == self.BLOCKS_CT[block]

    def test_four_block_message_in_one_call(self):
        pt = bytes.fromhex("".join(self.BLOCKS_PT))
        stream = ecb(self.KEY, self.counters(4))
        assert bytes(a ^ b for a, b in zip(pt, stream)).hex() == "".join(self.BLOCKS_CT)

    def test_decryption_is_the_same_keystream(self):
        ct = bytes.fromhex("".join(self.BLOCKS_CT))
        stream = ecb(self.KEY, self.counters(4))
        assert bytes(a ^ b for a, b in zip(ct, stream)).hex() == "".join(self.BLOCKS_PT)


class TestBlockFunction:
    def test_blocks_differ_across_inputs(self):
        key = bytes(range(16))
        outs = {ecb(key, i.to_bytes(16, "big")) for i in range(32)}
        assert len(outs) == 32

    def test_a_batch_is_its_blocks_one_by_one(self):
        key = bytes(range(16))
        blocks = [i.to_bytes(16, "big") for i in (0, 1, 2**64, 2**128 - 1)]
        assert ecb(key, b"".join(blocks)) == b"".join(ecb(key, b) for b in blocks)
