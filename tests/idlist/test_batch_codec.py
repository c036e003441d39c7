"""Tests for the varbyte coder's per-value byte offsets
(``repro.idlist.varbyte.encode_with_offsets``)."""

import numpy as np

from repro.idlist.varbyte import encode_with_offsets


class TestEncodeWithOffsets:
    def test_offsets_delimit_values(self):
        values = np.array([1, 200, 3, 2**40], dtype=np.uint64)
        payload, offsets = encode_with_offsets(values)
        assert len(offsets) == 5
        assert offsets[-1] == len(payload)
        from repro.idlist.varbyte import decode as vb_decode

        for i, v in enumerate(values.tolist()):
            piece = payload[offsets[i]:offsets[i + 1]]
            assert vb_decode(piece).tolist() == [v]

    def test_empty(self):
        payload, offsets = encode_with_offsets(np.empty(0, np.uint64))
        assert payload == b"" and offsets.tolist() == [0]
