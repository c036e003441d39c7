"""Directory-fsync degradation and cluster durability knobs."""

import errno
import os
import warnings

import pytest

from repro.engine import storage
from repro.engine.cluster import ClusterConfig
from repro.errors import ExecutionError


class TestFsyncDirFallback:
    def _patch_fsync(self, monkeypatch, err):
        real = os.fsync

        def failing(fd):
            raise OSError(err, os.strerror(err))

        monkeypatch.setattr(storage.os, "fsync", failing)
        return real

    @pytest.mark.parametrize("err", sorted(storage._FSYNC_UNSUPPORTED))
    def test_unsupported_errno_degrades_with_warning(
        self, tmp_path, monkeypatch, err
    ):
        self._patch_fsync(monkeypatch, err)
        before = storage.FSYNC_DIR_FALLBACKS
        with pytest.warns(RuntimeWarning, match="rejects fsync"):
            storage.fsync_dir(str(tmp_path))
        assert storage.FSYNC_DIR_FALLBACKS == before + 1

    def test_warning_fires_once_per_directory(self, tmp_path, monkeypatch):
        self._patch_fsync(monkeypatch, errno.EINVAL)
        with pytest.warns(RuntimeWarning):
            storage.fsync_dir(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            storage.fsync_dir(str(tmp_path))

    def test_other_errors_still_raise(self, tmp_path, monkeypatch):
        self._patch_fsync(monkeypatch, errno.EIO)
        with pytest.raises(OSError):
            storage.fsync_dir(str(tmp_path))


class TestConfigValidation:
    def test_nonpositive_append_partition_rows_rejected(self):
        with pytest.raises(ExecutionError, match="append_partition_rows"):
            ClusterConfig(append_partition_rows=0)
