"""Directory-fsync degradation and cluster durability/caching knobs."""

import errno
import os
import warnings

import pytest

from repro.engine import storage
from repro.engine import store as store_mod
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError, StorageError


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

    def test_nonpositive_reader_keep_generations_rejected(self):
        with pytest.raises(ExecutionError, match="reader_keep_generations"):
            ClusterConfig(reader_keep_generations=0)


class TestReaderRetentionKnob:
    @pytest.fixture(autouse=True)
    def _restore(self):
        kept = store_mod.reader_keep_generations()
        yield
        store_mod.set_reader_keep_generations(kept)

    def test_setter_validates(self):
        with pytest.raises(StorageError, match="at least 1"):
            store_mod.set_reader_keep_generations(0)

    def test_cluster_applies_config_knob(self):
        SimulatedCluster(ClusterConfig(reader_keep_generations=2))
        assert store_mod.reader_keep_generations() == 2
