"""Tests for job measurements (repro.engine.metrics).

The time model these records feed is pinned in ``test_cluster.py``
(``TestModel*``)."""

import dataclasses

import pytest

from repro.engine.metrics import JobMetrics, StageMetrics


class TestStageMetrics:
    def test_derived_properties(self):
        stage = StageMetrics("map", task_times=[0.1, 0.2, 0.3])
        assert stage.num_tasks == 3
        assert stage.total_cpu == pytest.approx(0.6)


class TestJobMetrics:
    def test_real_time_sums_wall_clock(self):
        job = JobMetrics()
        job.add_stage(StageMetrics("map", [0.4, 0.4], wall_time=0.21))
        job.add_stage(StageMetrics("reduce", [0.1], wall_time=0.1))
        assert job.real_time == pytest.approx(0.31)

    def test_stage_lookup(self):
        job = JobMetrics()
        job.add_stage(StageMetrics("merge", [0.1], wall_time=0.1, driver=True))
        assert job.stage("merge").wall_time == 0.1
        with pytest.raises(KeyError):
            job.stage("missing")

    def test_shuffle_bytes_is_the_sum_of_recorded_shuffles(self):
        job = JobMetrics()
        assert job.shuffle_bytes == 0
        job.shuffles += [(1000, 0), (24, 8)]
        assert job.shuffle_bytes == 1024

    def test_partition_counters_sum_over_stages(self):
        job = JobMetrics()
        job.add_stage(StageMetrics("map", [0.1], partitions_total=8,
                                   partitions_skipped=5))
        job.add_stage(StageMetrics("merge", [0.1], driver=True))
        assert (job.partitions_total, job.partitions_skipped) == (8, 5)

    def test_carries_measurements_only(self):
        # The wire and the registry see these fields and nothing else:
        # anything modelled is computed by engine.cluster.model().
        assert [f.name for f in dataclasses.fields(StageMetrics)] == [
            "name", "task_times", "wall_time",
            "partitions_total", "partitions_skipped", "driver",
        ]
        assert [f.name for f in dataclasses.fields(JobMetrics)] == [
            "stages", "shuffles", "result_bytes", "client_time",
            "shards_total", "shards_skipped", "failovers",
            "queue_wait", "wire_time",
        ]
