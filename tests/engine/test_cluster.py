"""Tests for the simulated cluster (repro.engine.cluster)."""

import threading
import time
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cluster import GBPS, ClusterConfig, SimulatedCluster, makespan, model
from repro.engine.metrics import JobMetrics, StageMetrics
from repro.errors import ExecutionError
from repro.obs import trace as obs_trace


def double(x):
    return 2 * x


class TestMakespan:
    def test_single_core_sums(self):
        assert makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_cores_is_max(self):
        assert makespan([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)

    def test_two_cores_balances(self):
        # FIFO least-loaded: [3] -> c0, [3] -> c1, [2] -> c0(3+2), [1] -> c1(4)
        assert makespan([3.0, 3.0, 2.0, 1.0], 2) == pytest.approx(5.0)

    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_zero_cores_rejected(self):
        with pytest.raises(ExecutionError, match="at least one core"):
            makespan([1.0], 0)

    def test_monotone_in_cores(self):
        times = [0.5, 1.5, 0.2, 0.9, 2.2, 0.1] * 5
        spans = [makespan(times, c) for c in (1, 2, 4, 8, 16)]
        assert spans == sorted(spans, reverse=True)


class TestStageExecution:
    def test_results_in_order(self):
        cluster = SimulatedCluster(ClusterConfig(cores=2))
        results, stage = cluster.map_stage("s", lambda i: i * i, [(i,) for i in range(5)])
        assert results == [0, 1, 4, 9, 16]
        assert stage.num_tasks == 5

    def test_stages_only_measure(self):
        # Start-up floors belong to model(); a recorded task time is the
        # task body's own seconds, whatever the config says.
        config = ClusterConfig(cores=1, task_startup_s=0.5, job_startup_s=5.0)
        cluster = SimulatedCluster(config)
        job = JobMetrics()
        _, stage = cluster.map_stage("s", lambda: None, [(), ()], job)
        assert max(stage.task_times) < 0.5 and job.real_time < 0.5
        assert not stage.driver
        assert cluster.model([job]).server_s >= 5.0 + 2 * 0.5

    def test_metrics_accumulate(self):
        cluster = SimulatedCluster(ClusterConfig(cores=2))
        job = JobMetrics()
        cluster.map_stage("a", double, [(1,)], job)
        cluster.map_stage("b", double, [(2,)], job)
        assert [s.name for s in job.stages] == ["a", "b"]
        assert cluster.model([job]).server_s >= cluster.config.job_startup_s

    def test_driver_work_counts_once(self):
        cluster = SimulatedCluster(ClusterConfig(cores=8))
        job = JobMetrics()
        out = cluster.run_driver("merge", lambda: 42, job)
        assert out == 42
        assert job.stage("merge").num_tasks == 1
        assert job.stage("merge").driver

    def test_map_stage_dispatches_args(self):
        cluster = SimulatedCluster(ClusterConfig(cores=2))
        results, stage = cluster.map_stage("s", double, [(i,) for i in range(5)])
        assert results == [0, 2, 4, 6, 8]
        assert stage.num_tasks == 5

    def test_wall_time_recorded(self):
        cluster = SimulatedCluster(ClusterConfig(cores=2))
        job = JobMetrics()
        cluster.map_stage("a", double, [(1,)], job)
        cluster.run_driver("b", lambda: 1, job)
        assert all(s.wall_time > 0.0 for s in job.stages)
        assert job.real_time == pytest.approx(sum(s.wall_time for s in job.stages))


STAGE_SIZES = [0, 1, 2, 7, 33]


@pytest.mark.parametrize("n", STAGE_SIZES)
class TestMapStage:
    """The one executor: every call runs in the calling thread, in order,
    and is timed on its own."""

    def test_results_match_direct_calls(self, n):
        calls = [(i, i + 3) for i in range(n)]
        results, _ = SimulatedCluster().map_stage("s", pow, calls)
        assert results == [pow(*c) for c in calls]

    def test_one_task_time_per_call(self, n):
        _, stage = SimulatedCluster().map_stage("s", double, [(i,) for i in range(n)])
        assert stage.num_tasks == n
        assert all(t >= 0.0 for t in stage.task_times)
        assert stage.wall_time >= stage.total_cpu - 1e-9  # float rounding only

    def test_runs_in_the_calling_thread(self, n):
        ident = threading.get_ident()
        results, _ = SimulatedCluster().map_stage(
            "s", lambda _: threading.get_ident(), [(i,) for i in range(n)]
        )
        assert results == [ident] * n

    def test_calls_run_one_after_another_in_order(self, n):
        log = []

        def body(i):
            log.append(("start", i))
            log.append(("end", i))
            return i

        SimulatedCluster().map_stage("s", body, [(i,) for i in range(n)])
        assert log == [(e, i) for i in range(n) for e in ("start", "end")]

    def test_stage_appended_to_job(self, n):
        job = JobMetrics()
        _, stage = SimulatedCluster().map_stage(
            "scan", double, [(i,) for i in range(n)], job
        )
        assert job.stages == [stage]
        assert stage.name == "scan" and not stage.driver
        assert job.real_time == stage.wall_time

    def test_task_time_measures_the_body(self, n):
        _, stage = SimulatedCluster().map_stage(
            "s", time.sleep, [(0.002,) for _ in range(min(n, 3))]
        )
        assert all(t >= 0.002 for t in stage.task_times)

    def test_span_records_task_count(self, n):
        obs_trace.set_enabled(True)
        tracer = obs_trace.get_tracer()
        tracer.clear()
        SimulatedCluster().map_stage("traced", double, [(i,) for i in range(n)])
        (span,) = [s for s in tracer.spans() if s.name == "stage:traced"]
        tracer.clear()
        assert span.attributes["tasks"] == n
        assert span.end >= span.start

    def test_model_schedules_the_measured_times(self, n):
        job = JobMetrics()
        cluster = SimulatedCluster(ClusterConfig(cores=4))
        _, stage = cluster.map_stage("s", double, [(i,) for i in range(n)], job)
        assert cluster.model([job]) == model([job], cluster.config)
        assert makespan(stage.task_times, 4) <= stage.total_cpu + 1e-12


class TestMapStageFailures:
    def test_exception_propagates_and_records_no_stage(self):
        job = JobMetrics()

        def body(i):
            if i == 2:
                raise ValueError("task 2 failed")
            return i

        with pytest.raises(ValueError, match="task 2 failed"):
            SimulatedCluster().map_stage("s", body, [(i,) for i in range(5)], job)
        assert job.stages == []

    def test_closures_and_unpicklable_arguments_accepted(self):
        # Nothing is pickled: a generator argument and a closure over local
        # state go straight to the task body.
        seen = []
        results, _ = SimulatedCluster().map_stage(
            "s", lambda gen: seen.append(sum(gen)) or len(seen),
            [((x for x in range(k)),) for k in range(4)],
        )
        assert results == [1, 2, 3, 4]
        assert seen == [0, 0, 1, 3]


def job_of(*stages, shuffles=(), result_bytes=0, client_time=0.0):
    return JobMetrics(stages=list(stages), shuffles=list(shuffles),
                      result_bytes=result_bytes, client_time=client_time)


#: Every modelled cost switched off, so each test turns on the one it pins.
FREE = ClusterConfig(
    cores=1, task_startup_s=0.0, job_startup_s=0.0, shuffle_latency_s=0.0,
    shuffle_link_bytes_s=1e6, client_latency_s=0.0,
    client_bandwidth_bytes_s=1e6,
)


class TestModelPlacement:
    """model() places a stage's measured task times on config.cores."""

    def test_one_core_sums(self):
        job = job_of(StageMetrics("map", [1.0, 2.0, 3.0]))
        assert model([job], FREE).server_s == pytest.approx(6.0)

    def test_two_cores_balance(self):
        job = job_of(StageMetrics("map", [3.0, 3.0, 2.0, 1.0]))
        assert model([job], replace(FREE, cores=2)).server_s == pytest.approx(5.0)

    def test_enough_cores_is_max(self):
        job = job_of(StageMetrics("map", [1.0, 2.0, 3.0]))
        assert model([job], replace(FREE, cores=100)).server_s == pytest.approx(3.0)

    def test_stages_run_one_after_another(self):
        job = job_of(StageMetrics("map", [0.4, 0.4]), StageMetrics("reduce", [0.1]))
        assert model([job], replace(FREE, cores=2)).server_s == pytest.approx(0.5)

    def test_driver_stage_is_serial_and_pays_no_task_startup(self):
        job = job_of(StageMetrics("merge", [0.3], driver=True))
        config = replace(FREE, cores=8, task_startup_s=0.5)
        assert model([job], config).server_s == pytest.approx(0.3)


class TestModelStartup:
    def test_task_startup_per_task(self):
        job = job_of(StageMetrics("s", [0.0, 0.0]))
        config = replace(FREE, task_startup_s=0.5)
        assert model([job], config).server_s == pytest.approx(1.0)
        assert model([job], replace(config, cores=2)).server_s == pytest.approx(0.5)

    def test_job_startup_per_job(self):
        config = replace(FREE, job_startup_s=0.25)
        job = job_of(StageMetrics("map", [0.1]), StageMetrics("reduce", [0.05]),
                     shuffles=[(20_000, 0)])
        # 0.25 start-up + 0.1 + 0.05 stages + 0.02 shuffle at 1 MB/s
        assert model([job], config).server_s == pytest.approx(0.42)
        assert model([job, job], config).server_s == pytest.approx(0.84)

    def test_empty_job_costs_its_floors(self):
        config = ClusterConfig()
        t = model([JobMetrics()], config)
        assert t.server_s == pytest.approx(config.job_startup_s)
        assert t.network_s == pytest.approx(config.client_latency_s)
        assert model([], config) == (0.0, 0.0, 0.0, 0.0)


class TestModelStragglers:
    def test_injection_inflates_the_schedule(self):
        job = job_of(StageMetrics("s", [0.001] * 8))
        base = replace(FREE, cores=4, task_startup_s=0.01)
        slow = replace(base, straggler_prob=1.0, straggler_factor=10.0)
        clean, straggled = model([job], base), model([job], slow)
        # every task straggles: (0.001 + 0.01) * 10, two rounds on 4 cores
        assert straggled.server_s == pytest.approx(0.22)
        assert straggled.server_s == pytest.approx(clean.server_s * 10)

    def test_deterministic_in_seed(self):
        job = job_of(StageMetrics("s", [0.0] * 20))
        config = replace(FREE, task_startup_s=0.1, straggler_prob=0.5,
                         straggler_factor=50.0, seed=7)
        once = model([job], config)
        assert model([job], config) == once
        # some tasks straggled, not all: between 20 x 0.1 and 20 x 5.0
        assert 2.0 < once.server_s < 100.0
        assert model([job], replace(config, seed=8)) != once

    def test_cluster_model_is_the_function_under_its_config(self):
        config = ClusterConfig(cores=2, straggler_prob=0.5, seed=3)
        cluster = SimulatedCluster(config)
        job = JobMetrics()
        cluster.map_stage("s", lambda: None, [()] * 20, job)
        assert cluster.model([job]) == model([job], config)


class TestModelNetwork:
    def test_result_transfer_scales_with_bytes(self):
        config = ClusterConfig(client_bandwidth_bytes_s=1e6, client_latency_s=0.1)
        t = model([job_of(result_bytes=1_000_000)], config)
        assert t.network_s == pytest.approx(1.1)

    def test_slow_link_config(self):
        fast = ClusterConfig()
        slow = replace(fast, client_bandwidth_bytes_s=10e6 / 8,
                       client_latency_s=0.1)  # 10 Mbps / 100 ms
        job = job_of(result_bytes=100_000)
        assert model([job], slow).network_s > model([job], fast).network_s * 10

    def test_plain_shuffle_uses_the_whole_fabric(self):
        # 1 MB over all 16 nodes' 1 MB/s links: 1/16 s, plus the latency.
        config = replace(FREE, cores=16, shuffle_latency_s=0.001)
        job = job_of(shuffles=[(1_000_000, 0)])
        assert model([job], config).server_s == pytest.approx(0.0635)

    def test_few_receivers_bottleneck_the_shuffle(self):
        # 1 MB into R reducers on 10 cores with 1 MB/s links: R active
        # links move it in 1/R seconds -- the paper's few-groups shuffle
        # bottleneck (Section 4.5).
        config = replace(FREE, cores=10)
        cost = lambda r: model([job_of(shuffles=[(1_000_000, r)])], config).server_s
        assert cost(1) == pytest.approx(1.0)
        assert cost(2) == pytest.approx(0.5)
        assert cost(10) == pytest.approx(0.1)
        assert cost(500) == pytest.approx(0.1)  # capped at one per core

    def test_more_cores_never_cost_a_shuffle_more(self):
        # A node's link is fixed: cores past the receivers leave the
        # shuffle's cost where it was instead of shrinking each link.
        cost = lambda cores: model([job_of(shuffles=[(1_000_000, 2)])],
                                   replace(FREE, cores=cores)).server_s
        assert cost(1) == pytest.approx(1.0)
        assert cost(2) == cost(4) == cost(64) == pytest.approx(0.5)

    def test_default_link_is_the_former_fabric_share_at_16_cores(self):
        config = ClusterConfig()
        assert config.cores == 16
        assert config.shuffle_link_bytes_s == 4 * GBPS / 16

    def test_accounting_records_volume_only(self):
        cluster = SimulatedCluster(ClusterConfig())
        job = JobMetrics(shuffles=[(1_000_000, 0), (500, 4)], result_bytes=2048)
        assert job.shuffles == [(1_000_000, 0), (500, 4)]
        assert job.shuffle_bytes == 1_000_500
        assert job.result_bytes == 2048
        t = cluster.model([job])
        assert t.network_s > 0
        assert t.total_s >= t.server_s

    def test_total_is_server_plus_network_plus_client(self):
        job = job_of(StageMetrics("map", [0.5]), result_bytes=100_000,
                     client_time=0.2)
        t = model([job], FREE)
        assert (t.server_s, t.network_s, t.client_s) == pytest.approx((0.5, 0.1, 0.2))
        assert t.total_s == pytest.approx(0.8)

    def test_replace_revalidates(self):
        assert replace(ClusterConfig(cores=4), cores=64).cores == 64
        with pytest.raises(ExecutionError, match="at least one core"):
            replace(ClusterConfig(cores=4), cores=0)


@st.composite
def jobs(draw):
    """Measured jobs: task and driver stages, shuffles into 0..40
    receivers, stragglers or none."""
    times = st.lists(st.floats(0.0, 0.05, allow_nan=False), min_size=1, max_size=40)
    stages = draw(st.lists(st.builds(
        StageMetrics, name=st.just("s"), task_times=times, driver=st.booleans()),
        max_size=4))
    shuffles = draw(st.lists(st.tuples(st.integers(0, 10**8), st.integers(0, 40)),
                             max_size=3))
    return job_of(*stages, shuffles=shuffles, result_bytes=draw(st.integers(0, 10**6)))


class TestModelScaling:
    @given(job_list=st.lists(jobs(), min_size=1, max_size=3),
           prob=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_more_cores_never_model_slower(self, job_list, prob, seed):
        config = replace(ClusterConfig(), straggler_prob=prob, seed=seed)
        server = [model(job_list, replace(config, cores=c)).server_s
                  for c in (1, 2, 3, 4, 8, 13, 16, 32, 100)]
        assert all(later <= earlier * (1 + 1e-12) for earlier, later
                   in zip(server, server[1:])), server


class TestModelPurity:
    def test_never_mutates_the_job(self):
        job = job_of(StageMetrics("map", [0.1, 0.2]),
                     StageMetrics("merge", [0.05], driver=True),
                     shuffles=[(1000, 3)], result_bytes=64, client_time=0.01)
        frozen = deepcopy(job)
        noisy = ClusterConfig(cores=2, straggler_prob=0.5, seed=5)
        first = model([job], noisy)
        assert model([job], noisy) == first
        model([job], ClusterConfig(cores=64, job_startup_s=9.0))
        assert model([job], noisy) == first
        assert job == frozen


class TestJobMetrics:
    def test_stage_lookup_missing(self):
        job = JobMetrics()
        with pytest.raises(KeyError):
            job.stage("nope")
