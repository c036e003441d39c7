"""Tests for the workload generators (repro.workloads)."""

from collections import Counter

import numpy as np
import pytest

from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import SeabedError
from repro.workloads import adanalytics, bdb, distributions, mdx, synthetic, tpcds


class TestDistributions:
    def test_zipf_probabilities_sum_to_one(self):
        probs = distributions.zipf_probabilities(50)
        assert probs.sum() == pytest.approx(1.0)
        assert (np.diff(probs) <= 0).all()  # monotone decreasing

    def test_zipf_choice_respects_cardinality(self):
        rng = np.random.default_rng(0)
        codes = distributions.zipf_choice(rng, 10, 1000)
        assert codes.min() >= 0 and codes.max() < 10

    def test_bad_cardinality(self):
        with pytest.raises(SeabedError):
            distributions.zipf_probabilities(0)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = synthetic.generate(100, seed=1)
        b = synthetic.generate(100, seed=1)
        assert np.array_equal(a.columns["value"], b.columns["value"])

    def test_optional_columns(self):
        d = synthetic.generate(100, num_groups=4, with_ope_column=True)
        assert set(d.columns) == {"value", "grp", "ope_val"}
        assert d.columns["grp"].max() < 4

    def test_sample_queries_cover_columns(self):
        d = synthetic.generate(10, num_groups=2, with_ope_column=True)
        queries = synthetic.sample_queries(d)
        assert any("GROUP BY grp" in q for q in queries)
        assert any("ope_val" in q for q in queries)

    def test_selectivity_mask(self):
        mask = synthetic.selectivity_mask(100_000, 0.3, seed=0)
        assert 0.28 < mask.mean() < 0.32

    def test_selectivity_bounds(self):
        with pytest.raises(SeabedError):
            synthetic.selectivity_mask(10, 1.5)

    def test_rows_positive(self):
        with pytest.raises(SeabedError):
            synthetic.generate(0)


class TestBdb:
    @pytest.fixture(scope="class")
    def data(self):
        return bdb.generate(num_rankings=200, num_uservisits=1000, seed=0)

    def test_schema_shapes(self, data):
        assert len(data.rankings["pageURL"]) == 200
        assert len(data.uservisits["sourceIP"]) == 1000
        assert data.rankings_schema.column("pageRank").sensitive

    def test_dest_urls_reference_rankings(self, data):
        assert set(data.uservisits["destURL"]) <= set(data.rankings["pageURL"])

    def test_prefix_columns_are_prefixes(self, data):
        for width in (8, 10, 12):
            col = data.uservisits[f"ipPrefix{width}"]
            ips = data.uservisits["sourceIP"]
            assert all(ip.startswith(p) for ip, p in zip(ips, col))

    def test_queries_render(self):
        sql, desc = bdb.query_q1("A")
        assert "pageRank >" in sql and "Q1A" in desc
        assert "ipPrefix10" in bdb.query_q2("B")
        assert "JOIN rankings" in bdb.query_q3("C")

    def test_crawl_documents_and_link_extraction(self, data):
        docs = bdb.generate_crawl_documents(20, data.rankings["pageURL"], seed=0)
        assert len(docs) == 20
        pairs = bdb.extract_links(docs[0])
        assert pairs and all(count == 1 for _url, count in pairs)
        assert all(url in set(data.rankings["pageURL"]) for url, _c in pairs)


class TestCountLinks:
    """Q4 phase 1: flatMap + reduceByKey on the simulated cluster."""

    @pytest.fixture(scope="class")
    def docs(self):
        urls = bdb.generate(num_rankings=40, num_uservisits=10, seed=0).rankings["pageURL"]
        return bdb.generate_crawl_documents(30, urls, seed=3)

    @pytest.mark.parametrize("cores", [1, 4, 32])
    @pytest.mark.parametrize("num_partitions", [1, 3, 45])
    def test_counts_match_a_direct_count(self, docs, num_partitions, cores):
        cluster = SimulatedCluster(ClusterConfig(cores=cores))
        counts, _ = bdb.count_links(cluster, docs, num_partitions)
        expected = Counter()
        for doc in docs:
            for url, one in bdb.extract_links(doc):
                expected[url] += one
        assert counts == dict(expected)

    @pytest.mark.parametrize("num_partitions, slices", [(1, 1), (3, 3), (4, 4), (7, 6), (45, 30)])
    def test_one_map_task_per_slice_and_cores_reducers(self, docs, num_partitions, slices):
        cluster = SimulatedCluster(ClusterConfig(cores=4))
        _, metrics = bdb.count_links(cluster, docs, num_partitions)
        assert [(s.name, s.num_tasks) for s in metrics.stages] == [
            ("flatMap", slices), ("shuffle-reduce", 4),
        ]

    @pytest.mark.parametrize("num_partitions", [1, 3, 45])
    def test_shuffle_bytes_are_32_per_map_side_entry(self, docs, num_partitions):
        # Buckets partition a slice's distinct urls, so the map side holds
        # one (bucket, url) entry per distinct url per slice.
        size = -(-len(docs) // min(num_partitions, len(docs)))
        entries = sum(
            len({url for doc in docs[i : i + size] for url, _one in bdb.extract_links(doc)})
            for i in range(0, len(docs), size)
        )
        cluster = SimulatedCluster(ClusterConfig(cores=4))
        _, metrics = bdb.count_links(cluster, docs, num_partitions)
        assert metrics.shuffles == [(32 * entries, 0)]

    def test_no_documents_count_nothing(self):
        counts, metrics = bdb.count_links(SimulatedCluster(ClusterConfig(cores=4)), [], 3)
        assert counts == {}
        assert [s.num_tasks for s in metrics.stages] == [0, 4]
        assert metrics.shuffles == [(0, 0)]


class TestAdAnalytics:
    @pytest.fixture(scope="class")
    def data(self):
        return adanalytics.generate(rows=2000, seed=0)

    def test_schema_has_paper_shape(self, data):
        dims = [c for c in data.schema.columns
                if c.name.endswith(tuple("0123456789")) and "dim" in c.name]
        # 33 dimensions = hour + 10 sensitive + 22 public
        assert len(dims) + 1 == 33
        measures = [c for c in data.schema.columns if c.name.startswith("measure")]
        assert len(measures) == 18
        assert sum(1 for c in measures if c.sensitive) == 10

    def test_sensitive_dims_have_distributions(self, data):
        for dim in data.sensitive_dims:
            spec = data.schema.column(dim)
            assert spec.value_counts is not None

    def test_query_log_mix(self):
        log = adanalytics.generate_query_log(3000, seed=1)
        post = sum(1 for q in log if q.category == "CPost")
        fraction = post / len(log)
        paper = adanalytics.PAPER_LOG_POST / adanalytics.PAPER_LOG_TOTAL
        assert abs(fraction - paper) < 0.03

    def test_log_group_counts_in_paper_range(self):
        log = adanalytics.generate_query_log(500, seed=2)
        assert all(1 <= q.num_groups <= 12 for q in log)

    def test_figure10a_queries(self):
        queries = adanalytics.figure10a_queries(seed=0)
        assert len(queries) == 15
        assert sorted({q.num_groups for q in queries}) == [1, 4, 8]

    def test_stream_batches_partitions_the_rows(self, data):
        batches = list(adanalytics.stream_batches(data, 5))
        assert len(batches) == 5
        for name, arr in data.columns.items():
            rebuilt = np.concatenate([b[name] for b in batches])
            assert np.array_equal(rebuilt, arr), name

    def test_stream_batches_skips_empty_slices(self, data):
        # more batches than rows still yields only non-empty batches
        small = adanalytics.generate(rows=3, seed=1)
        batches = list(adanalytics.stream_batches(small, 8))
        assert sum(len(b["hour"]) for b in batches) == 3
        assert all(len(b["hour"]) > 0 for b in batches)

    def test_stream_batches_validates_count(self, data):
        with pytest.raises(SeabedError):
            list(adanalytics.stream_batches(data, 0))


class TestCatalogs:
    def test_mdx_matches_paper(self):
        assert mdx.category_counts() == mdx.PAPER_COUNTS

    def test_mdx_catalog_complete(self):
        assert [f.number for f in mdx.MDX_CATALOG] == list(range(1, 39))
        assert all(f.description and f.how_supported for f in mdx.MDX_CATALOG)

    def test_tpcds_matches_paper(self):
        assert tpcds.category_counts() == tpcds.PAPER_COUNTS

    def test_tpcds_has_99_queries(self):
        cat = tpcds.catalog()
        assert len(cat) == 99
        assert cat[0].name == "q1" and cat[0].category == "2R"
