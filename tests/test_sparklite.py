"""sparklite: partitioners, lineage, stages, serializer, end-to-end jobs."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.sparklite import (
    HashPartitioner,
    RangePartitioner,
    SparkLiteContext,
    bucket_by_key,
    build_stages,
    deserialize_block,
    num_stages,
    serialize_block,
    split_evenly,
    stable_hash,
)


class TestPartitioners:
    def test_stable_hash_is_process_independent(self):
        # blake2b of repr: a fixed value guards against accidental salting.
        assert stable_hash("word") == stable_hash("word")
        assert stable_hash("a") != stable_hash("b")

    def test_hash_partitioner_range(self):
        p = HashPartitioner(4)
        assert all(0 <= p(k) < 4 for k in ["x", 1, (2, 3), None])

    def test_hash_partitioner_eq(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_hash_partitioner_validation(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    def test_range_partitioner_orders_buckets(self):
        rp = RangePartitioner.from_keys(list(range(100)), 4)
        buckets = [rp(k) for k in range(100)]
        assert buckets == sorted(buckets)
        assert set(buckets) == {0, 1, 2, 3}

    def test_range_partitioner_single_bucket(self):
        rp = RangePartitioner.from_keys([1, 2, 3], 1)
        assert rp(99) == 0

    def test_split_evenly(self):
        parts = split_evenly(list(range(7)), 3)
        assert [len(p) for p in parts] == [3, 2, 2]
        assert sorted(x for p in parts for x in p) == list(range(7))

    def test_bucket_by_key_requires_kv(self):
        with pytest.raises(ConfigurationError, match="key, value"):
            bucket_by_key([42], HashPartitioner(2), 2)


class TestSerializer:
    def test_roundtrip(self):
        recs = [("a", 1), ("b", [2, 3])]
        assert deserialize_block(serialize_block(recs)) == recs

    def test_corrupt_block(self):
        with pytest.raises(TraceFormatError, match="corrupt"):
            deserialize_block(b"not a pickle")

    def test_non_list_payload(self):
        import pickle

        with pytest.raises(TraceFormatError, match="expected list"):
            deserialize_block(pickle.dumps({"a": 1}))


class TestStages:
    def ctx(self):
        return SparkLiteContext(num_nodes=2, bandwidth=1e6)

    def test_narrow_only_is_one_stage(self):
        rdd = self.ctx().parallelize([1, 2, 3]).map(str).filter(bool)
        assert num_stages(rdd) == 1

    def test_each_shuffle_adds_a_stage(self):
        ctx = self.ctx()
        rdd = (
            ctx.parallelize([("a", 1)])
            .reduce_by_key(lambda a, b: a + b)
            .map_values(lambda v: v * 2)
            .group_by_key()
        )
        assert num_stages(rdd) == 3

    def test_transforms_assigned_to_right_stage(self):
        ctx = self.ctx()
        rdd = ctx.parallelize([("a", 1)]).map(lambda r: r).reduce_by_key(
            lambda a, b: a
        ).map_values(lambda v: v)
        _, plans = build_stages(rdd)
        assert len(plans[0].transforms) == 1
        assert len(plans[1].transforms) == 1
        assert plans[1].shuffle is not None


class TestEndToEnd:
    def ctx(self, **kw):
        base = dict(num_nodes=4, bandwidth=100_000.0)
        base.update(kw)
        return SparkLiteContext(**base)

    def test_wordcount_matches_python(self):
        text = ["to be or not to be", "that is the question"] * 20
        ctx = self.ctx()
        counts = dict(
            ctx.parallelize(text)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert counts == Counter(w for l in text for w in l.split())

    def test_sort_by_key_is_globally_sorted(self):
        import random

        rng = random.Random(3)
        keys = [rng.randrange(1000) for _ in range(200)]
        out = (
            self.ctx()
            .parallelize([(k, k * 2) for k in keys], 5)
            .sort_by_key(4)
            .collect()
        )
        assert [k for k, _ in out] == sorted(keys)
        assert all(v == k * 2 for k, v in out)

    def test_group_by_key(self):
        data = [("a", 1), ("b", 2), ("a", 3)]
        out = dict(self.ctx().parallelize(data, 2).group_by_key(2).collect())
        assert sorted(out["a"]) == [1, 3]
        assert out["b"] == [2]

    def test_multi_stage_pipeline(self):
        """Two chained shuffles: count words, then histogram the counts."""
        text = ["a a b", "b c c", "a b"] * 10
        ctx = self.ctx()
        hist = dict(
            ctx.parallelize(text, 3)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda x, y: x + y)
            .map(lambda kv: (kv[1], 1))
            .reduce_by_key(lambda x, y: x + y)
            .collect()
        )
        counts = Counter(w for l in text for w in l.split())
        expected = Counter(counts.values())
        assert hist == dict(expected)
        assert len(ctx.shuffle_reports) == 2

    def test_count_action(self):
        assert self.ctx().parallelize(range(37), 5).count() == 37

    def test_empty_shuffle_short_circuits(self):
        ctx = self.ctx()
        out = (
            ctx.parallelize([1, 2, 3])
            .filter(lambda x: x > 100)
            .map(lambda x: (x, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert out == []
        assert ctx.shuffle_reports == []  # nothing crossed the fabric

    def test_simulated_time_advances_with_shuffles(self):
        ctx = self.ctx(bandwidth=10_000.0)
        payload = [("k%03d" % (i % 40), "v" * 50) for i in range(2000)]
        ctx.parallelize(payload, 4).group_by_key(4).collect()
        assert ctx.now > 0.0
        rep = ctx.shuffle_reports[0]
        assert rep.duration > 0
        assert rep.payload_bytes > 0
        assert rep.num_flows > 0

    def test_shuffle_time_is_the_coflows_cct(self):
        """A shuffle lasts its coflow's CCT, not the pull loop's chunk
        boundary, so compression shows up as a shorter shuffle."""
        lines = [" ".join(["alpha beta gamma delta"] * (i % 5 + 1))
                 for i in range(300)]
        durations = {}
        for smart in (False, True):
            ctx = self.ctx(bandwidth=200_000.0, smart_compress=smart)
            (ctx.parallelize(list(enumerate(lines)), 4)
             .flat_map(lambda rec: [(w, rec[0]) for w in rec[1].split()])
             .group_by_key(4)
             .collect())
            (report,) = ctx.shuffle_reports
            (cres,) = ctx.swallow.results().coflow_results
            assert report.duration == cres.cct
            durations[smart] = report.duration
        assert durations[True] < durations[False]

    def test_shuffle_report_accounting(self):
        ctx = self.ctx(bandwidth=20_000.0)
        data = [(i % 8, "x" * 100) for i in range(500)]
        ctx.parallelize(data, 4).group_by_key(4).collect()
        rep = ctx.shuffle_reports[0]
        # wire bytes never exceed payload bytes (compression can shrink).
        assert rep.wire_bytes <= rep.payload_bytes * (1 + 1e-9)
        assert 0.0 <= rep.traffic_reduction < 1.0

    def test_compression_reduces_wire_bytes_on_thin_pipe(self):
        """Repetitive payload + slow network: Swallow compresses blocks and
        wire bytes drop below payload bytes."""
        data = [(i % 4, "abcdef" * 200) for i in range(400)]
        slow = self.ctx(bandwidth=5_000.0, smart_compress=True)
        slow.parallelize(data, 4).group_by_key(4).collect()
        rep = slow.shuffle_reports[0]
        assert rep.traffic_reduction > 0.2

    def test_no_compression_when_disabled(self):
        data = [(i % 4, "abcdef" * 200) for i in range(400)]
        ctx = self.ctx(bandwidth=5_000.0, smart_compress=False)
        ctx.parallelize(data, 4).group_by_key(4).collect()
        assert ctx.shuffle_reports[0].traffic_reduction == pytest.approx(0.0)

    def test_map_values(self):
        out = dict(
            self.ctx().parallelize([("a", 1), ("b", 2)], 2)
            .map_values(lambda v: v * 10)
            .group_by_key(2)
            .collect()
        )
        assert out == {"a": [10], "b": [20]}

    def test_results_deterministic_across_runs(self):
        def job():
            ctx = self.ctx()
            return sorted(
                ctx.parallelize([("k%d" % (i % 5), i) for i in range(100)], 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )

        assert job() == job()

    def test_validation(self):
        ctx = self.ctx()
        with pytest.raises(ConfigurationError):
            ctx.parallelize([1], num_partitions=0)


class TestComposites:
    def ctx(self):
        return SparkLiteContext(num_nodes=4, bandwidth=100_000.0)

    def test_distinct(self):
        out = self.ctx().parallelize([1, 2, 2, 3, 3, 3], 3).distinct(2).collect()
        assert sorted(out) == [1, 2, 3]

    def test_sample_fraction_and_determinism(self):
        ctx = self.ctx()
        data = list(range(2000))
        a = ctx.parallelize(data, 4).sample(0.25, seed=1).collect()
        b = ctx.parallelize(data, 4).sample(0.25, seed=1).collect()
        assert a == b
        assert 0.15 < len(a) / len(data) < 0.35
        assert set(a) <= set(data)

    def test_sample_validation(self):
        with pytest.raises(ConfigurationError):
            self.ctx().parallelize([1]).sample(1.5)

    def test_union(self):
        ctx = self.ctx()
        a = ctx.parallelize([1, 2])
        b = ctx.parallelize([3])
        assert sorted(ctx.union(a, b).collect()) == [1, 2, 3]

    def test_union_requires_input(self):
        with pytest.raises(ConfigurationError):
            self.ctx().union()

    def test_union_then_shuffle(self):
        ctx = self.ctx()
        a = ctx.parallelize([("x", 1)])
        b = ctx.parallelize([("x", 2), ("y", 5)])
        out = dict(ctx.union(a, b).reduce_by_key(lambda p, q: p + q).collect())
        assert out == {"x": 3, "y": 5}

    def test_join(self):
        ctx = self.ctx()
        users = ctx.parallelize([(1, "ada"), (2, "bob"), (3, "cyd")])
        orders = ctx.parallelize([(1, "pen"), (1, "ink"), (3, "mug"), (9, "n/a")])
        out = sorted(ctx.join(users, orders).collect())
        assert out == [(1, ("ada", "ink")), (1, ("ada", "pen")),
                       (3, ("cyd", "mug"))]

    def test_join_crosses_the_fabric(self):
        ctx = self.ctx()
        a = ctx.parallelize([(i % 5, i) for i in range(50)])
        b = ctx.parallelize([(i % 5, -i) for i in range(50)])
        before = len(ctx.shuffle_reports)
        joined = ctx.join(a, b)
        assert len(ctx.shuffle_reports) > before  # the join shuffled
        assert joined.count() == 50 * 10  # 10 x 10 per key, 5 keys
