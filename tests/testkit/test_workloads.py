"""Tests for the shared seeded workload builders."""

from repro.testkit.workloads import (
    default_workloads,
    drift_workload,
    key_sources,
    key_workload,
    mixed_key_workload,
)


class TestSeededDeterminism:
    def test_same_seed_same_traces(self):
        a = drift_workload(5)
        b = drift_workload(5)
        for ta, tb in zip(a.traces, b.traces):
            assert [(t.timestamp, t.value, t.seq) for t in ta.tuples] == [
                (t.timestamp, t.value, t.seq) for t in tb.tuples
            ]

    def test_different_seeds_differ(self):
        a = drift_workload(5)
        b = drift_workload(6)
        assert [t.value for t in a.traces[0].tuples] != [
            t.value for t in b.traces[0].tuples
        ]

    def test_key_workload_deterministic(self):
        a = key_workload(5)
        b = key_workload(5)
        assert [t.value for t in a.traces[2].tuples] == [
            t.value for t in b.traces[2].tuples
        ]


class TestGeometry:
    def test_streams_are_dephased(self):
        """No two tuples across streams share a timestamp — boundary
        ages never land exactly on a window edge where float rounding
        would make oracle and engine disagree."""
        for workload in (drift_workload(1), key_workload(1)):
            stamps = [
                t.timestamp
                for trace in workload.traces
                for t in trace.tuples
            ]
            assert len(stamps) == len(set(stamps))

    def test_key_sources_share_key_domain(self):
        sources = key_sources(m=3, rate=10.0, n_keys=5, seed=2)
        for source in sources:
            values = {t.value for t in source.generate(10.0)}
            assert values <= set(range(5))

    def test_lookup_covers_every_tuple(self):
        workload = drift_workload(1)
        lookup = workload.lookup()
        assert len(lookup) == workload.tuple_count()
        for trace in workload.traces:
            for t in trace.tuples:
                assert lookup[(t.stream, t.seq)] is t


class TestDefaultSet:
    def test_five_workloads_per_seed(self):
        workloads = default_workloads((1, 2))
        assert len(workloads) == 10
        names = [w.name for w in workloads]
        assert len(names) == len(set(names))

    def test_covers_m3_m4_and_both_kinds(self):
        workloads = default_workloads((1,))
        assert {w.m for w in workloads} == {3, 4}
        assert {w.tags["kind"] for w in workloads} >= {"drift", "keys"}
        assert any(w.tags.get("skewed") for w in workloads)

    def test_band_workload_keeps_the_reference_pipeline_covered(self):
        from repro.joins.columnar import supports_columnar

        bands = [w for w in default_workloads((1,))
                 if w.tags["kind"] == "band"]
        assert len(bands) == 1
        assert bands[0].predicate.low > 0
        assert not supports_columnar(bands[0].predicate)

    def test_every_default_workload_produces_output(self):
        from repro.testkit import oracle_ids

        for workload in default_workloads((1,)):
            assert len(oracle_ids(workload).ids) > 0, workload.name


class TestKeyTypes:
    """What the key workloads' values are, so their docstrings cannot
    drift from them again."""

    def test_key_sources_carry_whole_number_floats(self):
        values = [t.value for src in key_sources(seed=0)
                  for t in src.generate(5.0)]
        assert {type(v) for v in values} == {float}
        assert all(v == int(v) for v in values)

    def test_mixed_key_workload_value_types(self):
        workload = mixed_key_workload(seed=0)
        types = [{type(t.value) for t in trace.tuples}
                 for trace in workload.traces]
        assert types == [{float}, {float}, {float, bool}]
