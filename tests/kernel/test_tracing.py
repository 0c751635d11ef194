"""Unit tests for transaction recording and utilization queries."""

import pytest

from repro.kernel import NS, SimTime, TransactionRecord, TransactionTracer
from repro.kernel.simtime import US


def record(channel, start_ns, end_ns, **attrs):
    return TransactionRecord(
        channel=channel, kind="test", start=SimTime(start_ns, NS),
        end=SimTime(end_ns, NS), attributes=attrs,
    )


class TestTransactionRecord:
    def test_duration(self):
        assert record("c", 10, 25).duration == SimTime(15, NS)

    def test_overlap(self):
        r = record("c", 10, 20)
        assert r.overlaps(SimTime(15, NS), SimTime(30, NS))
        assert r.overlaps(SimTime(0, NS), SimTime(11, NS))
        assert not r.overlaps(SimTime(20, NS), SimTime(30, NS))
        assert not r.overlaps(SimTime(0, NS), SimTime(10, NS))


class TestTransactionTracer:
    def test_record_and_query_by_channel(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 10))
        tracer.record(record("ate", 5, 15))
        tracer.record(record("tam", 20, 30))
        assert len(tracer) == 3
        assert len(tracer.for_channel("tam")) == 2
        assert tracer.channels() == ["ate", "tam"]

    def test_disabled_tracer_records_nothing(self):
        tracer = TransactionTracer(enabled=False)
        tracer.record(record("tam", 0, 10))
        assert len(tracer) == 0

    def test_total_busy_time_merges_overlaps(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 10))
        tracer.record(record("tam", 5, 15))    # overlaps the first
        tracer.record(record("tam", 20, 30))
        assert tracer.total_busy_time("tam") == SimTime(25, NS)

    def test_utilization_of_window(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 50))
        utilization = tracer.utilization("tam", SimTime(0, NS), SimTime(100, NS))
        assert utilization == pytest.approx(0.5)

    def test_utilization_clips_to_window(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 200))
        utilization = tracer.utilization("tam", SimTime(50, NS), SimTime(150, NS))
        assert utilization == pytest.approx(1.0)

    def test_utilization_empty_window(self):
        tracer = TransactionTracer()
        assert tracer.utilization("tam", SimTime(0), SimTime(0)) == 0.0

    def test_utilization_profile_peak(self):
        tracer = TransactionTracer()
        # Window 0..1us busy 100%, window 1..2us idle, window 2..3us busy 30%.
        tracer.record(record("tam", 0, 1000))
        tracer.record(record("tam", 2000, 2300))
        profile = tracer.utilization_profile("tam", SimTime(1, US),
                                             start=SimTime(0),
                                             end=SimTime(3, US))
        assert len(profile) == 3
        assert profile[0] == pytest.approx(1.0)
        assert profile[1] == pytest.approx(0.0)
        assert profile[2] == pytest.approx(0.3)

    def test_utilization_profile_requires_positive_window(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 10))
        with pytest.raises(ValueError):
            tracer.utilization_profile("tam", SimTime(0))

    def test_clear(self):
        tracer = TransactionTracer()
        tracer.record(record("tam", 0, 10))
        tracer.clear()
        assert len(tracer) == 0

    @pytest.mark.parametrize("period_fs", [0, 7])
    def test_record_run_equals_rounds_of_record_fs(self, period_fs):
        records = [("ate", "burst", 10, 14, "s0", None, 8, {"patterns": 2}),
                   ("tam", "burst", 10, 17, "s0", 0x10, 9, {"patterns": 2})]
        run, reference = TransactionTracer(), TransactionTracer()
        run.record_run_fs(3, period_fs, records)
        for index in range(3):
            for (channel, kind, start, end, initiator, address, bits,
                 attributes) in records:
                offset = index * period_fs
                reference.record_fs(channel, kind, start + offset,
                                    end + offset, initiator, address, bits,
                                    dict(attributes))
        assert run.records == reference.records
        # Every record owns its attributes.
        attributes = [record.attributes for record in run.records]
        assert len({id(values) for values in attributes}) == 6
        assert all(values is not records[0][7] for values in attributes)

    def test_record_run_on_a_disabled_tracer_records_nothing(self):
        tracer = TransactionTracer(enabled=False)
        tracer.record_run_fs(4, 3, [("tam", "k", 0, 1, "", None, 0, {})])
        assert len(tracer) == 0
