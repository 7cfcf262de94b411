"""The reference check: the system matches the oracle, a planted error does not.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import dataclasses

import pytest

import oracle
from conftest import tiny
from harness import Tally
from workloads import make_feed, make_queries, make_schema, query_keys, run_pass


@pytest.mark.parametrize("name", ["paper_stream", "bulk_seal", "invertible_stream"])
def test_stream_reports_match_the_reference(name, tiny_stream):
    w = tiny(name)
    schema = make_schema(w)
    result = run_pass(w, schema, make_feed(w, tiny_stream))
    want = oracle.stream_reports(w, schema, tiny_stream)
    assert len(want) == len(result.reports) > 0
    assert sum(r.alarm_count for r in want) > 0
    assert oracle.count_mismatches(result.reports, want) == 0


def test_query_answers_match_the_reference(tiny_stream):
    w = tiny("archive_query")
    schema = make_schema(w)
    keys = query_keys(tiny_stream)
    result = run_pass(w, schema, make_feed(w, tiny_stream))
    queries = make_queries(result.archive, seed=3)
    result.ask(w, queries[:24], keys)
    assert len({width for _, _, width in result.snapped}) > 1  # folded spans too
    want = oracle.query_answers(w, schema, tiny_stream, result.snapped, keys)
    assert oracle.count_mismatches(result.answers, want) == 0


def test_a_perturbed_alarm_counts_as_a_failure(tiny_stream):
    w = tiny("paper_stream")
    schema = make_schema(w)
    got = run_pass(w, schema, make_feed(w, tiny_stream)).reports
    want = oracle.stream_reports(w, schema, tiny_stream)
    i = next(i for i, r in enumerate(got) if r.alarms)
    alarm = got[i].alarms[0]
    got[i].alarms[0] = dataclasses.replace(
        alarm, estimated_error=alarm.estimated_error * (1 + 1e-12)
    )
    tally = Tally()
    tally.check(got, want)
    assert (tally.attempted, tally.failed) == (len(want), 1)
    tally.check(got[:-1], want)  # a missing report is a failure too
    assert tally.failed == 3
