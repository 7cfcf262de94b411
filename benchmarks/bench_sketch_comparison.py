"""Cross-structure comparison: the full change-detection pipeline run over
k-ary, Count Sketch, and Count-Min summaries of the same traffic.

The paper argues the k-ary design is the right summary for this pipeline.
Because every structure here implements the same linear-summary interface,
we can hold the traffic, the forecast model and the detection rule fixed
and swap only the sketch -- measuring top-N fidelity against the per-flow
oracle and the wall-clock cost of the whole run.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.detection import run_per_flow
from repro.detection.topn import similarity
from repro.experiments.common import run_sketch
from repro.sketch import CountMinSchema, CountSketchSchema, KArySchema
from repro.streams import IntervalStream, concat_records
from repro.traffic import TrafficGenerator, get_profile, inject_dos

OUTPUT = Path(__file__).parent / "output"
TOP_N = 100
WIDTH = 8192
DEPTH = 5


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(8)
    background = TrafficGenerator(get_profile("medium"), duration=2 * 3600.0).generate()
    dos, _ = inject_dos(rng, start=4500.0, end=5100.0,
                        records_per_second=20.0, bytes_per_record=3000.0)
    records = concat_records([background, dos])
    batches = list(IntervalStream(records, interval_seconds=300.0))
    perflow = run_per_flow(batches, "ewma", alpha=0.5)
    return batches, perflow


def _pipeline_similarity(batches, perflow, schema):
    start = time.perf_counter()
    run = run_sketch(batches, schema, "ewma", rank_depth=TOP_N, skip=2, alpha=0.5)
    sims = [
        similarity(keys, perflow.top_n(index, TOP_N), TOP_N)
        for index, keys in zip(run.indices, run.ranked_keys)
    ]
    elapsed = time.perf_counter() - start
    return float(np.mean(sims)), elapsed


def test_structure_comparison(benchmark, workload):
    batches, perflow = workload

    kary = KArySchema(depth=DEPTH, width=WIDTH, seed=0)
    count_sketch = CountSketchSchema(depth=DEPTH, width=WIDTH, seed=0)
    count_min = CountMinSchema(depth=DEPTH, width=WIDTH, seed=0)

    kary_sim, kary_time = benchmark.pedantic(
        _pipeline_similarity, args=(batches, perflow, kary),
        rounds=1, iterations=1,
    )
    cs_sim, cs_time = _pipeline_similarity(batches, perflow, count_sketch)
    # Count-Min's ESTIMATE is its row median (Count-Median): the min
    # estimator is meaningless on signed error sketches.
    cm_sim, cm_time = _pipeline_similarity(batches, perflow, count_min)

    text = "\n".join([
        f"Sketch structure comparison (H={DEPTH}, K={WIDTH}, top-{TOP_N} "
        "similarity vs per-flow, EWMA pipeline)",
        f"  {'structure':<24} {'mean similarity':>16} {'pipeline secs':>14}",
        f"  {'-' * 24} {'-' * 16} {'-' * 14}",
        f"  {'k-ary sketch':<24} {kary_sim:>16.4f} {kary_time:>14.3f}",
        f"  {'Count Sketch':<24} {cs_sim:>16.4f} {cs_time:>14.3f}",
        f"  {'Count-Min (median)':<24} {cm_sim:>16.4f} {cm_time:>14.3f}",
        "",
        "  Finding: on *signed* forecast-error streams the plain row-median",
        "  readout is already nearly unbiased (signed collision mass has",
        "  ~zero median), so in the dense regime it can edge out k-ary's",
        "  mean-share correction -- which is designed for cash-register",
        "  (all-positive) collision mass -- on mid-rank ordering.  All",
        "  structures agree on the heavy changes; k-ary keeps the cheapest",
        "  UPDATE and the only unbiased F2 estimator without sign hashes.",
    ])
    OUTPUT.mkdir(exist_ok=True)
    (OUTPUT / "sketch_comparison.txt").write_text(text + "\n")
    sys.__stdout__.write("\n" + text + "\n")

    # Everything should recover the per-flow ranking well at these sizes;
    # Count Sketch pays ~2x hash work in UPDATE for its sign hashes.
    assert kary_sim > 0.85
    assert cs_sim > 0.85
    assert cm_sim > 0.85
