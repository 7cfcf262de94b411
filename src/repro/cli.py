"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands
-----------
``repro list``
    List reproducible experiment ids.
``repro run fig05 [fig07 ...]``
    Regenerate one or more paper exhibits and print their tables.
``repro generate --router large --out trace.bin``
    Write a synthetic router trace to a binary file.
``repro detect trace.bin --model ewma --alpha 0.4 --top-n 20``
    Run sketch-based change detection over a trace file.
``repro gridsearch --router medium --model nshw``
    Show the grid-searched parameters for a model on a router dataset.
``repro sketch trace.bin --out-dir sketches/``
    Summarize a trace into per-interval serialized k-ary sketches.
``repro combine sketches/a_*.bin --out merged.bin``
    COMBINE (sum) serialized sketches, e.g. from several routers.
``repro drilldown trace.bin --levels 8,16,24,32``
    Hierarchical prefix attribution of detected changes.
``repro checkpoint trace.bin --until 5400 --out session.kcp``
    Stream a trace prefix through a live session, then snapshot the full
    pipeline state (forecaster + open interval) to a checkpoint file.
``repro resume session.kcp trace.bin``
    Restore a checkpointed session and continue over the remaining
    records -- reports are bit-identical to an uninterrupted run.
``repro bench --quick [throughput detection recovery]``
    Run the performance benchmarks (fused-kernel UPDATE/ESTIMATE
    throughput, amortized detection seal, replay-free key recovery) and
    print the speedup tables.  Reports go to a scratch directory unless
    ``--output-dir`` is given.
``repro monitor trace.bin --chunk-seconds 60 --metrics-out metrics.prom``
    Stream a trace through a live session in arrival-time chunks,
    periodically flushing pipeline metrics (Prometheus text or JSON)
    for scraping.
``repro serve --port 5585 --model ewma``
    Run the distributed-detection coordinator: accept per-site interval
    sketches over TCP, COMBINE them per interval, and detect changes
    network-wide.  ``--checkpoint``/``--checkpoint-every`` persist the
    coordinator state; ``--resume`` restarts from such a checkpoint.
``repro archive trace.bin --out archive.kcp --budget-mb 8``
    Stream a trace through a live session with a temporal-archive sink:
    sealed interval sketches are retained multi-resolution under the
    byte budget and written as a queryable archive file.
``repro query archive.kcp --diff 46:48 40:46``
    Retrospective queries over an archive: ``--estimate`` a key's
    volume over a time range, ``--diff``/``--drilldown`` two interval
    ranges through the detection threshold machinery, or ``--replay``
    live detection over the full-resolution tail.  With no query flag,
    print the archive's span layout.
``repro agent trace.bin --site pop-west --connect host:5585``
    Stream one site's trace to a coordinator: sketch locally per
    interval, ship sealed sketches (or suppress low-drift intervals
    when ``--drift-fraction`` > 0 -- error-bounded communication
    filtering).

``detect``, ``checkpoint``, ``resume`` and ``monitor`` accept
``--metrics-out PATH``: attach a
:class:`~repro.obs.recorder.PipelineRecorder` to the run and write its
metrics snapshot to ``PATH`` on completion (``.json`` extension selects
the JSON exporter, anything else Prometheus text).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments

    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    for experiment_id in args.experiments:
        result = run_experiment(experiment_id)
        print(result.render())
        print()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.streams import write_trace
    from repro.traffic import TrafficGenerator, get_profile

    profile = get_profile(args.router, scale=args.scale)
    generator = TrafficGenerator(
        profile, duration=args.duration, seed=args.seed
    )
    records = generator.generate()
    write_trace(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _format_stats_lines(stats: dict) -> List[str]:
    """Render session/detector counters as ``stats: ...`` summary lines.

    One line per counter group so downstream tooling can grep a single
    prefix; interval report lines keep their ``interval`` prefix, which
    existing consumers filter on.
    """
    lines = []
    detection = stats.get("detection")
    if detection is not None:
        candidates = detection.get("candidates", 0)
        evaluated = detection.get("median_evaluated", 0)
        fraction = evaluated / candidates if candidates else 0.0
        lines.append(
            f"stats: prescreen candidates={candidates} "
            f"median_evaluated={evaluated} ({fraction:.1%})"
        )
    return lines


def _make_recorder(args):
    """Build a PipelineRecorder when ``--metrics-out`` was given."""
    if getattr(args, "metrics_out", None) is None:
        return None
    from repro.obs import PipelineRecorder

    return PipelineRecorder()


def _write_metrics(recorder, args) -> None:
    if recorder is not None:
        recorder.write(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.detection import OfflineTwoPassDetector, OnlineDetector
    from repro.streams import IntervalStream, read_trace

    _apply_threads(args)
    records = read_trace(args.trace)
    stream = IntervalStream(
        records,
        interval_seconds=args.interval,
        key_scheme=args.key,
        value_scheme=args.value,
    )
    recorder = _make_recorder(args)
    schema = _schema(args)
    if args.key_source == "online":
        detector = OnlineDetector(
            schema,
            args.model,
            t_fraction=args.threshold,
            recorder=recorder,
            **_model_params(args),
        )
    else:
        detector = OfflineTwoPassDetector(
            schema,
            args.model,
            t_fraction=args.threshold,
            top_n=args.top_n,
            key_source=args.key_source,
            recorder=recorder,
            **_model_params(args),
        )
    for report in detector.run(stream):
        _print_session_report(report, args.top_n)
    if args.stats:
        stats = {}
        if getattr(detector, "stats", None) is not None:
            stats["detection"] = detector.stats
        for line in _format_stats_lines(stats):
            print(line)
    _write_metrics(recorder, args)
    return 0


def _print_session_report(report, top_n: int) -> None:
    line = (
        f"interval {report.index:4d}  "
        f"L2={report.error_l2:12.4g}  alarms={report.alarm_count:5d}"
    )
    if top_n:
        top = ", ".join(
            f"{key}:{err:.3g}"
            for key, err in zip(
                report.top_keys[:top_n].tolist(),
                report.top_errors[:top_n].tolist(),
            )
        )
        line += f"  top=[{top}]"
    print(line)


def _model_params(args) -> dict:
    """The forecast-model keywords among ``--alpha/--beta/--window`` given.

    A subcommand that lacks one of these flags never passes it.
    """
    return {
        name: getattr(args, name)
        for name in ("alpha", "beta", "window")
        if getattr(args, name, None) is not None
    }


def _schema(args):
    """The per-interval schema from ``--depth/--width/--seed``.

    The key source dictates the summary type: invertible recovery needs
    the candidate/vote planes, group testing needs per-bit subcounters;
    replay and online keys work on the plain k-ary sketch.  A subcommand
    without ``--key-source`` replays.
    """
    from repro.detection import GroupTestingSchema
    from repro.sketch import InvertibleKArySchema, KArySchema

    schema_cls = {
        "invertible": InvertibleKArySchema,
        "grouptesting": GroupTestingSchema,
    }.get(getattr(args, "key_source", "twopass"), KArySchema)
    return schema_cls(depth=args.depth, width=args.width, seed=args.seed)


def _apply_threads(args) -> None:
    """Apply ``--threads`` to the kernel layer before any session work."""
    threads = getattr(args, "threads", None)
    if threads is not None:
        from repro.hashing import set_num_threads

        set_num_threads(threads)


def _build_session(args, schema, recorder=None, sink=None):
    from repro.detection import StreamingSession

    _apply_threads(args)
    return StreamingSession(
        schema,
        args.model,
        interval_seconds=args.interval,
        key_scheme=args.key,
        value_scheme=args.value,
        t_fraction=args.threshold,
        top_n=args.top_n,
        sink=sink,
        recorder=recorder,
        **_model_params(args),
    )


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.detection import save_checkpoint
    from repro.streams import read_trace

    records = read_trace(args.trace)
    schema = _schema(args)
    recorder = _make_recorder(args)
    session = _build_session(args, schema, recorder=recorder)
    prefix = records[records["timestamp"] <= args.until]
    reports = session.ingest(prefix) if len(prefix) else []
    for report in reports:
        _print_session_report(report, args.top_n)
    save_checkpoint(session, args.out)
    for line in _format_stats_lines(session.stats):
        print(line)
    _write_metrics(recorder, args)
    print(
        f"checkpointed {session.records_ingested} records "
        f"({session.intervals_sealed} intervals sealed, "
        f"watermark={session.watermark:.3f}s) -> {args.out}"
    )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.detection import load_checkpoint
    from repro.streams import read_trace

    _apply_threads(args)
    session = load_checkpoint(args.checkpoint)
    recorder = _make_recorder(args)
    if recorder is not None:
        session.attach_recorder(recorder)
    records = read_trace(args.trace)
    rest = records[records["timestamp"] > session.watermark]
    print(
        f"resuming at watermark={session.watermark:.3f}s "
        f"({len(rest)} records remain)"
    )
    reports = session.ingest(rest) if len(rest) else []
    if args.out is not None:
        from repro.detection import save_checkpoint

        save_checkpoint(session, args.out)
        print(f"re-checkpointed -> {args.out}")
    else:
        reports.extend(session.flush())
    for report in reports:
        _print_session_report(report, session.top_n)
    for line in _format_stats_lines(session.stats):
        print(line)
    _write_metrics(recorder, args)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Stream a trace through a live session in arrival-time chunks.

    Emulates a live deployment: records are fed in ``--chunk-seconds``
    slices of trace time (multiples of the chunk length from t = 0),
    reports print as intervals seal, and (with ``--metrics-out``) the
    metrics snapshot is re-written every ``--metrics-every`` chunks --
    the file is always a complete, scrape-able snapshot, updated in
    place atomically.
    """
    from repro.streams import iter_interval_chunks, read_trace

    records = read_trace(args.trace)
    schema = _schema(args)
    recorder = _make_recorder(args)
    session = _build_session(args, schema, recorder=recorder)
    chunks = 0
    for chunks, chunk in enumerate(
        iter_interval_chunks(records, args.chunk_seconds), start=1
    ):
        for report in session.ingest(chunk):
            _print_session_report(report, args.top_n)
        if recorder is not None and chunks % args.metrics_every == 0:
            recorder.write(args.metrics_out)
    for report in session.flush():
        _print_session_report(report, args.top_n)
    for line in _format_stats_lines(session.stats):
        print(line)
    _write_metrics(recorder, args)
    print(
        f"monitored {session.records_ingested} records in {chunks} "
        f"chunks ({session.intervals_sealed} intervals sealed)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the distributed-detection coordinator until the fleet finishes."""
    import asyncio

    from repro.distributed import CoordinatorServer, IntervalMerger
    from repro.distributed.coordinator import load_merger_checkpoint

    recorder = _make_recorder(args)
    if args.resume is not None:
        merger = load_merger_checkpoint(args.resume, recorder=recorder)
        merger.checkpoint_path = args.checkpoint
        merger.checkpoint_every = args.checkpoint_every
        merger.min_sites = args.expect_sites
        print(
            f"resumed coordinator at sealed_through="
            f"{merger.sealed_through} ({len(merger.sites)} known sites)"
        )
    else:
        schema = _schema(args)
        merger = IntervalMerger(
            schema,
            args.model,
            interval_seconds=args.interval,
            t_fraction=args.threshold,
            top_n=args.top_n,
            key_source=args.key_source,
            quorum=args.quorum,
            min_sites=args.expect_sites,
            deadline_seconds=args.deadline,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            recorder=recorder,
            **_model_params(args),
        )

    async def _serve() -> None:
        server = CoordinatorServer(
            merger,
            host=args.host,
            port=args.port,
            read_timeout=args.read_timeout,
            on_report=lambda report: _print_session_report(
                report, args.top_n if args.resume is None else merger.top_n
            ),
        )
        await server.start()
        print(f"coordinator listening on {server.host}:{server.port}")
        try:
            if args.exit_when_complete:
                while not await server.wait_complete(timeout=60.0):
                    pass
            else:  # pragma: no cover - interactive mode
                await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        pass
    if args.checkpoint is not None:
        merger.save_checkpoint(args.checkpoint)
        print(f"checkpointed coordinator -> {args.checkpoint}")
    print(
        "coordinator: "
        + " ".join(f"{k}={v}" for k, v in sorted(merger.stats.items()))
    )
    for name, site in merger.site_stats().items():
        print(
            f"site {name}: sketches={site['sketches']} "
            f"digests={site['digests']} bytes={site['bytes']} "
            f"late={site['late']} substituted={site['substituted']}"
        )
    _write_metrics(recorder, args)
    return 0


def _cmd_agent(args: argparse.Namespace) -> int:
    """Stream one site's trace to a coordinator (see repro.distributed)."""
    from repro.distributed import stream_trace
    from repro.streams import read_trace

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --connect must be HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 1
    records = read_trace(args.trace)
    schema = _schema(args)
    try:
        stats = stream_trace(
            records,
            host,
            int(port),
            schema=schema,
            site=args.site,
            interval_seconds=args.interval,
            key_scheme=args.key,
            value_scheme=args.value,
            key_source=args.key_source,
            t_fraction=args.threshold,
            drift_fraction=args.drift_fraction,
            chunk_records=args.chunk_records,
            heartbeat_interval=args.heartbeat,
        )
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"agent {args.site}: "
        + " ".join(f"{k}={v}" for k, v in sorted(stats.as_dict().items()))
    )
    return 0


def _cmd_sketch(args: argparse.Namespace) -> int:
    import os

    from repro.sketch.serialization import dump
    from repro.streams import IntervalStream, read_trace

    records = read_trace(args.trace)
    schema = _schema(args)
    os.makedirs(args.out_dir, exist_ok=True)
    stream = IntervalStream(
        records,
        interval_seconds=args.interval,
        key_scheme=args.key,
        value_scheme=args.value,
    )
    count = 0
    for batch in stream:
        sketch = schema.from_items(batch.keys, batch.values)
        path = os.path.join(args.out_dir, f"interval_{batch.index:05d}.ksk")
        dump(sketch, path)
        count += 1
    print(
        f"wrote {count} sketches (H={args.depth}, K={args.width}, "
        f"seed={args.seed}) to {args.out_dir}"
    )
    return 0


def _cmd_combine(args: argparse.Namespace) -> int:
    from repro.sketch import combine
    from repro.sketch.serialization import dump, load

    first = load(args.sketches[0])
    # Attach the rest to the first sketch's schema: avoids rebuilding hash
    # tables per file and rejects incompatible sketches up front.
    sketches = [first] + [
        load(path, schema=first.schema) for path in args.sketches[1:]
    ]
    merged = combine([args.coefficient] * len(sketches), sketches)
    dump(merged, args.out)
    print(
        f"combined {len(sketches)} sketches (coefficient "
        f"{args.coefficient}) -> {args.out}; total={merged.total():.6g}"
    )
    return 0


def _cmd_drilldown(args: argparse.Namespace) -> int:
    from repro.detection import PrefixDrilldown
    from repro.streams import read_trace

    records = read_trace(args.trace)
    levels = tuple(int(level) for level in args.levels.split(","))
    drilldown = PrefixDrilldown(
        levels=levels,
        model=args.model,
        t_fraction=args.threshold,
        seed=args.seed,
        **_model_params(args),
    )
    for report in drilldown.run(records, interval_seconds=args.interval):
        if report.roots or args.verbose:
            print(report.render())
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from repro.archive import TemporalArchive
    from repro.streams import read_trace

    records = read_trace(args.trace)
    schema = _schema(args)
    recorder = _make_recorder(args)
    budget = (
        None if args.budget_mb is None else int(args.budget_mb * 1024 * 1024)
    )
    archive = TemporalArchive(
        schema,
        args.interval,
        byte_budget=budget,
        max_folds=args.max_folds,
        tail_intervals=args.tail,
        recorder=recorder,
    )
    session = _build_session(args, schema, recorder=recorder, sink=archive.ingest)
    for report in session.ingest(records):
        _print_session_report(report, args.top_n)
    for report in session.flush():
        _print_session_report(report, args.top_n)
    archive.save(args.out)
    stats = archive.stats
    print(
        f"archived {stats['intervals_ingested']} intervals in "
        f"{stats['spans']} spans ({stats['bytes']} bytes, "
        f"{stats['time_compactions']} time / "
        f"{stats['item_compactions']} item compactions) -> {args.out}"
    )
    _write_metrics(recorder, args)
    return 0


def _parse_range(text: str) -> tuple:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.archive import load_archive

    archive = load_archive(args.archive)
    coverage = archive.coverage
    if args.estimate is not None:
        t1 = args.t1
        if t1 == float("inf") and coverage is not None:
            t1 = coverage[1] * archive.interval_seconds
        volume = archive.estimate(args.estimate, args.t0, t1)
        lo, hi = archive.snap(args.t0, t1)
        print(
            f"key {args.estimate}: estimated volume {volume:.6g} over "
            f"intervals [{lo}, {hi})"
        )
        return 0
    if args.diff is not None or args.drilldown is not None:
        range_a, range_b = map(_parse_range, args.diff or args.drilldown)
        if args.drilldown is not None:
            levels = tuple(int(level) for level in args.levels.split(","))
            result, report = archive.drilldown(
                range_a, range_b, t_fraction=args.threshold, levels=levels
            )
            print(
                f"diff [{result.range_a[0]}, {result.range_a[1]}) vs "
                f"[{result.range_b[0]}, {result.range_b[1]}): "
                f"{result.report.alarm_count} alarms, "
                f"threshold={result.report.threshold:.6g}"
            )
            print(report.render())
            return 0
        result = archive.diff(
            range_a, range_b, t_fraction=args.threshold, top_n=args.top_n
        )
        report = result.report
        print(
            f"diff [{result.range_a[0]}, {result.range_a[1]}) vs "
            f"[{result.range_b[0]}, {result.range_b[1]}) "
            f"(baseline scale {result.scale:.4g})"
        )
        _print_session_report(report, args.top_n)
        for alarm in report.alarms[: args.top_n or 20]:
            print(
                f"  alarm key={alarm.key} error={alarm.estimated_error:.6g} "
                f"({alarm.magnitude:.2f}x threshold)"
            )
        return 0
    if args.replay:
        for report in archive.replay(
            args.model,
            t_fraction=args.threshold,
            top_n=args.top_n,
            **_model_params(args),
        ):
            _print_session_report(report, args.top_n)
        return 0
    stats = archive.stats
    print(f"coverage: intervals {coverage}")
    print(
        f"spans: {stats['spans']} ({stats['bytes']} bytes); "
        f"compactions: {stats['time_compactions']} time / "
        f"{stats['item_compactions']} item; "
        f"keys dropped: {stats['keys_dropped']}"
    )
    for span in archive.spans:
        keys = "-" if span.keys is None else str(len(span.keys))
        print(
            f"  span [{span.start:5d}, {span.end:5d})  "
            f"length={span.length:4d}  folds={span.folds}  "
            f"width={span.summary.schema.width:6d}  keys={keys}"
        )
    return 0


def _cmd_gridsearch(args: argparse.Namespace) -> int:
    from repro.experiments.params import best_parameters_dict

    params = best_parameters_dict(args.router, args.model, args.interval)
    print(f"router={args.router} model={args.model} interval={args.interval}s")
    for name, value in sorted(params.items()):
        print(f"  {name} = {value}")
    return 0


_BENCH_SUITES = ("throughput", "detection", "recovery")


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the performance benchmark suite(s) and print speedup tables.

    The benchmark scripts live in the repository's ``benchmarks/``
    directory (they are development tools, not part of the installed
    package), so this subcommand locates them relative to the source
    tree and loads them by file path.  Outputs go to a scratch directory
    by default so the committed ``BENCH_*.json`` baselines are never
    clobbered by an ad-hoc run.
    """
    import importlib.util
    import tempfile
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(
            "error: benchmarks/ not found next to the source tree "
            f"(looked in {bench_dir}); 'repro bench' needs a repository "
            "checkout, not an installed package",
            file=sys.stderr,
        )
        return 1

    suites = args.suites or list(_BENCH_SUITES)
    out_dir = Path(args.output_dir) if args.output_dir else Path(
        tempfile.mkdtemp(prefix="repro-bench-")
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.repeats is not None:
        argv += ["--repeats", str(args.repeats)]

    for suite in suites:
        script = bench_dir / f"bench_{suite}.py"
        spec = importlib.util.spec_from_file_location(
            f"repro_bench_{suite}", script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        print(f"== bench_{suite} ==")
        module.main(argv + ["--output", str(out_dir / f"BENCH_{suite}.json")])
        print()
    print(f"reports under {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sketch-based change detection (IMC 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate paper exhibits")
    p_run.add_argument("experiments", nargs="+", help="experiment ids (see 'list')")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate", help="write a synthetic trace")
    p_gen.add_argument("--router", default="medium", help="router profile name")
    p_gen.add_argument("--duration", type=float, default=4 * 3600.0,
                       help="trace length in seconds")
    p_gen.add_argument("--scale", type=float, default=1.0,
                       help="volume/population scale factor")
    p_gen.add_argument("--seed", type=int, default=None, help="generation seed")
    p_gen.add_argument("--out", required=True, help="output trace path")
    p_gen.set_defaults(func=_cmd_generate)

    p_det = sub.add_parser("detect", help="detect changes in a trace file")
    p_det.add_argument("trace", help="binary trace path")
    p_det.add_argument("--model", default="ewma", help="forecast model name")
    p_det.add_argument("--interval", type=float, default=300.0)
    p_det.add_argument("--key", default="dst_ip", help="key scheme")
    p_det.add_argument("--value", default="bytes", help="value scheme")
    p_det.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_det.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_det.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_det.add_argument("--threshold", type=float, default=0.05,
                       help="alarm threshold fraction T")
    p_det.add_argument("--top-n", type=int, default=0,
                       help="also report top-N keys by |error|")
    p_det.add_argument("--key-source", default="twopass",
                       choices=("twopass", "online", "invertible",
                                "grouptesting"),
                       help="candidate-key strategy: replay the interval "
                       "(twopass), use next-interval keys (online), walk "
                       "invertible-sketch candidate slots (invertible), or "
                       "decode group-testing subcounters (grouptesting)")
    p_det.add_argument("--alpha", type=float, default=None)
    p_det.add_argument("--beta", type=float, default=None)
    p_det.add_argument("--window", type=int, default=None)
    p_det.add_argument("--threads", type=int, default=None,
                       help="kernel threads (default: REPRO_NUM_THREADS or "
                            "detected cores, capped)")
    p_det.add_argument("--stats", action="store_true",
                       help="print prescreen counters after the reports")
    p_det.add_argument("--metrics-out", default=None,
                       help="write pipeline metrics here on completion "
                       "(.json -> JSON, else Prometheus text)")
    p_det.set_defaults(func=_cmd_detect)

    p_mon = sub.add_parser(
        "monitor", help="stream a trace in chunks with periodic metrics"
    )
    p_mon.add_argument("trace", help="binary trace path")
    p_mon.add_argument("--chunk-seconds", type=float, default=60.0,
                       help="trace-time slice fed per ingestion step")
    p_mon.add_argument("--model", default="ewma", help="forecast model name")
    p_mon.add_argument("--interval", type=float, default=300.0)
    p_mon.add_argument("--key", default="dst_ip", help="key scheme")
    p_mon.add_argument("--value", default="bytes", help="value scheme")
    p_mon.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_mon.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_mon.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_mon.add_argument("--threshold", type=float, default=0.05,
                       help="alarm threshold fraction T")
    p_mon.add_argument("--top-n", type=int, default=0)
    p_mon.add_argument("--alpha", type=float, default=None)
    p_mon.add_argument("--beta", type=float, default=None)
    p_mon.add_argument("--window", type=int, default=None)
    p_mon.add_argument("--threads", type=int, default=None,
                       help="kernel threads (default: REPRO_NUM_THREADS or "
                            "detected cores, capped)")
    p_mon.add_argument("--metrics-out", default=None,
                       help="metrics snapshot path, re-written periodically")
    p_mon.add_argument("--metrics-every", type=int, default=10,
                       help="flush metrics every N chunks")
    p_mon.set_defaults(func=_cmd_monitor)

    p_srv = sub.add_parser(
        "serve", help="run the distributed-detection coordinator"
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=5585,
                       help="bind port (0 picks a free port)")
    p_srv.add_argument("--model", default="ewma", help="forecast model name")
    p_srv.add_argument("--interval", type=float, default=300.0)
    p_srv.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_srv.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_srv.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_srv.add_argument("--threshold", type=float, default=0.05,
                       help="alarm threshold fraction T")
    p_srv.add_argument("--top-n", type=int, default=0)
    p_srv.add_argument("--key-source", default="twopass",
                       choices=("twopass", "invertible", "grouptesting"),
                       help="candidate-key strategy for network-wide reports")
    p_srv.add_argument("--quorum", type=int, default=1,
                       help="sites required before a deadline seal")
    p_srv.add_argument("--deadline", type=float, default=None,
                       help="seconds to wait for stragglers before sealing "
                       "without them (default: wait forever, lossless)")
    p_srv.add_argument("--read-timeout", type=float, default=30.0,
                       help="per-connection idle budget in seconds")
    p_srv.add_argument("--alpha", type=float, default=None)
    p_srv.add_argument("--beta", type=float, default=None)
    p_srv.add_argument("--window", type=int, default=None)
    p_srv.add_argument("--checkpoint", default=None,
                       help="coordinator checkpoint path (written on exit "
                       "and every --checkpoint-every seals)")
    p_srv.add_argument("--checkpoint-every", type=int, default=0,
                       help="auto-checkpoint period in sealed intervals")
    p_srv.add_argument("--resume", default=None,
                       help="restore coordinator state from this checkpoint")
    p_srv.add_argument("--exit-when-complete", action="store_true",
                       help="exit once every site said BYE and all intervals "
                       "sealed (batch/CI mode; default: serve forever)")
    p_srv.add_argument("--expect-sites", type=int, default=1,
                       help="seal nothing until at least this many sites "
                       "have registered (sites restored by --resume "
                       "count); with --exit-when-complete the fleet "
                       "cannot count as complete before then either")
    p_srv.add_argument("--metrics-out", default=None,
                       help="write pipeline metrics here on completion")
    p_srv.set_defaults(func=_cmd_serve)

    p_ag = sub.add_parser(
        "agent", help="stream one site's trace to a coordinator"
    )
    p_ag.add_argument("trace", help="binary trace path")
    p_ag.add_argument("--site", required=True, help="site name (unique)")
    p_ag.add_argument("--connect", default="127.0.0.1:5585",
                      help="coordinator address as HOST:PORT")
    p_ag.add_argument("--interval", type=float, default=300.0)
    p_ag.add_argument("--key", default="dst_ip", help="key scheme")
    p_ag.add_argument("--value", default="bytes", help="value scheme")
    p_ag.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_ag.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_ag.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_ag.add_argument("--threshold", type=float, default=0.05,
                      help="detection threshold fraction T (sets the "
                      "communication-filtering budget)")
    p_ag.add_argument("--key-source", default="twopass",
                      choices=("twopass", "invertible", "grouptesting"),
                      help="twopass collects per-interval keys locally; "
                      "recovering sources skip collection")
    p_ag.add_argument("--drift-fraction", type=float, default=0.0,
                      help="suppress intervals whose local L2 drift since "
                      "the last transmission is below this fraction of the "
                      "detection threshold (0 disables filtering)")
    p_ag.add_argument("--chunk-records", type=int, default=4096,
                      help="records ingested per event-loop step")
    p_ag.add_argument("--heartbeat", type=float, default=None,
                      help="send a liveness heartbeat every N seconds")
    p_ag.set_defaults(func=_cmd_agent)

    p_sk = sub.add_parser("sketch", help="serialize per-interval sketches")
    p_sk.add_argument("trace", help="binary trace path")
    p_sk.add_argument("--out-dir", required=True)
    p_sk.add_argument("--interval", type=float, default=300.0)
    p_sk.add_argument("--key", default="dst_ip")
    p_sk.add_argument("--value", default="bytes")
    p_sk.add_argument("--depth", type=int, default=5)
    p_sk.add_argument("--width", type=int, default=32768)
    p_sk.add_argument("--seed", type=int, default=0)
    p_sk.set_defaults(func=_cmd_sketch)

    p_cb = sub.add_parser("combine", help="linearly combine serialized sketches")
    p_cb.add_argument("sketches", nargs="+", help="serialized sketch paths")
    p_cb.add_argument("--out", required=True)
    p_cb.add_argument("--coefficient", type=float, default=1.0,
                      help="coefficient applied to every sketch")
    p_cb.set_defaults(func=_cmd_combine)

    p_dd = sub.add_parser("drilldown", help="hierarchical prefix attribution")
    p_dd.add_argument("trace", help="binary trace path")
    p_dd.add_argument("--levels", default="8,16,24,32",
                      help="comma-separated prefix lengths, coarse to fine")
    p_dd.add_argument("--interval", type=float, default=300.0)
    p_dd.add_argument("--model", default="ewma")
    p_dd.add_argument("--alpha", type=float, default=0.5)
    p_dd.add_argument("--threshold", type=float, default=0.2)
    p_dd.add_argument("--seed", type=int, default=0)
    p_dd.add_argument("--verbose", action="store_true",
                      help="also print change-free intervals")
    p_dd.set_defaults(func=_cmd_drilldown)

    p_ck = sub.add_parser(
        "checkpoint", help="stream a trace prefix and snapshot the session"
    )
    p_ck.add_argument("trace", help="binary trace path")
    p_ck.add_argument("--until", type=float, required=True,
                      help="ingest records with timestamp <= this (seconds)")
    p_ck.add_argument("--out", required=True, help="checkpoint output path")
    p_ck.add_argument("--model", default="ewma", help="forecast model name")
    p_ck.add_argument("--interval", type=float, default=300.0)
    p_ck.add_argument("--key", default="dst_ip", help="key scheme")
    p_ck.add_argument("--value", default="bytes", help="value scheme")
    p_ck.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_ck.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_ck.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_ck.add_argument("--threshold", type=float, default=0.05,
                      help="alarm threshold fraction T")
    p_ck.add_argument("--top-n", type=int, default=0)
    p_ck.add_argument("--alpha", type=float, default=None)
    p_ck.add_argument("--beta", type=float, default=None)
    p_ck.add_argument("--window", type=int, default=None)
    p_ck.add_argument("--threads", type=int, default=None,
                      help="kernel threads (default: REPRO_NUM_THREADS or "
                           "detected cores, capped)")
    p_ck.add_argument("--metrics-out", default=None,
                      help="write pipeline metrics here on completion")
    p_ck.set_defaults(func=_cmd_checkpoint)

    p_rs = sub.add_parser(
        "resume", help="restore a checkpointed session and continue"
    )
    p_rs.add_argument("checkpoint", help="checkpoint file from 'checkpoint'")
    p_rs.add_argument("trace", help="binary trace path (full trace; records "
                      "past the watermark are ingested)")
    p_rs.add_argument("--threads", type=int, default=None,
                      help="kernel threads (default: REPRO_NUM_THREADS or "
                           "detected cores, capped)")
    p_rs.add_argument("--out", default=None,
                      help="re-checkpoint here instead of flushing")
    p_rs.add_argument("--metrics-out", default=None,
                      help="write pipeline metrics here on completion")
    p_rs.set_defaults(func=_cmd_resume)

    p_bench = sub.add_parser(
        "bench", help="run the perf benchmarks and print speedup tables"
    )
    p_bench.add_argument("suites", nargs="*", choices=_BENCH_SUITES,
                         help="which suites (default: all)")
    p_bench.add_argument("--quick", action="store_true",
                         help="small sizes / few repeats (CI smoke)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="override timing repeats per path")
    p_bench.add_argument("--output-dir", default=None,
                         help="write BENCH_*.json here (default: temp dir, "
                         "never the committed baselines)")
    p_bench.set_defaults(func=_cmd_bench)

    p_ar = sub.add_parser(
        "archive", help="stream a trace into a multi-resolution archive"
    )
    p_ar.add_argument("trace", help="binary trace path")
    p_ar.add_argument("--out", required=True, help="archive output path")
    p_ar.add_argument("--model", default="ma", help="forecast model name")
    p_ar.add_argument("--interval", type=float, default=300.0)
    p_ar.add_argument("--key", default="dst_ip", help="key scheme")
    p_ar.add_argument("--value", default="bytes", help="value scheme")
    p_ar.add_argument("--depth", type=int, default=5, help="sketch rows H")
    p_ar.add_argument("--width", type=int, default=32768, help="sketch width K")
    p_ar.add_argument("--seed", type=int, default=0, help="sketch hash seed")
    p_ar.add_argument("--threshold", type=float, default=0.05,
                      help="alarm threshold fraction T")
    p_ar.add_argument("--top-n", type=int, default=0)
    p_ar.add_argument("--alpha", type=float, default=None)
    p_ar.add_argument("--window", type=int, default=None)
    p_ar.add_argument("--budget-mb", type=float, default=None,
                      help="archive byte budget in MiB (default: unlimited, "
                      "no compaction)")
    p_ar.add_argument("--max-folds", type=int, default=3,
                      help="width-halving ceiling for aged spans")
    p_ar.add_argument("--tail", type=int, default=8,
                      help="newest intervals kept at full resolution")
    p_ar.add_argument("--threads", type=int, default=None,
                      help="kernel threads (default: REPRO_NUM_THREADS or "
                           "detected cores, capped)")
    p_ar.add_argument("--metrics-out", default=None,
                      help="write pipeline metrics here on completion")
    p_ar.set_defaults(func=_cmd_archive)

    p_q = sub.add_parser(
        "query", help="retrospective queries over an archive file"
    )
    p_q.add_argument("archive", help="archive file from 'repro archive'")
    p_q.add_argument("--estimate", type=int, default=None, metavar="KEY",
                     help="estimate KEY's volume over [--from, --to) seconds")
    p_q.add_argument("--from", dest="t0", type=float, default=0.0,
                     help="range start in trace seconds (with --estimate)")
    p_q.add_argument("--to", dest="t1", type=float, default=float("inf"),
                     help="range end in trace seconds (with --estimate)")
    p_q.add_argument("--diff", nargs=2, default=None,
                     metavar=("A_LO:A_HI", "B_LO:B_HI"),
                     help="change report for interval range A against "
                     "baseline range B (half-open interval indices)")
    p_q.add_argument("--drilldown", nargs=2, default=None,
                     metavar=("A_LO:A_HI", "B_LO:B_HI"),
                     help="like --diff, plus hierarchical prefix attribution")
    p_q.add_argument("--replay", action="store_true",
                     help="re-run live detection over the full-resolution "
                     "tail")
    p_q.add_argument("--model", default="ma",
                     help="forecast model for --replay")
    p_q.add_argument("--window", type=int, default=None)
    p_q.add_argument("--threshold", type=float, default=0.05,
                     help="alarm threshold fraction T")
    p_q.add_argument("--top-n", type=int, default=0)
    p_q.add_argument("--levels", default="8,16,24,32",
                     help="prefix lengths for --drilldown, coarse to fine")
    p_q.set_defaults(func=_cmd_query)

    p_gs = sub.add_parser("gridsearch", help="grid-search model parameters")
    p_gs.add_argument("--router", default="medium")
    p_gs.add_argument("--model", default="ewma")
    p_gs.add_argument("--interval", type=float, default=300.0)
    p_gs.set_defaults(func=_cmd_gridsearch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is the Unix way.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
