"""End-to-end benchmark of the repro engine: the paper's shortest-path SQL
on a clean graph index and under edge churn, compressed analytics, and a
durable served mix.

    python3 e2ebench/run.py --workload paths_indexed --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the engine is imported from ``src/`` of
that checkout and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable copy
of each metric precedes it.  Inputs, images and the run record go to
``e2ebench/.work/``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    END_TO_END_UNITS,
    SETUP_REPS,
    Checker,
    Phase,
    calibrate,
    cpu_ticks,
    env_stamp,
    latency_metrics,
    latency_summary,
    median,
    now,
    peak_rss_mb,
    pin_to_one_cpu,
    steal_share,
    write_record,
)
from spans import SPANS_FILE  # noqa: E402

#: BENCHMARK.json gates paths_indexed and serve_mixed; paths_churn and
#: analytics_scan run the same way by hand (see README.md)
WORKLOADS = ("paths_indexed", "paths_churn", "analytics_scan", "serve_mixed")
#: what a run leaves in its work directory
KEPT_FILES = ("run.json", SPANS_FILE)


class Config:
    def __init__(self, args, workdir: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.corrupt = args.corrupt_reference
        self.workdir = workdir
        self.root = ROOT


def import_engine() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(1, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"e2ebench: cannot import the engine from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"e2ebench: repro was imported from {repro.__file__}, not {src}")


def run_in_process(cfg: Config, workload, checker: Checker) -> tuple:
    """Set-up, warm-up and the timed phase(s) of an in-process workload.
    Returns (metrics, run record)."""
    from spans import ENGINE_TARGETS, Recorder, write_spans

    recorder = Recorder().install(ENGINE_TARGETS) if cfg.trace else None
    start = now()
    setups, touches = [], []
    for rep in range(SETUP_REPS):
        seconds, touch = workload.setup(rep)
        checker.attempt()
        setups.append(seconds)
        touches.append(touch)
    Phase(workload.ops, workload.cycle, 0, checker).run_once()
    calibration = [calibrate()]
    ticks = cpu_ticks()
    record = {"setup_s": setups}
    if cfg.trace:
        before = workload.counters()
        ratios = []

        def sample_overlay(name: str) -> None:
            if name == "write":
                ratios.append(workload.delta_ratio())

        ops = {name: recorder.rooted(f"op.{name}", op) for name, op in workload.ops.items()}
        traced = Phase(ops, workload.cycle, cfg.seconds / 2, checker,
                       on_op=sample_overlay).run()
        after = workload.counters()
        recorder.uninstall()
        plain = Phase(workload.ops, workload.cycle, cfg.seconds / 2, checker).run()
    else:
        plain = Phase(workload.ops, workload.cycle, cfg.seconds, checker).run()
    calibration.append(calibrate())
    steal = steal_share(ticks, cpu_ticks())
    stored = workload.stored_bytes()
    rss = peak_rss_mb()
    end = now()
    workload.verify(checker)
    latency = latency_metrics(plain.latency)
    if cfg.trace:
        from layers import per_layer

        traced_latency = latency_metrics(traced.latency)
        metrics = per_layer(
            recorder.spans, traced.window, traced.statements, (start, end), before, after,
            {
                "delta_ratio": max(ratios, default=0.0),
                "first_touch_ms": median(touches) * 1e3 - latency["point_p50_ms"],
                "image_parts": stored["parts"],
                "point_p50_overhead_ms": traced_latency["point_p50_ms"] - latency["point_p50_ms"],
                "ops_per_s_overhead": traced.ops_per_s - plain.ops_per_s,
            },
        )
        record["traced_latency"] = latency_summary(traced.latency)
        write_spans(os.path.join(cfg.workdir, SPANS_FILE), recorder.spans)
    else:
        metrics = {
            "setup_s": median(setups),
            **latency,
            "peak_rss_mb": rss,
            "stored_bytes_per_user_byte": (stored["image"] + stored["wal"]) / stored["user"],
        }
    record.update(calibration_s=calibration, steal_share=steal,
                  ops_per_s=plain.ops_per_s, latency=latency_summary(plain.latency),
                  stored=stored, first_touch_s=touches)
    return metrics, record


def run(cfg: Config) -> dict:
    checker = Checker(cfg.corrupt)
    if cfg.workload == "serve_mixed":
        import served

        workload = served.ServedWorkload(cfg)
        runner = workload.run
    else:
        if cfg.workload == "analytics_scan":
            import analytics

            workload = analytics.AnalyticsWorkload(cfg)
        else:
            import paths

            workload = paths.PathsWorkload(cfg, churn=cfg.workload == "paths_churn")
        runner = lambda checker: run_in_process(cfg, workload, checker)  # noqa: E731
    stamp = env_stamp(ROOT, cfg.workdir, workload.flush_policy)
    try:
        metrics, record = runner(checker)
    finally:
        workload.close()
    if cfg.trace:
        from layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    calibration = record["calibration_s"]
    record.update(
        workload=cfg.workload, seed=cfg.seed, seconds=cfg.seconds, trace=cfg.trace,
        scale=cfg.scale, env=stamp, metrics=metrics, mismatches=checker.mismatches,
        disturbed=(abs(calibration[1] - calibration[0]) > 0.2 * calibration[0]
                   or record["steal_share"] > 0.05),
    )
    write_record(cfg.workdir, record)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, record["disturbed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the benchmark's own test uses a tiny one)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="falsify one reference answer, to show a mismatch is counted")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    import_engine()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cfg = Config(args, workdir)
    try:
        result, disturbed = run(cfg)
    finally:
        for entry in os.listdir(workdir):
            if entry not in KEPT_FILES:
                path = os.path.join(workdir, entry)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    # read by aa.py, which runs a disturbed run again
    print(f"{args.workload} disturbed = {int(disturbed)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
