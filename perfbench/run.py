"""openbilliards benchmark: one workload per invocation.

    python3 perfbench/run.py --workload stadium_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy.  The run repeats whole rounds of the
workload's operations for about `--seconds` seconds in this one process,
each round preceded by fresh set-ups, checks the outputs of the first
round and prints one JSON object as the last line of stdout.  `--trace 0`
reports the end-to-end metrics; `--trace 1` spends half the time untraced
and half traced, then reports the per-layer metrics.  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, setup_table  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "openbilliards"
SETUPS_PER_ROUND = 3
MICRO_SIZES = (100, 1300, 20_000, 200_000)
MICRO_MIN_S = 0.25        # time each direct kernel size at least this long
MICRO_MIN_CALLS = 3

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("collisions_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def import_program():
    """Fresh import of the package from src/ (earlier copies dropped)."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not src/")
    for sub in ("cli", "geometry", "dynamics", "measure", "cones",
                "inducing", "openstats"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    return pkg


def run_round(wl, ob, state, out_dir):
    """All operations once; returns (wall seconds, results, failed count).

    A failed operation leaves None in results and is reported on stderr.
    """
    out_dir.mkdir(parents=True)
    results, failed = [], 0
    t0 = time.perf_counter()
    for op in wl.ops:
        try:
            results.append(op.run(ob, state, out_dir))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(None)
            failed += 1
    return time.perf_counter() - t0, results, failed


@dataclass
class Rounds:
    """What `measure` saw: round times, operation counts, the first round's
    (out_dir, results) for the checks, and the last (program, state)."""
    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    drift: list = field(default_factory=list)
    first: tuple = None
    rss_mb: float = 0.0       # peak RSS once the first round has run
    ob: object = None
    state: dict = None


def measure(wl, prepare, run_dir, budget, tag, first=None):
    """Whole rounds until the next would end past `budget` seconds.

    `prepare()` gives the (program, set-up state) for each round.  Every
    round must reproduce the fingerprints of `first`, the run's first round
    (this call's first round when None).
    """
    seen = Rounds(first=first)
    start = time.perf_counter()
    while True:
        seen.ob = seen.state = None     # let prepare() free the last round's
        seen.ob, seen.state = prepare()
        out_dir = run_dir / f"{tag}{len(seen.times)}"
        dt, results, n_failed = run_round(wl, seen.ob, seen.state, out_dir)
        seen.times.append(dt)
        seen.attempted += len(wl.ops)
        seen.failed += n_failed
        if seen.first is None:
            seen.first = (out_dir, results)
            seen.rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            for op, res, ref in zip(wl.ops, results, seen.first[1]):
                if res is not None and ref is not None and \
                        op.fingerprint(out_dir, res) != \
                        op.fingerprint(seen.first[0], ref):
                    seen.drift.append(
                        f"{op.label}: output changed between rounds")
            shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(seen.times) > budget:
            return seen


def run_checks(wl, ob, state, first):
    out_dir, results = first
    problems = []
    for op, res in zip(wl.ops, results):
        if res is not None:
            problems += [f"{op.label}: {p}"
                         for p in op.check(ob, state, out_dir, res)]
    return problems


def micro_ns_per_lane(fn, args, n):
    """Median ns per lane of direct calls, repeated for MICRO_MIN_S."""
    times = []
    start = time.perf_counter()
    while len(times) < MICRO_MIN_CALLS or \
            time.perf_counter() - start < MICRO_MIN_S:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1e9


def layer_metrics(wl, ob, setup_sum, round_sum, n_rounds, kept, micro,
                  overhead):
    """The per-layer metrics, per traced round (set-up ones per set-up)."""
    def agg(name, field):
        return round_sum[name][field] / n_rounds if name in round_sum else 0.0

    def in_setup(name, field):
        return setup_sum[name][field] if name in setup_sum else 0.0

    step, loc = "dynamics.step_batch", "geometry.locate_batch"
    m = {}
    step_lanes = agg(step, "amount")
    m[f"{step}.calls"] = (agg(step, "calls"), "count")
    m[f"{step}.lanes"] = (step_lanes, "count")
    m[f"{step}.self_s"] = (agg(step, "self_s"), "s")
    m[f"{step}.ns_per_lane"] = (
        agg(step, "total_s") / step_lanes * 1e9 if step_lanes else 0.0, "ns")
    m[f"{step}.mean_width"] = (
        step_lanes / agg(step, "calls") if step_lanes else 0.0, "lanes")
    m[f"{loc}.calls"] = (agg(loc, "calls"), "count")
    m[f"{loc}.lanes"] = (agg(loc, "amount"), "count")
    m[f"{loc}.self_s"] = (agg(loc, "self_s"), "s")
    m[f"{loc}.in_step_lanes"] = (agg(loc, "in_step_amount"), "count")
    for kernel in (step, loc):
        for n in MICRO_SIZES:
            m[f"{kernel}.ns_per_lane.n{n}"] = (micro[kernel][n], "ns")
    m["geometry.Hole.contains.self_s"] = (
        agg("geometry.Hole.contains", "self_s"), "s")
    m["geometry.build_s"] = (in_setup("geometry.build_table", "total_s"), "s")
    m["geometry.validate_s"] = (in_setup("geometry.validate_table", "total_s"),
                               "s")
    for name in ("dynamics.tangent_map_batch", "cones.cone_invariance_scan",
                 "measure.invariance_defect", "measure.SrbSampler.sample",
                 "inducing.return_tail", "inducing.kac_defect",
                 "openstats.collect_hitting"):
        m[f"{name}.self_s"] = (agg(name, "self_s"), "s")
    for name in ("inducing.sample_base_points", "inducing.base_mask",
                 "openstats.collect_hitting"):
        m[f"{name}.calls"] = (agg(name, "calls"), "count")
    m["inducing.base_mask.self_s"] = (agg("inducing.base_mask", "self_s"), "s")
    m["openstats.march_efficiency"] = (
        wl.distinct() / step_lanes if step_lanes else 0.0, "ratio")
    stats = sum(agg(f"openstats.{f}", "total_s") for f in
                ("survival_curve", "count_statistics", "ks_exp1")) + \
        sum(agg(f"openstats.{f}", "self_s") for f in
            ("short_return_fraction", "quasi_section_defect"))
    m["openstats.stats.self_s"] = (stats, "s")
    m["cli.load_config.self_s"] = (in_setup("cli.load_config", "self_s"), "s")
    m["cli.write.self_s"] = (agg("cli.write", "self_s"), "s")
    m["cli.write.bytes"] = (agg("cli.write", "amount"), "B")
    flag_names = getattr(ob.dynamics, "FLAG_NAMES", {})
    censored = {name: 0 for name in ("grazing", "corner", "unfold_overflow",
                                     "lost")}
    for data in kept:
        kinds = np.bincount(data.censor_kind[data.censor_step <= data.horizon]
                            .astype(np.int64), minlength=8)
        for code, name in flag_names.items():
            if name in censored:
                censored[name] += int(kinds[code])
    for name, count in censored.items():
        m[f"censor.{name}"] = (count / n_rounds, "count")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def traced_part(wl, ob, state, run_dir, seconds, untraced_times, first):
    """Traced set-up and rounds, then direct kernel calls (untraced)."""
    with Tracer(ob) as tracer:
        setup_table(ob, state["cfg_path"])
        n_setup = len(tracer.spans)
        traced = measure(wl, lambda: (ob, state), run_dir, seconds, "traced",
                         first)
    setup_sum = tracer.summary(0, n_setup)
    round_sum = tracer.summary(n_setup, len(tracer.spans))
    kept = tracer.results["openstats.collect_hitting"]
    tracer.write(ROOT / ".perfbench_runs" / f"spans-{wl.name}.json")

    table = state["table"]
    micro = {"dynamics.step_batch": {}, "geometry.locate_batch": {}}
    for n in MICRO_SIZES:
        s, phi = ob.measure.SrbSampler(table, state["seed"], 1).sample(n)
        micro["dynamics.step_batch"][n] = micro_ns_per_lane(
            ob.dynamics.step_batch, (table, s, phi), n)
        micro["geometry.locate_batch"][n] = micro_ns_per_lane(
            ob.geometry.locate_batch, (table, s), n)
    overhead = statistics.median(traced.times) - \
        statistics.median(untraced_times)
    metrics = layer_metrics(wl, ob, setup_sum, round_sum, len(traced.times),
                            kept, micro, overhead)
    return metrics, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        return bench(wl, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(wl, args, run_dir):
    # the program's own seed is derived from the benchmark seed; Philox
    # keys must be non-negative 64-bit integers
    seed = args.seed % (1 << 63)
    cfg_path = run_dir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(wl.config(seed)))

    setup_times = []

    def fresh_setup():
        # set-up samples spread over the run, not taken back to back, so
        # that their median averages over the host's slow and fast spells
        for _ in range(SETUPS_PER_ROUND):
            # earlier module copies sit in reference cycles; freeing them
            # here keeps the peak RSS independent of the number of rounds
            ob = state = None
            gc.collect()
            t0 = time.perf_counter()
            ob = import_program()
            state = setup_table(ob, cfg_path)
            setup_times.append(time.perf_counter() - t0)
        return ob, state

    budget = args.seconds / 2 if args.trace else args.seconds
    seen = measure(wl, fresh_setup, run_dir, budget, "round")
    times = seen.times
    print(f"{wl.name}: {len(times)} rounds, median {statistics.median(times):.4f}"
          f" s, range {min(times):.4f}-{max(times):.4f} s", file=sys.stderr)
    attempted, failed, drift = seen.attempted, seen.failed, seen.drift

    if args.trace:
        layer, traced = traced_part(wl, seen.ob, seen.state, run_dir,
                                    args.seconds / 2, times, seen.first)
        attempted += traced.attempted
        failed += traced.failed
        drift += traced.drift
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        run_s = statistics.median(times)
        covered = sum(op.covered for op in wl.ops)
        values = {"setup_s": statistics.median(setup_times), "run_s": run_s,
                  "collisions_per_s": covered / run_s,
                  "peak_rss_mb": seen.rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    problems = drift + run_checks(wl, seen.ob, seen.state, seen.first)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
