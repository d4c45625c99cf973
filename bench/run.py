"""Benchmark driver for pgroebner.

    python3 bench/run.py --workload lrr-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs one workload as a closed loop with a single client in this process
and thread: the next instance starts when the previous one has finished.
The library is imported from src/ next to this directory and sees only
the generated inputs.

--trace 0 times each instance once, with nothing installed, and reports
the end-to-end metrics with every time scaled to the reference host speed
of hostspeed.py, measured next to the instances all through the run.
--trace 1 runs the fixed head of the stream twice, untraced and then with
the layer wrappers of tracer.py, and reports the per-layer metrics; its
counts repeat exactly for a given seed.

Every output is checked outside the timed region.  The last line of
stdout is one JSON object; a human report goes to stderr.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the library
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from hostspeed import REFERENCE_S, HostSpeed
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# Imports of the package before and after the instances; one more follows
# each batch.  setup_s is the median of all of them, each scaled to the
# reference host speed like the instances.
SETUP_REPEATS = 8
# Probes showed the first seconds of work running 30-40% slower than the
# rest; instances from a separate warm-up stream absorb that.
WARMUP_S = 2.0
MIN_INSTANCES = 100
# A run in a slow phase of the host takes longer than `--seconds`, but at
# most this many times as long, so that all runs of a benchmark fit their
# time limit.
WALL_CAP = 1.3
# Past this much wall time the run stops, even inside a batch or short of
# MIN_INSTANCES, so that it ends well within three minutes.
HARD_STOP_S = 140.0

END_TO_END_UNITS = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "groebner.normal_forms": "count",
    "groebner.zero_normal_forms": "count",
    "groebner.useful_ratio": "ratio",
    "groebner.reduce_steps": "count",
    "groebner.peak_basis": "elements",
    "groebner.final_basis": "elements",
    "groebner.buchberger_s": "s",
    "groebner.normal_form_s": "s",
    "polyvec.lm_calls": "count",
    "polyvec.vecs_built": "count",
    "polyvec.terms_built": "count",
    "polyvec.parse_s": "s",
    "ring.calls": "count",
    "ring.inv_calls": "count",
    "ring.vp_calls": "count",
    "lrr.enumerate_s": "s",
    "lrr.enum_tuples": "count",
    "lrr.enum_useful_ratio": "ratio",
    "lrr.enum_capped": "count",
    "lrr.shortest_self_s": "s",
    "pbasis.build_s": "s",
    "pbasis.vectors": "count",
    "reports.render_s": "s",
    "trace.overhead_ratio": "ratio",
}


class LibraryMissing(Exception):
    pass


def import_library(repeats: int, speed: HostSpeed | None = None):
    """Import pgroebner from SRC `repeats` times.

    Returns ((start, seconds) of each import, package).  With speed, the
    calibration chunks due are run before each import.
    """
    if not (SRC / "pgroebner" / "__init__.py").is_file():
        raise LibraryMissing(f"no pgroebner package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "pgroebner" or m.startswith("pgroebner.")]:
            del sys.modules[name]
        gc.collect()  # the previous copy's garbage is not this import's cost
        if speed is not None:
            speed.keep_up()
        start = time.perf_counter()
        pg = importlib.import_module("pgroebner")
        importlib.import_module("pgroebner.reports")
        times.append((start, time.perf_counter() - start))
    if Path(pg.__file__).resolve().parent != (SRC / "pgroebner").resolve():
        raise LibraryMissing(f"pgroebner was imported from {pg.__file__}, not {SRC}")
    return times, pg


def timed_call(call):
    """(result or None, formatted error or None, start, seconds) of one call."""
    start = time.perf_counter()
    try:
        result, err = call(), None
    except Exception:
        result, err = None, traceback.format_exc(limit=-3)
    return result, err, start, time.perf_counter() - start


class Outcome:
    """What one run attempted, how long each instance took, what failed."""

    def __init__(self, pg, wl, head: int) -> None:
        self.pg, self.wl, self.head = pg, wl, head
        self.times: list[float] = []
        self.labels: list[str] = []
        self.measured = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.head_docs: list[str] = []
        self.state: dict = {}
        self.notes: list[str] = []

    def fail(self, inst, err: str) -> None:
        self.failures.append(f"{inst.label} [{inst.ident}]: {err}")

    def verify(self, done) -> list:
        """Check (instance, result, error, start, seconds) entries.

        Returns (instance, document, start, seconds) for those that
        passed; the results themselves are dropped so that they do not
        count towards peak_rss_mb.
        """
        good = []
        for inst, res, err, start, seconds in done:
            self.attempted += 1
            if err is None:
                try:
                    problems = self.wl.check(self.pg, inst, res, self.state)
                except Exception:
                    problems = [traceback.format_exc(limit=-3)]
                err = "; ".join(problems) or None
            if err is None:
                good.append((inst, res.doc, start, seconds))
            else:
                self.fail(inst, err)
            if len(self.head_docs) < self.head:
                self.head_docs.append(res.doc if res is not None else "<failed>")
        return good

    def check_digest(self, seed: int) -> None:
        """On the default seed the head-of-stream documents are pinned."""
        if seed != DEFAULT_SEED:
            return
        digest = hashlib.sha256("".join(self.head_docs).encode()).hexdigest()
        expected = json.loads(DIGESTS.read_text()).get(self.wl.name)
        if digest != expected:
            self.failures.append(f"document digest {digest} != recorded {expected}")


def warm_up(pg, wl, seed: int) -> None:
    start = time.perf_counter()
    for batch in wl.rounds(f"warmup-{seed}"):
        for inst in batch:
            try:
                wl.solve(pg, inst)
            except Exception:
                pass  # the timed run counts and reports failures
            if time.perf_counter() - start >= WARMUP_S:
                return


def stream_head(wl, seed: int) -> list:
    rounds = wl.rounds(seed)
    return [inst for _ in range(wl.head_rounds) for inst in next(rounds)]


def p90(values: list[float]) -> float:
    """The 90th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timed_run(pg, wl, seed: int, seconds: float):
    """Whole batches from the stream for `seconds`, one instance after another.

    Calibration chunks of hostspeed.py run between instances, in
    proportion to the time passed, and every time is scaled by the host
    speed around its middle.  The run ends after the first batch that
    brings it to `seconds` at the reference speed, so a slow phase of the
    host lengthens it but does not change which instances it measures.
    Each batch is checked right after it ran, inside that budget.
    """
    head = len(stream_head(wl, seed))
    out = Outcome(pg, wl, head)
    floor = max(MIN_INSTANCES, head)
    speed = HostSpeed()
    imports, _ = import_library(SETUP_REPEATS, speed)
    passed = []
    start = time.perf_counter()
    for batch in wl.rounds(seed):
        done = []
        for inst in batch:
            speed.keep_up()
            done.append((inst, *timed_call(lambda: wl.solve(pg, inst))))
            if time.perf_counter() - start >= HARD_STOP_S:
                break
        speed.keep_up()
        # keep no documents: peak_rss_mb must not grow with the count
        passed += [(inst.label, t0, t) for inst, _, t0, t in out.verify(done)]
        imports += import_library(1, speed)[0]
        wall = time.perf_counter() - start
        enough = speed.scaled_since(start) >= seconds or wall >= WALL_CAP * seconds
        if wall >= HARD_STOP_S or (enough and out.attempted >= floor):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    imports += import_library(SETUP_REPEATS, speed)[0]
    speed.keep_up()
    out.check_digest(seed)
    chunk = speed.total[-1] / len(speed.times)
    out.notes.append(
        f"host speed: {len(speed.times)} calibration chunks of {chunk * 1e3:.3f} ms on average "
        f"(reference {REFERENCE_S * 1e3:.3f} ms), {time.perf_counter() - start:.1f} s of wall time"
    )
    for label, t0, t in passed:
        scaled = speed.scale(t0, t)
        out.times.append(scaled)
        out.labels.append(label)
        out.measured += scaled
    metrics = {}
    if out.times:
        metrics = {
            "solve_ms_p50": statistics.median(out.times) * 1e3,
            "solve_ms_p90": p90(out.times) * 1e3,
            "instances_per_s": len(out.times) / out.measured,
            "setup_s": statistics.median(speed.scale(t0, t) for t0, t in imports),
            "peak_rss_mb": rss_mb,
        }
    return out, metrics


def traced_run(pg, wl, seed: int):
    """The stream head untraced, then traced; counts come from the traced pass.

    Both passes are scaled by the host speed, so that trace.overhead_ratio
    compares them as if run at one speed; the layer times are not scaled.
    """
    head = stream_head(wl, seed)
    out = Outcome(pg, wl, len(head))
    speed = HostSpeed()

    def timed(call):
        speed.keep_up()
        return timed_call(call)

    plain = out.verify([(inst, *timed(lambda: wl.solve(pg, inst))) for inst in head])
    out.check_digest(seed)
    tracer = Tracer()
    tracer.install(pg, workloads)
    traced = []
    try:
        for inst, doc, t0, seconds in plain:
            res, err, traced_t0, traced_s = timed(lambda: tracer.run(inst.ident, wl.solve, pg, inst))
            if err is not None or res.doc != doc:
                out.fail(inst, err or "traced run gave a different document")
            traced.append((t0, seconds, traced_t0, traced_s))
    finally:
        tracer.uninstall()
    speed.keep_up()
    tracer.write_spans(BENCH / "out" / f"spans-{wl.name}-seed{seed}.jsonl")
    traced_total = 0.0
    for (inst, _, _, _), (t0, seconds, traced_t0, traced_s) in zip(plain, traced):
        out.times.append(speed.scale(t0, seconds))
        out.labels.append(inst.label)
        out.measured += out.times[-1]
        traced_total += speed.scale(traced_t0, traced_s)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_total / out.measured if out.measured else 0.0
    return out, metrics


def report(wl, seed: int, out: Outcome, metrics: dict, units: dict) -> None:
    err = sys.stderr
    n = len(out.times)
    print(
        f"{wl.name} seed={seed}: {out.attempted} attempted, {len(out.failures)} failed, "
        f"fail_frac={len(out.failures) / max(out.attempted, 1):.4g} ratio",
        file=err,
    )
    samples = {
        "solve_ms_p50": f"{n} samples",
        "solve_ms_p90": f"{n} samples, {n - int(0.9 * n)} beyond",
        "instances_per_s": f"{n} instances",
        "setup_s": "median of the imports",
        "peak_rss_mb": "whole process",
    }
    for name, value in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:26s} {value:14.6g} {units[name]}{extra}", file=err)
    by_label = defaultdict(list)
    for label, t in zip(out.labels, out.times):
        by_label[label].append(t)
    if len(by_label) <= 20:
        for label, ts in sorted(by_label.items()):
            print(f"    {label:22s} n={len(ts):4d} median {statistics.median(ts) * 1e3:10.3f} ms  max {max(ts) * 1e3:10.3f} ms", file=err)
    for note in out.notes:
        print(f"  {note}", file=err)
    for failure in out.failures[:10]:
        print(f"  FAILED {failure}", file=err)


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS[name]
    try:
        _, pg = import_library(1)
    except (LibraryMissing, ImportError) as exc:
        print(f"error: cannot import pgroebner: {exc}", file=sys.stderr)
        return 2
    warm_up(pg, wl, seed)
    if trace:
        out, metrics = traced_run(pg, wl, seed)
        units = PER_LAYER_UNITS
    else:
        out, metrics = timed_run(pg, wl, seed, seconds)
        units = END_TO_END_UNITS
    report(wl, seed, out, metrics, units)
    correct = not out.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if lines:
            results[name] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    if len(results) == len(WORKLOADS):
        print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
