#!/usr/bin/env python3
"""Benchmark of carlson-bounds: one closed-loop caller, no extra threads.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 10 --trace 0

Workloads: envelope, table, classify, verify (see workloads.py).  The run
generates its inputs from --seed, times set-up (import plus warm-up), runs
whole rounds of operations for --seconds of timed work, then checks every
operation's output with checks.py.  setup_s is the median of several
set-ups: one in this process before the timed rounds, the others in child
interpreters spread through them.  With --trace 1 the first half of the
time runs untraced and the second half with tracer.py's wrappers installed;
the run then reports the per-layer figures instead of the end-to-end ones.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The full result (and, traced, every wrapped function's calls and
busy time) is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# most timed operations kept for the percentiles; past it every other kept
# round is dropped and the keeping stride doubles, so the kept rounds stay
# spread evenly over the whole run
KEPT_OPS = 1 << 18

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    from tracer import FUNCTION_KEYS, LAYERS

    units = {k: ("count" if k.endswith(".calls") else "s") for k in FUNCTION_KEYS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "oracle.hp_context.enters": "count",
        "family.promoted.calls": "count",
        "classifier.g_prime_evals_per_classify": "1",
        "classifier.hp_fallbacks": "count",
        "bounds.endpoint_width_ulps_max": "ulp",
        "bounds.width_rel_p50": "1",
        "cli.stdout_bytes": "B",
        "trace.ops": "count",
        "trace.overhead_pct": "%",
    })
    return units


def use_checkout_source() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "carlson_bounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def set_up(wl, seed: int):
    """Import the package and run the warm-up; returns (seconds, modules, context)."""
    from workloads import import_package

    warm = wl.warmup(seed)
    t0 = time.perf_counter()
    pkg = import_package()
    ctx = wl.setup(pkg)
    for item in warm:
        try:
            wl.op(ctx, item)
        except Exception:  # the timed run records failures; warm-up only fills caches
            pass
    elapsed = time.perf_counter() - t0
    import carlson_bounds

    if not Path(carlson_bounds.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported {carlson_bounds.__file__}, not the checkout's source")
    return elapsed, pkg, ctx


def set_up_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop over whole rounds; keeps first-pass outputs for checking."""

    def __init__(self, wl, ctx, blocks):
        self.wl, self.ctx, self.blocks = wl, ctx, blocks
        self.rounds = 0
        self.first: dict[int, list] = {}  # block -> outputs of its first round
        self.repeats = [0] * len(blocks)  # rounds run per block
        self.mismatch: set[tuple[int, int]] = set()
        self.times: list[array] = []  # op times of every `stride`-th round
        self.stride = 1
        self.kept_rounds = max(2, KEPT_OPS // len(blocks[0]))
        self.attempted = 0
        self.raised = 0
        self.stdout_bytes = 0

    def run(self, seconds: float) -> tuple[int, float]:
        """Run rounds until `seconds` of timed work; returns (completed ops, seconds)."""
        wl, ctx, op = self.wl, self.ctx, self.wl.op
        clock = time.perf_counter
        spent = 0.0
        completed = 0
        while spent < seconds:
            b = self.rounds % len(self.blocks)
            block = self.blocks[b]
            outs = [None] * len(block)
            times = array("d", bytes(8 * len(block)))
            start = clock()
            for i, item in enumerate(block):
                t0 = clock()
                try:
                    outs[i] = op(ctx, item)
                except Exception as exc:
                    outs[i] = Raised(exc)
                    times[i] = -1.0
                    continue
                times[i] = clock() - t0
            spent += clock() - start
            self.rounds += 1
            self.repeats[b] += 1
            self.attempted += len(block)
            n_raised = sum(isinstance(o, Raised) for o in outs)
            self.raised += n_raised
            completed += len(block) - n_raised
            if (self.rounds - 1) % self.stride == 0:
                self.times.append(times)
                if len(self.times) > self.kept_rounds:
                    del self.times[1::2]
                    self.stride *= 2
            self.stdout_bytes += sum(wl.stdout_bytes(o) for o in outs if not isinstance(o, Raised))
            first = self.first.setdefault(b, outs)
            if first is not outs:
                self.mismatch.update((b, i) for i, (x, y) in enumerate(zip(first, outs)) if x != y)
        return completed, spent

    def op_times(self) -> list[float]:
        return [t for times in self.times for t in times if t >= 0.0]


class Raised:
    """An operation that raised; equal to another raising the same way."""

    def __init__(self, exc: BaseException):
        self.what = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.what == self.what


def check_outputs(loop: Loop) -> tuple[int, list[str]]:
    """Check every first-pass output; returns (ops failing a check, reasons)."""
    from checks import CHECKS

    check = CHECKS[loop.wl.name]
    bad_ops = 0
    reasons = []
    for b, outs in loop.first.items():
        for i, (item, out) in enumerate(zip(loop.blocks[b], outs)):
            if isinstance(out, Raised):
                continue
            why = check(item, out)
            if why is None and (b, i) in loop.mismatch:
                why = f"output differs between rounds for input {item!r}"[:300]
            if why is not None:
                bad_ops += loop.repeats[b]
                reasons.append(why)
    return bad_ops, reasons


def interval_figures(loop: Loop) -> tuple[float, float]:
    """(median relative width, widest endpoint-ladder width in ulps) of the intervals checked."""
    import math

    from checks import interval_width

    rel, ulps = [], [0.0]
    for b, outs in loop.first.items():
        for item, out in zip(loop.blocks[b], outs):
            if isinstance(out, Raised):
                continue
            if loop.wl.name == "table":
                rel.extend(r["width"] / r["reference"] for r in out)
                continue
            got = interval_width(item, out)
            if got is None:
                continue
            width, ref = got
            rel.append(width / ref)
            _, x, set_id = item
            # the +-1 ladders reach 1 - |x| <= 2**-33; a uniform x lands there
            # with probability 2**-32
            if set_id is None and (1.0 - abs(x)) < 2.0**-32:
                ulps.append(width / math.ulp(ref))
    return (statistics.median(rel) if rel else 0.0), max(ulps)


def quantiles(times: list[float]) -> tuple[float, float]:
    if len(times) == 1:
        return times[0], times[0]
    q = statistics.quantiles(times, n=10, method="inclusive")
    return q[4], q[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    use_checkout_source()
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(set_up(wl, args.seed)[0]))
        return 0

    blocks = wl.blocks(args.seed)
    elapsed, pkg, ctx = set_up(wl, args.seed)
    setups = [elapsed]

    loop = Loop(wl, ctx, blocks)
    tracer = None
    if args.trace:
        from tracer import Tracer

        plain_ops, plain_s = loop.run(args.seconds / 2)
        tracer = Tracer(pkg)
        tracer.install()
        bytes_before = loop.stdout_bytes
        traced_ops, traced_s = loop.run(args.seconds / 2)
        tracer.uninstall()
    else:
        # the other set-ups run in child interpreters at equal intervals of
        # the timed work, while the loop waits, so that setup_s samples the
        # whole run as the timed figures do, not one moment before it
        ops = spent = 0
        children = wl.setup_runs - 1
        for _ in range(children):
            n, s = loop.run(args.seconds / children)
            ops, spent = ops + n, spent + s
            setups.append(set_up_in_child(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad_ops, reasons = check_outputs(loop)
    failed = loop.raised + bad_ops
    if tracer is None:
        p50, p90 = quantiles(loop.op_times())
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops / spent,
            "op_p50_us": p50 * 1e6,
            "op_p90_us": p90 * 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        units = per_layer_units()
        metrics = tracer.layer_metrics()
        width_rel, width_ulps = interval_figures(loop) if wl.name in ("envelope", "table") else (0.0, 0.0)
        metrics["bounds.width_rel_p50"] = width_rel
        metrics["bounds.endpoint_width_ulps_max"] = width_ulps
        metrics["cli.stdout_bytes"] = float(loop.stdout_bytes - bytes_before)
        metrics["trace.ops"] = float(traced_ops)
        metrics["trace.overhead_pct"] = 100.0 * ((plain_ops / plain_s) / (traced_ops / traced_s) - 1.0)

    for why in reasons[:10]:
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    if loop.raised:
        kinds = sorted({o.what for outs in loop.first.values() for o in outs if isinstance(o, Raised)})
        print(f"perfbench: {loop.raised} operations raised: {kinds}", file=sys.stderr)

    result = {
        "correct": not reasons,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  setup_samples_s=setups, rounds=loop.rounds)
    if tracer is not None:
        record["functions"] = tracer.functions()
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
