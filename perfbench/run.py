#!/usr/bin/env python3
"""Seeded, stdlib-only benchmark of the cutnets library and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload contain --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the next op starts when the previous
one returns. Each op is checked outside its timed span. An op that raises,
fails its check or runs past the per-op cap (``signal.setitimer`` in the main
thread) is failed and is charged the cap on top of the time it ran.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and prints the per-layer metrics. The last line of
standard output is one JSON object; the per-op records go to
``.perfbench-out/`` and the spans of the last traced run beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
IMPORT_SAMPLES = 5
CAP_S = 10.0   # the per-op cap
# Set-ups per timed run; setup_s is their median. The first builds the pool
# the ops use and the others run during the timed loop, so that a burst of
# machine noise moves one of them, not the median.
SETUPS = 3


class OpTimeout(BaseException):
    """Raised by SIGALRM in the main thread when an op runs past the cap."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_capped(fn, item, cap):
    """(status, output, elapsed seconds) of one call bounded by ``cap``."""
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        out = fn(item)
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok", out, elapsed
    except OpTimeout:
        return "timeout", None, perf_counter() - start
    except Exception as exc:   # any library failure is a failed op
        return f"error:{type(exc).__name__}", None, perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def passes(workload, item, out):
    """Whether an op's output passes its check; a check that raises fails."""
    try:
        return bool(workload.check(item, out))
    except Exception:
        return False


# -- set-up --------------------------------------------------------------------

def set_up(workload, seed):
    """Build the whole input pool, then warm up on the first
    ``workload.warmup`` smallest-class inputs. Returns the cycles (one pool
    index across all classes) and the set-up time, checks excluded."""
    start = perf_counter()
    cycles = []
    for index in range(workload.pool):
        cycle = []
        for cls in range(len(workload.classes)):
            rng = random.Random(f"{workload.name}/{seed}/{cls}/{index}")
            cycle += workload.make(rng, cls, index)
        cycles.append(cycle)
    warm = [i for cycle in cycles for i in cycle if i.cls == 0][:workload.warmup]
    outs = [workload.op(item) for item in warm]
    setup_s = perf_counter() - start
    for item, out in zip(warm, outs):
        if not workload.check(item, out):
            raise RuntimeError(f"warm-up op on {item.size} gave a wrong result")
    return cycles, setup_s


# -- the closed loop -----------------------------------------------------------

def measure(workload, cycles, seconds, tracer=None, side=()):
    """Run whole cycles until ``seconds`` have passed; one record per op.

    ``side`` calls (the CLI requests and repeated set-ups) run between
    cycles, spread evenly over the run so they see the same machine as the
    ops."""
    records = []
    start = perf_counter()
    done = 0
    k = 0
    while True:
        for item in cycles[k % len(cycles)]:
            if tracer is None:
                status, out, elapsed = run_capped(workload.op, item, CAP_S)
            else:
                op_id = len(records)
                status, out, elapsed = run_capped(
                    lambda it: tracer.run_op(op_id, workload.op, it), item, CAP_S)
            if status == "ok":
                if not passes(workload, item, out):
                    status = "wrong"
                elif tracer is not None:
                    tracer.events.update(workload.events(out))
            charged = elapsed if status == "ok" else CAP_S + elapsed
            records.append({"cls": item.cls, "size": item.size, "primary": item.primary,
                            "status": status, "elapsed_s": elapsed, "charged_s": charged})
        k += 1
        while done < len(side) and perf_counter() - start >= seconds * done / len(side):
            side[done]()
            done += 1
        if perf_counter() - start >= seconds:
            break
    for call in side[done:]:
        call()
    return records


def timing_metrics(records):
    charged = sorted(r["charged_s"] for r in records)
    n = len(charged)
    # The highest percentile with 10 ops beyond it, but never below the
    # median. With fewer than 21 ops (sat-roundtrip) the plain rule would
    # fall below the median and jump between size classes as the op count
    # moves by one cycle.
    at = max(n - 11, n // 2)
    beyond = n - 1 - at
    return {
        "ops_per_s": n / sum(charged),
        "op_p50_ms": statistics.median(charged) * 1e3,
        "op_tail_ms": charged[at] * 1e3,
        "tail_percentile": 100.0 * (at + 1) / n,
        "tail_beyond": beyond,
        "samples": n,
        "failed": sum(r["status"] != "ok" for r in records),
        "wrong": sum(r["status"] == "wrong" for r in records),
    }


def growth(workload, records):
    """Median charged time of the primary ops and mean size, per size class."""
    out = {}
    for cls, label in enumerate(("small", "medium", "large")):
        mine = [r for r in records if r["cls"] == cls and r["primary"]]
        if mine:
            out[label] = (statistics.fmean(r["size"] for r in mine),
                          statistics.median(r["charged_s"] for r in mine) * 1e3)
    return out


def peak_memory_mb(workload, cycles):
    """Median peak traced allocation of the first ``mem_class`` ops, re-run
    under tracemalloc after the timed loop so set-up cannot mask it. Only
    re-runs that complete and pass their check count, so the peak of an
    aborted op never stands in for that of a whole one; if none completes,
    the failed re-runs are used. Returns the peak and how many completed."""
    chosen = [i for cycle in cycles for i in cycle if i.cls == workload.mem_class and i.primary]
    peaks, whole = [], []
    tracemalloc.start()
    try:
        for item in chosen[:workload.mem_items]:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            status, out, _ = run_capped(workload.op, item, 4 * CAP_S)   # tracemalloc slows ops
            peak = tracemalloc.get_traced_memory()[1] - base
            peaks.append(peak)
            if status == "ok" and passes(workload, item, out):
                whole.append(peak)
    finally:
        tracemalloc.stop()
    return statistics.median(whole or peaks) / 1e6, len(whole)


# -- CLI subprocesses ----------------------------------------------------------

def _cli(args, env):
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return perf_counter() - start, proc


class CliRequests:
    """Whole CLI requests on the workload's representative input, one
    subprocess at a time; ``times`` holds the timed requests."""

    def __init__(self, workload, cycles, work):
        items = [i for cycle in cycles for i in cycle]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # The first smallest-class input: on a small input a request's time
        # depends little on which input the seed drew.
        first = next(i for i in items if i.cls == 0 and i.primary)
        self.request = workload.cli_request(first, work)
        self.extra = workload.cli_extra(items, work)
        self.samples = workload.cli_samples
        self.times: list[float] = []
        self.right = True

    def run(self, commands):
        total = 0.0
        for args, code, needle in commands:
            elapsed, proc = _cli(["-m", "cutnets.cli", *args], self.env)
            total += elapsed
            self.right &= proc.returncode == code and needle in proc.stdout
        return total

    def calls(self):
        """An untimed warm-up, the timed requests, then the exit-code-only extras."""
        return ([lambda: self.run(self.request)]
                + [lambda: self.times.append(self.run(self.request))] * self.samples
                + [lambda: self.run(self.extra)])


def import_ms():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [_cli(["-c", "import cutnets.cli"], env)[0] for _ in range(IMPORT_SAMPLES + 1)]
    return statistics.median(times[1:]) * 1e3


# -- one workload --------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    phases = {"start": perf_counter()}
    cycles, setup_s = set_up(workload, seed)
    setup_times = [setup_s]
    phases["setup"] = perf_counter()
    result = {"workload": workload.name, "seed": seed, "seconds": seconds, "cap_s": CAP_S,
              "classes": list(workload.classes)}
    if not trace:
        work = OUT_DIR / f"cli-work-{os.getpid()}"   # the CLI's input and output files
        work.mkdir(parents=True, exist_ok=True)
        try:
            cli = CliRequests(workload, cycles, work)
            side = cli.calls()
            for k in range(1, SETUPS):   # the repeated set-ups, evenly among the CLI calls
                side.insert(k * len(side) // SETUPS,
                            lambda: setup_times.append(set_up(workload, seed)[1]))
            records = measure(workload, cycles, seconds, side=side)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        phases["measure"] = perf_counter()
        timing = timing_metrics(records)
        peak, mem_whole = peak_memory_mb(workload, cycles)
        phases["memory"] = perf_counter()
        metrics = {
            "ops_per_s": (timing["ops_per_s"], "ops/s"),
            "op_p50_ms": (timing["op_p50_ms"], "ms"),
            "op_tail_ms": (timing["op_tail_ms"], "ms"),
            "peak_mem_mb": (peak, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "cli_p50_ms": (statistics.median(cli.times) * 1e3, "ms"),
        }
        result.update(timing=timing, cli_request_s=cli.times, setup_s=setup_times,
                      records=records,
                      mem_class=workload.mem_class, mem_completed=mem_whole)
        correct = timing["wrong"] == 0 and cli.right
        notes = {"setup_s": f"median of {len(setup_times)} set-ups",
                 "op_tail_ms": f"p{timing['tail_percentile']:.1f}, "
                               f"{timing['tail_beyond']} of {timing['samples']} samples beyond",
                 "peak_mem_mb": f"size class {workload.mem_class}, "
                                f"{mem_whole} of {workload.mem_items} re-runs completed",
                 "cli_p50_ms": f"{len(cli.times)} requests"}
        sizes = growth(workload, records)
    else:
        untraced = measure(workload, cycles, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, cycles, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        base, slow = timing_metrics(untraced), timing_metrics(traced)
        timing = timing_metrics(records)
        metrics = {name: (value, _unit(name)) for name, value in tracer.per_op().items()}
        sizes = growth(workload, untraced)
        for label, (size, p50) in sizes.items():
            metrics[f"growth.{label}.size"] = (size, "count")
            metrics[f"growth.{label}.op_p50_ms"] = (p50, "ms")
        metrics["trace.untraced_ops_per_s"] = (base["ops_per_s"], "ops/s")
        metrics["trace.traced_ops_per_s"] = (slow["ops_per_s"], "ops/s")
        metrics["trace.overhead_ratio"] = (base["ops_per_s"] / slow["ops_per_s"], "ratio")
        metrics["cli.import_ms"] = (import_ms(), "ms")
        result.update(timing=timing, records=records, spans_kept=len(tracer.spans),
                      spans_dropped=tracer.dropped)
        correct = timing["wrong"] == 0
        notes = {}
        phases["measure"] = perf_counter()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{workload.name}-spans.jsonl")
        result["module_share"] = _module_share(tracer, traced)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    marks = list(phases.items())
    result["phase_s"] = {name: t - marks[i][1] for i, (name, t) in enumerate(marks[1:])}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    _report(workload, seed, metrics, notes, timing, sizes, result)
    return correct, timing["samples"], timing["failed"], metrics


def _unit(name):
    kind = name.rpartition(".")[2]
    return "s" if kind == "self_s" else "count"


def _module_share(tracer, traced):
    """Share of traced op time spent in each module's own code."""
    total = sum(r["elapsed_s"] for r in traced) or 1.0
    share = {}
    for name, seconds in tracer.self_s.items():
        module = name.split(".", 1)[0]
        share[module] = share.get(module, 0.0) + seconds / total
    return dict(sorted(share.items(), key=lambda kv: -kv[1]))


def _report(workload, seed, metrics, notes, timing, sizes, result):
    print(f"== {workload.name}  seed {seed}  sizes {'/'.join(map(str, workload.classes))}  "
          f"closed loop, 1 client, cap {result['cap_s']:g} s")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_share':<44} {timing['failed'] / timing['samples']:>14.6g} ratio"
          f"  ({timing['failed']} of {timing['samples']} ops failed, "
          f"{timing['wrong']} with a wrong result)")
    for label, (size, p50) in sizes.items():
        print(f"  growth {label:<7} size {size:>8.1f}  op_p50_ms {p50:>10.3f}")
    for module, share in result.get("module_share", {}).items():
        print(f"  self-time share {module:<12} {share:>6.1%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="contain, analyze, sat-roundtrip, generate or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutnets" / "__init__.py").is_file():
        print(f"error: no cutnets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGALRM, _on_alarm)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, mine = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace))
        correct &= ok
        attempted += n
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in mine.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
