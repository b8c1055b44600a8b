"""Benchmark for spheremin: exports and the constructor gate, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload export_fine --seed 1 --seconds 10 --trace 0

Workloads: export_fine, export_sweep, gate_sweep (see perfbench/README.md).
Items run in a closed loop, one process and one item at a time, with the
BLAS/OpenMP thread pools pinned to one thread.  Every timed output is
checked outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes,
then one traced pass with perfbench/tracer.py, and prints the per-layer
metrics.  Both print human-readable lines first and one JSON object as the
last line of standard output.  The metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from reference import scale_after  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUPS = 7          # set-ups per run: this process plus fresh probes
PROBE_TIMEOUT = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="a few small items per pass (for the smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import spheremin from this checkout's src/, never from elsewhere."""
    if not (SRC / "spheremin" / "__init__.py").is_file():
        raise SystemExit(f"spheremin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spheremin
    import spheremin.cli  # noqa: F401

    if Path(spheremin.__file__).resolve().parent != SRC / "spheremin":
        raise SystemExit(f"imported spheremin from {spheremin.__file__}")


def _set_up(workload, items, smoke):
    """Import plus one untimed warm-up item, timed together; returns the
    time in measured and in reference-host seconds."""
    t0 = time.perf_counter()
    _import_program()
    warm = items[0] if smoke else workload.warmup
    wl.run_item(warm, str(OUT / workload.name / f"warmup.{warm.fmt}"))
    seconds = time.perf_counter() - t0
    return seconds, seconds * scale_after(seconds)


def _probe(args):
    """Set up once more in a fresh interpreter and return its times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT, check=True)
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


class Loop:
    """Closed loop over the items of one pass, repeated as needed."""

    def __init__(self, workload, seed, items):
        self.items = items
        self.workdir = str(OUT / workload.name)
        self.checker = wl.Checker(workload.name, seed)
        self.durations: list[float] = []
        self.times = [[] for _ in items]     # per item, one entry per pass
        self.scaled = [[] for _ in items]    # the same in reference seconds
        self.last_scale = None               # of the reference before an item
        self.vertices = [0] * len(items)
        self.failed_items = 0
        self.failures: Counter = Counter()

    def run_pass(self, tracer=None, reference=None):
        """One pass; returns (digest, check failures) per item.

        With a reference (the result of an untraced pass) the outputs are
        only compared with it and inherit its check failures, because the
        checks call into spheremin themselves and must not be traced.
        """
        results = []
        for idx, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = idx
            out = wl.run_item(item, wl.out_path(self.workdir, idx, item))
            out.digest = _digest(item, out)
            n_run = len(out.failures)
            if reference is None:
                self.vertices[idx] = self.checker.check(item, out)
            else:
                digest, check_failures = reference[idx]
                out.failures.extend(check_failures)
                if out.digest != digest:
                    out.failures.append(wl.TRACE_DIFFERS)
            self.durations.append(out.seconds)
            self.times[idx].append(out.seconds)
            # The host's speed during an item is taken as the mean of the
            # reference speeds before and after it (the one before is the
            # previous item's): on export_fine, with 2 s items, this halved
            # the spread between runs against the speed after it alone.
            scale = scale_after(out.seconds)
            before = scale if self.last_scale is None else self.last_scale
            self.last_scale = scale
            self.scaled[idx].append(out.seconds * 0.5 * (before + scale))
            self.failures.update(out.failures)
            self.failed_items += bool(out.failures)
            results.append((out.digest, out.failures[n_run:]))
        return results

    @property
    def busy(self) -> float:
        return sum(self.durations)

    @property
    def correct(self) -> bool:
        return not any(wl.is_wrong_output(f) for f in self.failures)


def _digest(item, out) -> str:
    """Identity of an item's outputs: the bytes written, the solved
    parameter, or the failure."""
    if out.failures:
        return "|".join(out.failures)
    if item.kind == "gate":
        return repr(wl.solved_parameter(item, out.instance))
    return wl.digest_files(out.out_path, out.out_path + ".json")


def _run_passes(loop, seconds, min_passes):
    passes = 0
    while passes < min_passes or loop.busy < seconds:
        loop.run_pass()
        passes += 1
    return passes


def _line(name, value, unit="", note=""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<18} {text} {unit}" + (f"   ({note})" if note else ""))


def _report_failures(loop):
    n = len(loop.durations)
    _line("fail_ratio", loop.failed_items / n, "",
          f"{loop.failed_items} of {n} runs")
    for kind, count in sorted(loop.failures.items()):
        print(f"    {kind:<24} {count / n:.4f}   ({count})")


def _end_to_end(args, spec, workload, items):
    setups = [_set_up(workload, items, args.smoke)]
    setups += [_probe(args) for _ in range(SETUPS - 1)]
    loop = Loop(workload, args.seed, items)
    passes = _run_passes(loop, args.seconds, workload.passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n, runs = len(items), len(loop.durations)
    means = [statistics.fmean(t) for t in loop.scaled]
    measured = [statistics.fmean(t) for t in loop.times]
    scaled_busy = sum(map(sum, loop.scaled))
    setup = statistics.median(s for _, s in setups)
    values = {
        "setup_s": setup,
        "items_per_s": runs / scaled_busy,
        "item_p50_s": statistics.median(means),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}  seed {args.seed}  items {n}  passes "
          f"{passes}  (closed loop, 1 client, 1 thread)")
    print(f"  times in reference-host seconds; measured/reference = "
          f"{loop.busy / scaled_busy:.4f}")
    _line("setup_s", setup, "s", f"median of {len(setups)} set-ups; measured "
          + ", ".join(f"{raw:.3f}" for raw, _ in setups) + " s")
    _line("items_per_s", values["items_per_s"], "1/s",
          f"{runs} runs; measured {runs / loop.busy:.4g} 1/s")
    _line("item_p50_s", values["item_p50_s"], "s",
          f"n={n} items, mean of {passes} runs each; measured "
          f"{statistics.median(measured):.4g} s")
    if n >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(means, n=10)[-1]
        beyond = sum(x > p90 for x in means)
        _line("item_p90_s", p90, "s", f"n={n} items, {beyond} beyond; "
              f"measured {statistics.quantiles(measured, n=10)[-1]:.4g} s")
    else:
        _line("item_p90_s", "n/a", "", f"n={n} items; needs >= 100")
    if items[0].kind == "export":
        verts = sum(loop.vertices) * passes
        _line("vertices_per_s", verts / scaled_busy, "1/s",
              f"{sum(loop.vertices)} vertices per pass; measured "
              f"{verts / loop.busy:.4g} 1/s")
    else:
        _line("vertices_per_s", "n/a", "", "no meshes in this workload")
    _report_failures(loop)
    _line("peak_rss_mb", peak_rss_mb, "MB")
    return loop, {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def _per_layer(args, spec, workload, items):
    import tracer as tr

    _set_up(workload, items, args.smoke)
    loop = Loop(workload, args.seed, items)
    reference = loop.run_pass()
    passes = 1 + _run_passes(loop, args.seconds, 0)
    untraced = len(loop.durations) / loop.busy

    tracer = tr.Tracer()
    tracer.install()
    n_untraced = len(loop.durations)
    try:
        loop.run_pass(tracer=tracer, reference=reference)
    finally:
        tracer.uninstall()
    traced_d = loop.durations[n_untraced:]
    traced = len(traced_d) / sum(traced_d)
    tracer.write(str(OUT / workload.name / "trace.npz"))

    print(f"workload {args.workload}  seed {args.seed}  untraced passes "
          f"{passes}, traced passes 1, items per pass {len(items)}, "
          f"spans {tracer.n_spans}")
    print(f"  tracing overhead: traced {traced:.4g} items/s vs untraced "
          f"{untraced:.4g} items/s (x{untraced / traced:.3f})")
    print("  traced outputs byte-identical to untraced: "
          f"{wl.TRACE_DIFFERS not in loop.failures}")
    _report_failures(loop)
    values = {
        "trace.untraced_items_per_s": untraced,
        "trace.traced_items_per_s": traced,
    }
    for fname, stats in tracer.summary().items():
        for stat, v in stats.items():
            values[f"{fname}.{stat}"] = v
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            metrics[name] = values[name]
            print(f"  {name:<56} {values[name]:.6g} {m['unit']}")
        else:
            print(f"  absent: {name} (not measurable in this program)")
    return loop, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = wl.WORKLOADS[args.workload]
    items = workload.items(args.seed, args.smoke)
    (OUT / workload.name).mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        print(*_set_up(workload, items, args.smoke))
        return 0

    if args.trace:
        loop, values = _per_layer(args, spec, workload, items)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        loop, values = _end_to_end(args, spec, workload, items)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": loop.correct,
        "attempted": len(loop.durations),
        "failed": loop.failed_items,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
