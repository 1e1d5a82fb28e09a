"""The g2frob benchmark: one seeded workload through `g2frob.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs come from the seed alone
(workloads.py); the program sees only the generated CLI arguments and catalog
files.  Every call's output is checked against oracle facts and, with `timing`
dropped at every depth, against the digest pinned for this seed
(pinned.json) and against the first call of the same input.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time in
fresh interpreters, then an untraced closed loop of whole passes over the
inputs for S seconds in one child process.  Each timing is scaled by the
host probe taken next to it (worker.probe_s) to the probe's nominal speed,
so that the host's slow and fast phases cancel; the unscaled figures are
printed too.  --trace 1 prints the per-layer metrics of a separate traced
run instead (worker.py, spans.py).  Either way the last stdout line is one
JSON object {correct, attempted, failed, metrics}.
Scratch files (inputs, catalogs, span files) go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 21
# a call is scaled by the probes taken within this many seconds of it
PROBE_WINDOW_S = 6.0
CHILD_TIMEOUT_S = 150


def _child(*args, hash_seed="0"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(times):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None with fewer than 20 samples."""
    n = len(times)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def _at_nominal_speed(seconds, probes):
    """`seconds` as they would read on the host running at the speed where
    the probe takes PROBE_NOMINAL_S, given the probes taken around them."""
    return seconds * worker.PROBE_NOMINAL_S / statistics.fmean(probes)


def _scaled_call_times(calls, probes):
    """Each call's wall time at the probe's nominal speed.  A call of several
    seconds spans many of the host's changes of speed, and the two probes next
    to it catch only two instants, so each call is scaled by the mean of every
    probe that ran within PROBE_WINDOW_S of it, the two next to it included."""
    times = []
    for c in calls:
        start, end = c[6] - PROBE_WINDOW_S, c[6] + c[2] + PROBE_WINDOW_S
        near = [d for t, d in probes if start <= t and t + d <= end]
        times.append(_at_nominal_speed(c[2], near))
    return times


def _judge(name, seed, spec, calls):
    """Failed calls: nonzero exit, a false oracle, a digest that differs from
    the first call of the same input, or (on a pinned seed) a first pass whose
    digests differ from the pinned reference, which fails every call."""
    first = {}
    for i, _, _, digest, *_ in calls:
        first.setdefault(i, digest)
    failed = sum(1 for i, rc, _, digest, ok, *_ in calls
                 if rc != 0 or not ok or digest != first[i])
    pinned = json.loads((HERE / "pinned.json").read_text()).get(name, {}).get(str(seed))
    got = workloads.combined_digest([first.get(i) or "" for i in range(len(spec["inputs"]))])
    if pinned is None:
        print(f"note: seed {seed} has no pinned digest; checked by oracles and repeat calls")
    elif got != pinned:
        print(f"digest mismatch: pinned {pinned}, got {got}")
        failed = len(calls)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "g2frob" / "cli.py").is_file() or not bench.is_file():
        print("error: run from a g2frob source checkout (src/g2frob is missing)", file=sys.stderr)
        return 2
    declared = json.loads(bench.read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    inputs = workloads.generate(args.workload, args.seed, work)
    spec = json.loads(inputs.read_text())
    n_inputs = len(spec["inputs"])

    if args.trace:
        span_file = work / "spans.tsv.gz"
        result = _child("trace", inputs, span_file)
        # the traced pass again in a second interpreter with another string
        # hash seed: every count must repeat exactly
        again = _child("recount", inputs, hash_seed="1")
        calls = result["calls"] + again["calls"]
        counts, recount = result["counts"], again["counts"]
        drift = sorted(k for k in counts.keys() | recount.keys()
                       if counts.get(k, 0) != recount.get(k, 0))
        metrics = result["layers"]
        for key in result["unwrapped"]:
            print(f"note: {key} no longer exists, so it was not wrapped")
        if drift:
            print("count drift between two traced runs: " + ", ".join(
                f"{k} {counts.get(k, 0)} != {recount.get(k, 0)}" for k in drift))
        print(f"spans written to {span_file.relative_to(ROOT)}")
        print(f"untraced pass {result['untraced_s']:.4f} s, traced pass "
              f"{result['traced_s']:.4f} s")
        declared_metrics = declared["per_layer"]
    else:
        # half the set-up samples before the loop and half after, so that a
        # slow stretch of the host at one end of the run cannot set the median
        setups = [_child("setup", inputs) for _ in range(SETUP_RUNS // 2)]
        result = _child("loop", inputs, args.seconds)
        setups += [_child("setup", inputs) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        calls, probes = result["calls"], result["probe_s"]
        times = _scaled_call_times(calls, probes)
        curves = sum(spec["inputs"][c[0]]["curves"] for c in calls)
        metrics = {
            "call_s_p50": statistics.median(times),
            "curves_per_s": curves / sum(times),
            "setup_s": statistics.median(
                _at_nominal_speed(s["setup_s"], s["probe_s"]) for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"host probe: median {statistics.median(d for _, d in probes):.6f} s over "
              f"{len(probes)} probes "
              f"(nominal {worker.PROBE_NOMINAL_S} s); as measured, the median call took "
              f"{statistics.median(c[2] for c in calls):.6f} s, {curves / result['busy_s']:.6f} "
              f"curves/s, and set-up {statistics.median(s['setup_s'] for s in setups):.6f} s")
        declared_metrics = declared["end_to_end"]

    failed = _judge(args.workload, args.seed, spec, calls)
    if args.trace and drift:
        failed = len(calls)
    if not args.trace:
        tail = _tail(times)
        print(f"calls {len(calls)} ({len(calls) // n_inputs} passes of {n_inputs} inputs)")
        print("call_s_tail: " + (f"p{tail[0]} = {tail[1]:.6f} s (n={len(times)})" if tail
                                 else f"omitted, {len(times)} calls is too few"))
        print(f"failed_frac = {failed / len(calls):.6f} ({failed}/{len(calls)})")

    unknown = set(metrics) - {m["name"] for m in declared_metrics}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for m in declared_metrics:
        value = metrics[m["name"]]
        print(f"{m['name']} = {value} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
