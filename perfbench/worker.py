"""Child process of run.py; each mode runs in a fresh interpreter.

    worker.py setup INPUTS           time `import g2frob.cli` plus building every
                                     input's field and curve, between two
                                     host probes
    worker.py loop INPUTS SECONDS    untraced closed loop: whole passes over
                                     the inputs until SECONDS have elapsed,
                                     with a host probe before every call and
                                     after the last
    worker.py trace INPUTS [SPANFILE]
                                     traced set-up, one untraced pass, then one
                                     traced pass; its spans go to SPANFILE
    worker.py recount INPUTS         traced set-up and one traced pass, for
                                     the counts only

The last line of stdout is one JSON object.  A call is `g2frob.cli.main(argv)`
in this process, one at a time (one client, no threads).
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The host probe: a fixed pure-Python loop of integer arithmetic and dict
# stores.  PROBE_NOMINAL_S is its usual time under Python 3.11 on a shared
# 2-vCPU Linux virtual machine (perfbench/NOTES.md).
PROBE_ITERATIONS = 100_000
PROBE_NOMINAL_S = 0.017


def _build(spec):
    """Every input's field and curve, through the public constructors."""
    from g2frob.exactnum import make_field
    from g2frob.funcfield import make_curve

    for b in spec["builds"]:
        field = make_field(b["p"], b["k"])
        make_curve(field, [field.from_int(c) for c in b["f"]])


def probe_s():
    """Wall time of the host probe.  A shared host's speed can change by a
    third over seconds to minutes, and the program and the probe slow alike,
    so a call's time is read against the probes taken near it (run.py)."""
    t0, acc, d = time.perf_counter(), 0, {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        d[i & 255] = (i, acc)
    return time.perf_counter() - t0


def setup(spec):
    before = probe_s()
    t0 = time.perf_counter()
    import g2frob.cli  # noqa: F401

    _build(spec)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "probe_s": [before, probe_s()]}


def _run_pass(spec, main, calls, tracer=None, probes=None):
    """One call per input, in order; appends [input, rc, seconds, digest, ok,
    output bytes, start] per call, and with `probes` a host probe [start,
    seconds] after each call.  Returns the summed call time."""
    total = 0.0
    for i, inp in enumerate(spec["inputs"]):
        if tracer is not None:
            tracer.call_id = len(calls)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            # a crashing call is a failed call, not a failed benchmark
            try:
                rc = main(list(inp["argv"]))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = -1
        dt = time.perf_counter() - t0
        total += dt
        text = buf.getvalue()
        digest, ok = None, False
        if rc == 0:
            try:
                lines = [json.loads(line) for line in text.splitlines() if line.strip()]
                digest = workloads.digest(lines)
                ok = workloads.check(spec["workload"], lines, inp["expect"])
            except (ValueError, KeyError, TypeError):
                ok = False
        calls.append([i, rc, dt, digest, ok, len(text.encode()), t0])
        if probes is not None:
            probes.append([time.perf_counter(), probe_s()])
    return total


def loop(spec, seconds):
    import g2frob.cli

    probes = [[time.perf_counter(), probe_s()]]
    calls, busy = [], 0.0
    t0 = time.perf_counter()
    while True:
        busy += _run_pass(spec, g2frob.cli.main, calls, probes=probes)
        if time.perf_counter() - t0 >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"calls": calls, "busy_s": busy, "peak_rss_mb": peak_kb / 1024.0, "probe_s": probes}


def trace(spec, span_file=None, untraced_pass=True):
    # traced set-up first, while this interpreter's caches are still cold
    setup_tracer = spans.Tracer()
    saved, unwrapped = spans.install(setup_tracer)
    try:
        _build(spec)
    finally:
        spans.uninstall(saved)

    import g2frob.cli

    calls = []
    untraced_s = _run_pass(spec, g2frob.cli.main, calls) if untraced_pass else None

    tracer = spans.Tracer()
    saved, _ = spans.install(tracer)
    try:
        traced_s = _run_pass(spec, tracer.wrap("cli.main", g2frob.cli.main), calls, tracer)
    finally:
        spans.uninstall(saved)
    summary = tracer.summary()
    layers = spans.layer_metrics(tracer, summary, setup_tracer.summary())
    layers["cli.output_bytes"] = sum(c[5] for c in calls[:len(spec["inputs"])])
    if untraced_pass:
        layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.spans"] = len(tracer.start)
    if span_file:
        tracer.write(span_file)
    return {"calls": calls, "layers": layers, "counts": spans.exact_counts(tracer, summary),
            "unwrapped": unwrapped, "untraced_s": untraced_s, "traced_s": traced_s}


def main(argv):
    mode, inputs = argv[0], argv[1]
    spec = json.loads(Path(inputs).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(spec)
    elif mode == "loop":
        result = loop(spec, float(argv[2]))
    elif mode == "trace":
        result = trace(spec, *argv[2:])
    elif mode == "recount":
        result = trace(spec, untraced_pass=False)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
