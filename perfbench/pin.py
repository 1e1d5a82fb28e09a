"""Regenerate the pinned reference digests in pinned.json.

    python3 perfbench/pin.py --seeds 0-99 [--workloads verify-midp,...] [--out FILE]

For every (workload, seed) it generates the inputs, runs one pass through
`g2frob.cli.main` and records the combined digest of the outputs (with
`timing` dropped at every depth).  Those digests define correct output, so
run it only on a commit whose outputs are known to be right; the current file
was made on the parent commit of the benchmark, before any optimisation.
Entries are merged into FILE (default pinned.json).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="range such as 0-99")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--out", default=str(HERE / "pinned.json"))
    args = ap.parse_args(argv)

    import g2frob.cli

    lo, hi = (int(x) for x in args.seeds.split("-"))
    names = args.workloads.split(",") if args.workloads else list(workloads.GENERATORS)
    out = Path(args.out)
    pinned = json.loads(out.read_text()) if out.exists() else {}
    for name in names:
        for seed in range(lo, hi + 1):
            path = workloads.generate(name, seed, ROOT / ".perfbench_work" / f"pin-{name}-{seed}")
            spec = json.loads(path.read_text())
            calls = []
            worker._run_pass(spec, g2frob.cli.main, calls)
            bad = [c for c in calls if c[1] != 0 or not c[4]]
            if bad:
                raise SystemExit(f"{name} seed {seed}: failed calls {bad}")
            pinned.setdefault(name, {})[str(seed)] = workloads.combined_digest([c[3] for c in calls])
            print(name, seed, pinned[name][str(seed)], flush=True)
    out.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
