"""One workload pass in a fresh interpreter; started by run.py, one at a time.

    python3 perfbench/worker.py --workload W --seed N --spawned-at T --result FILE
        [--setup-only] [--trace] [--repetition K]

``--spawned-at`` is the CLOCK_MONOTONIC time at which the parent started this
process, so ``setup_s`` covers interpreter start, ``import sdlab`` and input
generation.  The timed pass follows; output checks and digests run after it,
outside the timed interval.  Everything is written once, as JSON, to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--repetition", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sdlab

    if not Path(sdlab.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported sdlab from {sdlab.__file__}, not from {src}")
    import numpy
    import scipy

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    work = workloads.WORKLOADS[args.workload]
    workdir = Path(args.result).parent / f"pass{args.repetition}"
    inputs = work.setup(args.seed, workdir)
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        if tracer is not None:
            tracer.enabled = True
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outputs = work.run(inputs)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.enabled = False
            tracer.check_expected(args.workload)
            result["spans"] = tracer.spans
        result.update({
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": rss_kb / 1024.0,
            "ops": work.check(outputs),
            "digests": work.digests(outputs),
        })
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
