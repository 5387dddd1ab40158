"""Seed sweep: how each verdict side's slack, in standard errors, spreads over seeds.

Runs every theorem's desk instance in one process, as ``sdlab suite smoke``
(n = 10,000) over one seed range and as ``sdlab verify-all -n N`` over
another, and prints one JSON document: per run, id and side, the mean, sd and
min of slack/se over the seeds, and the seeds whose side reads ``fail``.
Between seeds the threshold cache and the noise bank are cleared, so each seed
starts cold, as in a fresh ``sdlab`` process.  A change to a random stream
runs it before and after and compares the two documents::

    PYTHONPATH=src python tests/seed_sweep.py                       # smoke 0-199, verify-all 0-299 at n = 1e5
    PYTHONPATH=src python tests/seed_sweep.py --smoke 0-7 --all none

A range is ``first-last`` (both included) or ``none``.  The name keeps the
script out of the pytest run: it takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import json
import math
from collections import defaultdict

from sdlab import cli, mc, sampler

SMOKE_N = 10_000  # the n of `sdlab suite smoke`


def seed_range(text: str) -> range:
    if text == "none":
        return range(0)
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def sweep(seeds: range, n: int) -> dict:
    """Per id and side: slack/se summary and failing seeds; ids with no side count their seeds as not applicable."""
    ratios, fails, na = defaultdict(list), defaultdict(list), defaultdict(list)
    for seed in seeds:
        with mc._CACHE_LOCK:
            mc._CACHE.clear()
        sampler._BANK.clear()
        for tid in cli.THEOREMS:
            report = cli.run_config(cli.default_config(tid, n, seed, 1))
            if not report.sides:
                na[tid].append(seed)
            for side in report.sides:
                key = (tid, side.name)
                ratios[key].append(side.slack / side.se if side.se > 0 else math.copysign(math.inf, side.slack))
                if side.verdict == mc.VERDICT_FAIL:
                    fails[key].append(seed)
    out = defaultdict(dict)
    for (tid, name), r in ratios.items():
        finite = [x for x in r if math.isfinite(x)]  # a side with se 0 counts in se_zero_seeds only
        mean = math.fsum(finite) / len(finite) if finite else None
        sd = math.sqrt(math.fsum((x - mean) ** 2 for x in finite) / (len(finite) - 1)) if len(finite) > 1 else None
        out[tid][name] = {"seeds": len(r), "mean": mean, "sd": sd, "min": min(finite, default=None),
                          "se_zero_seeds": len(r) - len(finite), "fail_seeds": fails[(tid, name)]}
    for tid, s in na.items():
        out[tid]["not_applicable_seeds"] = s
    return dict(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", type=seed_range, default=seed_range("0-199"), help="suite smoke seeds (default 0-199)")
    ap.add_argument("--all", type=seed_range, default=seed_range("0-299"), help="verify-all seeds (default 0-299)")
    ap.add_argument("-n", type=int, default=100_000, help="verify-all replicates (default 100000)")
    args = ap.parse_args(argv)
    doc = {run: {"n": n, "seeds": [seeds.start, seeds.stop - 1] if seeds else None, "ids": sweep(seeds, n)}
           for run, seeds, n in (("smoke", args.smoke, SMOKE_N), ("verify-all", args.all, args.n))}
    print(json.dumps(doc, indent=1, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
