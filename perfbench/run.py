"""sdlab benchmark: one workload, measured in fresh single-process interpreters.

    python3 perfbench/run.py --workload {smoke,verify-dense,crossing,solvers}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the benchmark imports ``src/sdlab`` from
that checkout and writes only under ``.perfbench/`` there.

``--trace 0`` runs ``max(1, S // nominal_s)`` passes of the workload, each in a
fresh interpreter (cold module caches, ``workers=1``, one BLAS thread), plus
set-up probes until ``SETUP_SAMPLES`` set-up times are taken, and prints the
end-to-end metrics as medians over passes.  Times are scaled to a reference
speed by a kernel timed right before and after each worker (``speed_scale``).
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass plus ``trace.overhead_ratio``.  Every pass checks
its outputs and records a digest of them; digests must agree across passes
with one seed, and across runs of the same source tree (kept in
``.perfbench/digests``).

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment: nproc, Python, numpy and scipy versions, BLAS thread setting, git
commit (when the checkout has one) and /proc/loadavg, and every raw sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# about one pass at e271beb on a shared 2-core machine (8-11 s measured for the
# first three); sets the pass count of a run, so a run does fixed work
NOMINAL_S = {"smoke": 10.0, "verify-dense": 10.0, "crossing": 10.0, "solvers": 4.0}
SETUP_SAMPLES = 5
CAL_REPS = 4
# one calibrate() run on an uncontended core of the 2-core machine that
# measured NOMINAL_S; reported times are seconds at this speed
CAL_REF_S = 0.05
PASS_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDLAB_")}
    env.update({k: "1" for k in BLAS_ENV})
    env.update({"PYTHONHASHSEED": "0", "TMPDIR": str(tmp)})
    return env


def calibrate(reps: int = CAL_REPS) -> list[float]:
    """Times of ``reps`` runs of a fixed reference kernel that uses no sdlab code.

    It mixes what the workloads spend their time on: Python-level pointer
    chasing (union-find), small complex FFTs, a sort, and streaming over
    arrays larger than the cache.  It runs in this process, right before and
    after each worker, so it changes nothing in the worker: not its heap, not
    its peak resident set.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64)) + 0j
    y = rng.standard_normal(8192)
    big = rng.standard_normal((2, 2_000_000))  # 32 MB, beyond the last-level cache
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        parent = list(range(4096))
        for k in range(150_000):
            a = (k * 7919) & 4095
            while parent[a] != a:
                a = parent[a]
            b = (k * 104729) & 4095
            parent[b] = a if a != b else parent[a]
        for _ in range(60):
            np.fft.ifft2(np.fft.fft2(x))
        for _ in range(200):
            np.sort(y)
        for _ in range(6):
            np.add(big[0], 1.0, out=big[1])
            np.multiply(big[1], 0.5, out=big[0])
        times.append(time.perf_counter() - t0)
    return times


def run_pass(workload: str, seed: int, rundir: Path, rep: int, *, setup_only=False, trace=False,
             timed=True) -> dict:
    """Start one worker interpreter, wait for it to end, return its result.

    For a timed worker the reference kernel is timed right before and right
    after it.
    """
    result = rundir / f"rep{rep}.json"
    log = rundir / f"rep{rep}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--result", str(result), "--repetition", str(rep)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    cal_before = calibrate() if timed else []
    with open(log, "w") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=_child_env(rundir),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} pass {rep} exceeded {PASS_TIMEOUT_S} s") from None
    cal_after = calibrate() if timed else []
    if code != 0 or not result.exists():
        raise BenchError(f"{workload} pass {rep} exited with code {code}:\n{log.read_text()[-4000:]}")
    return dict(json.loads(result.read_text()), cal_before_s=cal_before, cal_after_s=cal_after)


def source_digest() -> str:
    """Digest of the sdlab sources and the workload definitions.

    Stored output digests are kept per digest, so a change to either starts a
    fresh reference instead of reading as nondeterminism.
    """
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Digest mismatches between passes of this run and earlier runs with this seed."""
    store = STATE / "digests" / source_digest() / f"{workload}-{seed}.json"
    reference = json.loads(store.read_text()) if store.exists() else dict(passes[0]["digests"])
    problems = []
    for k, p in enumerate(passes):
        for op, want in reference.items():
            got = p["digests"].get(op)
            if got is not None and got != want:
                problems.append(f"pass {k}: {op} digest {got} != {want}")
        for op, got in p["digests"].items():
            reference.setdefault(op, got)
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference, sort_keys=True, indent=1))
    return problems


def count_ops(passes: list[dict], mismatches: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): each operation of each pass, plus digest mismatches."""
    attempted = failed = 0
    reasons = []
    for k, p in enumerate(passes):
        for op, failure in p["ops"]:
            attempted += 1
            if failure is not None:
                failed += 1
                reasons.append(f"pass {k}: {op}: {failure}")
    failed = min(attempted, failed + len(mismatches))
    return attempted, failed, reasons + mismatches


def error_rate(attempted: int, failed: int) -> float:
    """Rule-of-succession failure rate (failed + 1) / (attempted + 2).

    Never 0, so a share-of-median bound applies to it; one failure in a run
    roughly doubles it.  The raw counts are reported as attempted / failed.
    """
    return (failed + 1) / (attempted + 2)


def speed_scale(cal_s: list[float]) -> float:
    """Factor that converts an interpreter's times to the reference speed.

    The machine is shared: the CPU speed left to one process changes by up to
    2x within a minute, and raw pass times spread by 20-35% across runs.  The
    reference kernel is timed right before and after the worker; times are
    scaled by CAL_REF_S over its median time, which one stalled kernel run
    does not move.
    """
    return CAL_REF_S / statistics.median(cal_s)


def scaled(p: dict, key: str) -> float:
    """A worker's time ``key`` at the reference speed."""
    return p[key] * speed_scale(p["cal_before_s"] + p["cal_after_s"])


def end_to_end_metrics(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    values = {
        "wall_s": statistics.median(scaled(p, "wall_s") for p in passes),
        "cpu_s": statistics.median(scaled(p, "cpu_s") for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "error_rate": error_rate(attempted, failed),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    values = spans.layer_metrics(traced["spans"])
    values["trace.overhead_ratio"] = scaled(traced, "wall_s") / scaled(untraced, "wall_s")
    return {k: {"value": values[k], "unit": u} for k, u in spans.LAYER_UNITS.items()}


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": {k: "1" for k in BLAS_ENV},
        "workers": 1,
        "git_commit": git_commit(),
        "loadavg": Path("/proc/loadavg").read_text().strip(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.exists() else ref[5:]


def write_trace(workload: str, seed: int, repetition: int, records: list[list]) -> None:
    """The traced pass's spans, written once, after the pass has ended."""
    out = STATE / "trace" / f"{workload}-{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([
        {"id": i, "name": s[0], "start": s[2], "end": s[3], "parent": s[1],
         "workload": workload, "repetition": repetition, "counts": s[4]}
        for i, s in enumerate(records)]))


def measure(workload: str, seed: int, seconds: int, trace: bool, rundir: Path) -> dict:
    # untimed warm-up: compiles bytecode in the checkout and warms the file cache
    run_pass(workload, seed, rundir, 0, setup_only=True, timed=False)
    if trace:
        untraced = run_pass(workload, seed, rundir, 1)
        traced = run_pass(workload, seed, rundir, 2, trace=True)
        passes = [untraced, traced]
        write_trace(workload, seed, 2, traced["spans"])
    else:
        n = max(1, int(seconds // NOMINAL_S[workload]))
        passes = [run_pass(workload, seed, rundir, 1 + k) for k in range(n)]
    probes = []
    while not trace and len(passes) + len(probes) < SETUP_SAMPLES:
        probes.append(run_pass(workload, seed, rundir, len(passes) + len(probes) + 1, setup_only=True))
    setups = [scaled(p, "setup_s") for p in passes + probes]
    mismatches = check_determinism(workload, seed, passes)
    attempted, failed, reasons = count_ops(passes, mismatches)
    metrics = per_layer_metrics(*passes) if trace else end_to_end_metrics(passes, setups, attempted, failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": environment(passes[0]["versions"]),
        "samples": {"wall_s": [p["wall_s"] for p in passes], "cpu_s": [p["cpu_s"] for p in passes],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                    "setup_s": [p["setup_s"] for p in passes + probes],
                    "cal_before_s": [p["cal_before_s"] for p in passes + probes],
                    "cal_after_s": [p["cal_after_s"] for p in passes + probes]},
        "failures": reasons,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [f for f in ("src/sdlab/__init__.py", "docs/report.schema.json") if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not an sdlab checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    rundir = STATE / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    results = STATE / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(dict(res, workload=args.workload, seed=args.seed), indent=1))
    for reason in res["failures"]:
        print(f"failed: {reason}")
    print(json.dumps({"env": res["env"], "samples": res["samples"]}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
