"""lpverify benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {bilinear,ledger,picard} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; lpverify is imported from its ``src``.
A pass of a workload runs the workload's fixed operation list, one
operation at a time, with one thread.  With ``--trace 0`` a few
set-up-only worker processes measure set-up time, then one worker process
runs passes until the run has taken about ``--seconds`` (at least one
pass), and the end-to-end metrics are reported.  With ``--trace 1`` one
untraced and one traced pass run on the same inputs, each in a fresh
worker; the per-layer metrics come from the traced pass, and the two
passes' outputs must be bit-identical.  Every worker warms up on the
first operation before it times anything.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: set-up-only worker processes per run, on top of the measuring worker
SETUP_SAMPLES = 7
#: a run must end within this many seconds, whatever --seconds says
DEADLINE_S = 170.0
PAIRS = 12
PAIR_BAND = (2, 2)

#: end-to-end metrics, name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "pass_ratio": ("ratio", "higher"),
}


def _cli(suite: str, n: int, *args: str) -> dict:
    return {"kind": "cli", "n": n, "argv": ["run", "--suite", suite, "--n", str(n), *args, "--threads", "1"]}


def workload_ops(name: str, seed: int) -> list[dict]:
    """The fixed operation list of one pass; every seed in it is offset by ``seed``."""
    s = str(seed)
    if name == "bilinear":
        pairs = [{"kind": "pair", "n": 128, "seed": 1000 + PAIRS * seed + i, "band": list(PAIR_BAND)}
                 for i in range(PAIRS)]
        half = PAIRS // 2
        return pairs[:half] + [_cli("paraproduct", 64, "--seed", s)] + pairs[half:]
    if name == "ledger":
        return [
            _cli("dyadic", 64, "--seed", s),
            _cli("diagnostics", 64, "--seed", s),
            _cli("fractional-low", 32, "--seed", s),
            _cli("s-half", 32, "--seed", s),
            _cli("classical-identity", 32, "--k-range", "1:1", "--seed", s),
        ]
    if name == "picard":
        return [_cli("core", 64, "--seed", s)] + [
            _cli("energy-balance", 32, "--s", sv, "--seed", s) for sv in ("1", "5/6", "1/2")
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bilinear", "ledger", "picard")


class SetupError(RuntimeError):
    """The program could not be imported; no result is printed."""


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(work))
    return env


def _spawn(root: Path, work: Path, tag: str, ops: list[dict], grids: list[int], deadline: float,
           trace: bool = False, budget_s: float = 0.0) -> dict | None:
    """Run one worker; return its result, or None if it crashed or timed out."""
    job_dir = work / tag
    job_dir.mkdir(parents=True)
    job = job_dir / "job.json"
    job.write_text(json.dumps({"root": str(root), "ops": ops, "grids": grids, "trace": trace,
                               "budget_s": budget_s, "out": str(job_dir / "out")}))
    with open(job_dir / "log.txt", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(WORKER), str(job), repr(spawned)],
                                stdout=log, stderr=subprocess.STDOUT, env=_child_env(work), cwd=root)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker {tag} ran past the run's deadline", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = job_dir / "result.json"
    if proc.returncode != 0 or not result.exists():
        tail = (job_dir / "log.txt").read_text(errors="replace")[-2000:]
        print(f"worker {tag} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _tally(ops: list[dict], res: dict | None, label: str) -> tuple[int, int]:
    """(attempted, failed) over a worker's passes; a crashed worker fails one pass."""
    if res is None:
        return len(ops), len(ops)
    attempted = failed = 0
    for p, one in enumerate(res["passes"]):
        attempted += len(one["ops"])
        for i, op in enumerate(one["ops"]):
            if op["error"] is not None:
                failed += 1
                print(f"{label} pass {p} op {i} failed: {op['error']}", file=sys.stderr)
    return attempted, failed


def _machine(versions: dict) -> dict:
    """nproc, CPU model, L2/L3 sizes and versions; unknown facts are None."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": None, "l2": None, "l3": None, **versions}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def measure(root: Path, ops: list[dict], seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run set-up samples and passes of ``ops``; return (result, run facts)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    grids = sorted({op["n"] for op in ops})
    work = root / ".perfbench_work" / f"{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setups, versions = [], {}
        for i in range(SETUP_SAMPLES):
            res = _spawn(root, work, f"setup{i}", [], grids, deadline)
            if res is None:
                raise SetupError("a set-up-only worker failed; is this a checkout with src/lpverify?")
            setups.append(res["setup_s"])
            versions = res["versions"]
        if trace:
            workers = [_spawn(root, work, tag, ops, grids, deadline, trace=traced)
                       for tag, traced in (("plain", False), ("traced", True))]
        else:
            budget = seconds - (time.monotonic() - start)
            workers = [_spawn(root, work, "run", ops, grids, deadline, budget_s=budget)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted = failed = 0
    for res, label in zip(workers, ("untraced", "traced") if trace else ("run",)):
        a, f = _tally(ops, res, label)
        attempted += a
        failed += f
    correct = failed == 0
    passes = [one for res in workers if res is not None for one in res["passes"]]
    facts = {"ops": len(ops), "passes": len(passes), "fail_ratio": failed / attempted,
             "machine": _machine(versions)}
    if trace:
        base, traced_res = workers
        if base is None or traced_res is None:
            return {"correct": False, "attempted": attempted, "failed": failed,
                    "metrics": dict.fromkeys(tracer.METRICS, 0.0)}, facts
        (base_pass,), (traced_pass,) = base["passes"], traced_res["passes"]
        same = [a["digest"] == b["digest"] for a, b in zip(base_pass["ops"], traced_pass["ops"])]
        if not all(same):
            correct = False
            print(f"traced outputs differ from untraced ones at ops {[i for i, s in enumerate(same) if not s]}",
                  file=sys.stderr)
        metrics = dict(traced_res["layers"])
        metrics["trace.overhead_ratio"] = traced_pass["wall_s"] / base_pass["wall_s"] - 1.0
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, facts

    (res,) = workers
    walls = [one["wall_s"] for one in passes]
    op_times = [op["seconds"] for one in passes for op in one["ops"]]
    elapsed = time.monotonic() - start
    metrics = {
        "wall_s": statistics.median(walls) if walls else elapsed,
        "op_p50_s": statistics.median(op_times) if op_times else elapsed,
        "setup_s": statistics.median(setups + ([res["setup_s"]] if res else [])),
        "peak_rss_mib": res["peak_rss_mib"] if res else 0.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    facts["op_samples"] = len(op_times)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, facts


def _unit(name: str) -> str:
    return (END_TO_END.get(name) or tracer.METRICS[name])[0]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd().resolve()
    if not (root / "src" / "lpverify" / "__init__.py").is_file():
        print(f"no src/lpverify under {root}; run from the root of an lpverify checkout", file=sys.stderr)
        return 2
    ops = workload_ops(args.workload, args.seed)
    try:
        result, facts = measure(root, ops, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **facts}))
    print(f"fail_ratio {facts['fail_ratio']:.6g} ratio ({result['failed']} of {result['attempted']})")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {_unit(name)}")
    result["metrics"] = {name: {"value": value, "unit": _unit(name)} for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
