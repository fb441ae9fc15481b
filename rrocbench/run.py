"""Benchmark of rroc: seeded workloads, end-to-end metrics and a traced run.

  python3 rrocbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is analyze_curves, analyze_cost, library_small, or ``all`` for every
workload in turn. Run from the root of a checkout: rroc is imported from its
``src`` directory. With --trace 0 the last stdout line is the JSON result
with the end-to-end metrics; with --trace 1 it carries the per-layer metrics
from a run with timing wrappers installed (see spans.py). The line before it
is a JSON detail record: inputs with their sha256, failures, latency tail,
output sizes and tracing overhead. A human summary goes to stderr.

Every measured program runs in its own process: ``python -m rroc.cli
analyze`` for the CLI workloads, ``child.py`` for the traced CLI runs and for
library_small. Peak RSS is that process's, read with ``os.wait4``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import List, Optional, Tuple

import calib
import checks
import gen
from spans import Totals, unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

# Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_IMPORTS = 7
# A single measured process is killed after this long and counts as failed.
CASE_TIMEOUT_S = 120.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MB = 1e6


@dataclass(frozen=True)
class CliWorkload:
    rows: int
    models: int
    outputs: Tuple[str, ...]
    args: Tuple[str, ...]
    svg: bool


CLI_WORKLOADS = {
    # Curve-heavy path: per-vertex objects, two hull builds, 19 MB of JSON, SVG.
    "analyze_curves": CliWorkload(20_000, 3, ("points", "curves", "hull", "dominance"), (), True),
    # Cost curves, densities and the thread pool; hull over points only.
    "analyze_cost": CliWorkload(
        10_000, 10, ("points", "hull", "dominance", "cost", "density"),
        ("--outputs", "points,hull,dominance,cost,density", "--alpha", "0.1,0.5,0.9"), False),
}
WORKLOADS = (*CLI_WORKLOADS, "library_small")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Fatal(Exception):
    """The benchmark cannot measure: no result is printed."""


def tail(samples: List[float]) -> Optional[dict]:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it.

    Nearest-rank percentile: with n samples, p is the ceil(p*n/100)-th
    smallest and n - ceil(p*n/100) samples lie beyond it. None when fewer
    than 20 samples leave no percentile with ten beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n, "beyond": n - rank}
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    start: float
    end: float
    rss_mb: float
    code: int
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(cmd: List[str], work: Path) -> Proc:
    """Run one process; wall time from spawn to exit and its peak RSS."""
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(t0, t1, usage.ru_maxrss * 1024 / MB, proc.returncode, err_path.read_text(errors="replace"))


def measure_setup(module: str, work: Path) -> List[Proc]:
    """Cold imports of ``module`` in fresh interpreters.

    A warm-up import first writes the bytecode cache, which users pay once
    per install, and checks that rroc comes from this checkout.
    """
    root_pkg = module.split(".")[0]
    probe = subprocess.run(
        [sys.executable, "-c", f"import {module}, {root_pkg}; print({root_pkg}.__file__)"],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=CASE_TIMEOUT_S)
    if probe.returncode != 0 or not probe.stdout.strip().startswith(str(SRC)):
        raise Fatal(f"cannot import {module} from {SRC}: {probe.stderr.strip()[-300:]}")
    procs = []
    for _ in range(SETUP_IMPORTS):
        p = spawn([sys.executable, "-c", f"import {module}"], work)
        if p.code != 0 or p.stderr:
            raise Fatal(f"import {module} failed: {p.stderr.strip()[-300:]}")
        procs.append(p)
    return procs


class CliRun:
    """Invocations of one CLI workload on one input, with their output checks."""

    def __init__(self, spec: CliWorkload, inp: gen.CsvInput, work: Path):
        self.spec = spec
        self.inp = inp
        self.work = work
        self.argv = ["analyze", "--input", inp.path, "--reproducible",
                     "--json", str(work / "report.json"), *spec.args]
        self.outputs = [work / "report.json"]
        if spec.svg:
            self.argv += ["--svg", str(work / "plots.svg")]
            self.outputs.append(work / "plots.svg")
        self.first_hashes: Optional[List[str]] = None
        self.attempted = 0
        self.failures: List[str] = []
        self.output_bytes = 0

    def invoke(self, traced: bool = False, memory: bool = False) -> Tuple[Proc, Optional[dict]]:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        sums_path = self.work / "sums.json"
        sums_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(CHILD), "cli", "--out", str(sums_path),
                   *(["--memory"] if memory else []), "--", *self.argv]
        else:
            cmd = [sys.executable, "-m", "rroc.cli", *self.argv]
        proc = spawn(cmd, self.work)
        self.attempted += 1
        fails = [f"exit code {proc.code}"] if proc.code != 0 else []
        if proc.stderr:
            fails.append(f"stderr: {proc.stderr.strip()[-300:]}")
        fails += self._check_outputs()
        if fails:
            self.failures.append(f"invocation {self.attempted}: " + "; ".join(fails))
        sums = json.loads(sums_path.read_text()) if traced and sums_path.exists() else None
        return proc, sums

    def _check_outputs(self) -> List[str]:
        if not all(p.exists() for p in self.outputs):
            return ["missing output file"]
        blobs = [p.read_bytes() for p in self.outputs]
        self.output_bytes = sum(len(b) for b in blobs)
        hashes = [hashlib.sha256(b).hexdigest() for b in blobs]
        if self.first_hashes is not None and hashes == self.first_hashes:
            return []  # byte-identical to an output that passed every check
        fails = []
        if self.first_hashes is not None:
            fails.append("--reproducible output differs from the first invocation")
        try:
            report = checks.load_strict_json(blobs[0])
            fails += checks.check_report(report, self.inp.errors, list(self.spec.outputs))
        except (ValueError, KeyError, TypeError) as exc:
            fails.append(f"report unreadable: {type(exc).__name__}: {exc}")
        if self.spec.svg:
            fails += checks.check_svg(blobs[1])
        if self.first_hashes is None and not fails:
            self.first_hashes = hashes
        return fails


def run_cli(name: str, seed: int, seconds: float, trace: bool, work: Path, sampler: calib.Sampler) -> dict:
    spec = CLI_WORKLOADS[name]
    setup = measure_setup("rroc.cli", work)
    inp = gen.write_csv(str(work / "input.csv"), seed, spec.rows, spec.models)
    run = CliRun(spec, inp, work)
    detail = {"inputs": {"input.csv": inp.describe()}}

    def ref(procs: List[Proc]) -> List[float]:
        return [p.wall * sampler.scale(p.start, p.end) for p in procs]

    if not trace:
        procs: List[Proc] = []
        while not procs or sum(p.wall for p in procs) < seconds:
            procs.append(run.invoke()[0])
        walls = ref(procs)
        metrics = {
            "setup_s": median(ref(setup)),
            "wall_s": median(walls),
            "cases_per_s": len(walls) / sum(walls),
            # Which density matrices the pool holds at once varies per
            # invocation, so the mean is steadier than any one peak.
            "peak_rss_mb": mean(p.rss_mb for p in procs),
        }
        detail.update(tail=tail(walls), walls=walls, raw_walls=[p.wall for p in procs],
                      rss_mb=[p.rss_mb for p in procs])
    else:
        # tracemalloc slows the spans it watches, so peaks come from their own
        # invocation and times from invocations without it.
        _, memory_sums = run.invoke(traced=True, memory=True)
        plain, traced, totals = [], [], Totals()
        while not traced or sum(p.wall for p in plain + traced) < seconds:
            plain.append(run.invoke()[0])
            proc, sums = run.invoke(traced=True)
            traced.append(proc)
            if sums is not None:
                totals.merge(sums["sums"])
                detail["missing_wrappers"] = sums["missing"]
        metrics = totals.metrics(len(traced))
        if memory_sums is not None:
            peaks = Totals(memory_sums["sums"])
            metrics.update((k, v) for k, v in peaks.metrics(1).items() if k.endswith(".peak_mb"))
            detail["upper_bounds"] = peaks.upper_bounds()
        metrics["trace.overhead_s"] = median(ref(traced)) - median(ref(plain))
    detail["output_mb"] = run.output_bytes / MB
    return finish(name, seed, trace, metrics, run.attempted, run.failures, detail)


def run_library(seed: int, seconds: float, trace: bool, work: Path, sampler: calib.Sampler) -> dict:
    setup = measure_setup("rroc", work)
    out_path = work / "lib.json"
    proc = spawn([sys.executable, str(CHILD), "lib", "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(int(trace)), "--out", str(out_path)], work)
    if proc.code != 0 or proc.stderr or not out_path.exists():
        raise Fatal(f"library_small loop failed (exit {proc.code}): {proc.stderr.strip()[-500:]}")
    out = json.loads(out_path.read_text())

    def ref(cases) -> List[float]:
        return [t * sampler.scale(start, start + t) for start, t in cases]

    times = ref(out["times"])
    attempted = len(times) + len(out.get("untraced_times", []))
    detail = {"inputs": {"problems": out["inputs"]}}
    if not trace:
        metrics = {
            "setup_s": median(p.wall * sampler.scale(p.start, p.end) for p in setup),
            "wall_s": median(times),
            "cases_per_s": len(times) / sum(times),
            "peak_rss_mb": proc.rss_mb,
        }
        slow = tail(times)
        detail.update(case_ms_p50=median(times) * 1e3,
                      tail=slow and dict(slow, value=slow["value"] * 1e3, unit="ms"),
                      raw_cases_per_s=len(times) / sum(raw for _, raw in out["times"]))
    else:
        metrics = Totals(out["sums"]).metrics(len(times))
        metrics["trace.overhead_s"] = median(times) - median(ref(out["untraced_times"]))
        detail["missing_wrappers"] = out["missing"]
    return finish("library_small", seed, trace, metrics, attempted, out["failures"], detail)


def finish(name, seed, trace, values, attempted, failures, detail) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    detail.update(workload=name, seed=seed, trace=int(trace), attempted=attempted,
                  failed=len(failures), failed_ratio=len(failures) / attempted,
                  failures=failures[:10])
    return {"detail": detail,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with calib.Sampler() as sampler:
            if name in CLI_WORKLOADS:
                return run_cli(name, seed, seconds, trace, work, sampler)
            return run_library(seed, seconds, trace, work, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def summarize(out: dict) -> str:
    d, r = out["detail"], out["result"]
    lines = [f"{d['workload']} seed={d['seed']} trace={d['trace']}: "
             f"{r['attempted']} attempted, {r['failed']} failed (failed_ratio {d['failed_ratio']:.3g})"]
    for k, m in r["metrics"].items():
        lines.append(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    if d.get("tail"):
        t = d["tail"]
        lines.append(f"  tail p{t['percentile']:g} {t['value']:.6g} ({t['samples']} samples, {t['beyond']} beyond)")
    for msg in d["failures"]:
        lines.append(f"  FAIL {msg}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except Fatal as exc:
        print(f"rrocbench: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        print(summarize(out), file=sys.stderr)
        print(json.dumps({"detail": out["detail"]}))
    if len(outs) == 1:
        result = outs[0]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outs),
            "attempted": sum(o["result"]["attempted"] for o in outs),
            "failed": sum(o["result"]["failed"] for o in outs),
            "metrics": {f"{o['detail']['workload']}.{k}": m
                        for o in outs for k, m in o["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
