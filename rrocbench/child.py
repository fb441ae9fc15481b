"""Child processes of the benchmark, one per measured process.

  child.py cli --out FILE [--memory] -- ARGS...
      Install the span wrappers, call ``rroc.cli.main(ARGS)`` in-process and
      write the per-layer sums to FILE. Exits with main's exit code.
  child.py lib --seed N --seconds S --trace 0|1 --out FILE
      The ``library_small`` loop: one caller solving a seeded stream of small
      problems with the library API, in whole passes over the stream, until
      S seconds of case time are spent. With --trace 1 one untraced pass runs
      first as the overhead baseline. Writes case times and failures to FILE.

Run by ``run.py``, which puts the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import checks
import gen
from spans import Recorder, Totals, install

# Problems in one pass of library_small; passes repeat the same problems so
# per-case counts are exact whatever the number of passes.
PASS_PROBLEMS = 100


def _cli(args) -> int:
    recorder = Recorder(memory=args.memory)
    missing = install(recorder)
    import rroc.cli

    code = rroc.cli.main(args.argv)
    totals = Totals()
    totals.add(recorder.spans)
    with open(args.out, "w") as fh:
        json.dump({"sums": totals.sums, "missing": missing}, fh)
    return code


def _solve(rroc, problem):
    """The library calls of one problem; returns what the checks need."""
    results, curves = {}, {}
    for m, predicted in problem.predicted.items():
        e = rroc.error_vector(predicted, problem.actual)
        rroc.metrics(e)
        curve = rroc.rroc_curve(e, model_id=m)
        area = rroc.aoc(curve)
        rroc.normalized_curve(curve)
        _, loss = rroc.optimal_constant_shift(e, problem.alpha)
        rroc.cost_curve(e, rroc.OptimalConstantShift())
        curves[m] = curve
        results[m] = {"aoc": area, "opt_loss": loss}
    hull = rroc.convex_hull(curves)
    rroc.dominance_map(curves)
    return results, hull


def _pass(rroc, problems, times, failures, recorder=None, totals=None) -> None:
    """Solve every problem once; ``times`` gets (start, CPU seconds) per case.

    A case is timed by this thread's CPU time, its wall time when nothing
    preempts it: the calibration sampler and other processes share the
    CPUs, and their preemptions would add noise of the size of a case.
    """
    for i, problem in enumerate(problems):
        t0, cpu0 = time.perf_counter(), time.thread_time()
        try:
            results, hull = _solve(rroc, problem)
        except Exception as exc:  # a failed case is counted, the loop goes on
            times.append((t0, time.thread_time() - cpu0))
            failures.append(f"problem {i}: {type(exc).__name__}: {exc}")
            continue
        times.append((t0, time.thread_time() - cpu0))
        results["hull"] = [(hp.point.over, hp.point.under) for hp in hull.finite_points]
        errors = {m: p - problem.actual for m, p in problem.predicted.items()}
        msgs = checks.check_library_case(errors, problem.alpha, results)
        if msgs:
            failures.append(f"problem {i}: " + "; ".join(msgs))
    if recorder is not None:
        totals.add(recorder.spans)
        recorder.spans.clear()


def _lib(args) -> int:
    import rroc

    problems = gen.library_problems(args.seed, PASS_PROBLEMS)
    out = {"inputs": {"problems": len(problems), "sha256": gen.problems_digest(problems),
                      "rows": sum(p.actual.size for p in problems)}}
    times, failures = [], []
    recorder = totals = None
    if args.trace:
        _pass(rroc, problems, out.setdefault("untraced_times", []), failures)
        recorder, totals = Recorder(), Totals()
        out["missing"] = install(recorder)
    while not times or sum(t for _, t in times) < args.seconds:
        _pass(rroc, problems, times, failures, recorder, totals)
    out.update(times=times, failures=failures)
    if totals is not None:
        out["sums"] = totals.sums
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--out", required=True)
    cli.add_argument("--memory", action="store_true")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    lib = sub.add_parser("lib")
    lib.add_argument("--seed", type=int, required=True)
    lib.add_argument("--seconds", type=float, required=True)
    lib.add_argument("--trace", type=int, choices=(0, 1), default=0)
    lib.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _cli(args)
    return _lib(args)


if __name__ == "__main__":
    sys.exit(main())
