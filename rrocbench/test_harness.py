"""Tests of the benchmark harness itself.

  python3 -m pytest -q rrocbench/test_harness.py
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import calib
import checks
import gen
import run
from spans import Recorder, Span, Totals, self_time

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span("report.run", 0.0, 10.0, thread=1)
    kids = [
        Span("a", 1.0, 4.0, thread=1, parent=parent),
        Span("b", 2.0, 6.0, thread=2, parent=parent),   # worker threads overlap
        Span("c", 5.0, 8.0, thread=3, parent=parent),
        Span("d", 9.0, 12.0, thread=2, parent=parent),  # clipped at the parent's end
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 7.0 - 1.0)


def test_totals_pool_overlap_and_run_self_time():
    run_span = Span("report.run", 0.0, 10.0, thread=1)
    spans = [run_span,
             Span("core.metrics", 2.0, 6.0, thread=2, parent=run_span),
             Span("core.metrics", 3.0, 8.0, thread=3, parent=run_span)]
    totals = Totals()
    totals.add(spans)
    m = totals.metrics(cases=1)
    assert m["report.run.s"] == pytest.approx(10.0 - 6.0)
    assert m["report.pool_overlap"] == pytest.approx(9.0 / 10.0)
    assert m["core.s"] == pytest.approx(9.0)


def test_worker_thread_spans_take_the_open_run_span_as_parent():
    rec = Recorder()
    outer = rec.open("cli.main")
    run_span = rec.open("report.run")
    seen = {}

    def worker():
        x = rec.open("core.metrics")
        y = rec.open("core.over_under")
        rec.close(y)
        rec.close(x)
        seen.update(x=x, y=y)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.close(run_span)
    rec.close(outer)
    assert run_span.parent is outer
    assert seen["x"].parent is run_span
    assert seen["y"].parent is seen["x"]
    assert seen["x"].thread != run_span.thread


def test_memory_peaks_keep_tracemalloc_running_across_spans():
    import tracemalloc

    rec = Recorder(memory=True)
    try:
        first = rec.open("report.to_json", tracks_memory=True)
        block = bytearray(4_000_000)
        del block
        rec.close(first)
        assert tracemalloc.is_tracing()
        second = rec.open("svg.render_svg", tracks_memory=True)
        rec.close(second)
        assert first.attrs["peak_bytes"] >= 4_000_000
        # The peak is reset when a span opens, so the first span's block is not counted.
        assert second.attrs["peak_bytes"] < 4_000_000
    finally:
        tracemalloc.stop()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000))) == {"percentile": 99.0, "value": 989, "samples": 1000, "beyond": 10}
    t = run.tail(list(range(999)))
    assert (t["percentile"], t["beyond"], t["samples"]) == (98.0, 19, 999)
    assert run.tail(list(range(20)))["percentile"] == 50.0
    assert run.tail(list(range(19))) is None


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.write_csv(str(tmp_path / "a.csv"), 7, 50, 3)
    b = gen.write_csv(str(tmp_path / "b.csv"), 7, 50, 3)
    c = gen.write_csv(str(tmp_path / "c.csv"), 8, 50, 3)
    assert a.sha256 == b.sha256 and a.bytes == b.bytes
    assert a.sha256 != c.sha256
    assert (a.rows, a.models) == (50, 3)
    assert gen.problems_digest(gen.library_problems(7, 5)) == gen.problems_digest(gen.library_problems(7, 5))
    assert gen.problems_digest(gen.library_problems(7, 5)) != gen.problems_digest(gen.library_problems(8, 5))


def _real_report(tmp_path, outputs):
    import rroc

    inp = gen.write_csv(str(tmp_path / "in.csv"), 3, 60, 3)
    report = rroc.run(rroc.RunConfig(input=inp.path, outputs=outputs, reproducible=True))
    return inp, json.loads(report.to_json())


def test_gate_passes_real_report_and_fails_doctored_aoc(tmp_path):
    outputs = ("points", "curves", "hull", "dominance", "cost")
    inp, report = _real_report(tmp_path, outputs)
    assert checks.check_report(report, inp.errors, list(outputs)) == []
    report["models"]["m1"]["aoc"] *= 1 + 1e-6
    fails = checks.check_report(report, inp.errors, list(outputs))
    assert len(fails) == 1 and "m1: aoc" in fails[0]


def test_gate_rejects_gaps_and_non_finite_tokens():
    assert checks.check_dominance([{"alpha_low": 0.0, "alpha_high": 0.4},
                                   {"alpha_low": 0.5, "alpha_high": 1.0}])
    with pytest.raises(ValueError):
        checks.load_strict_json(b'{"aoc": NaN}')
    assert checks.check_svg(b"<svg a='1'></svg><svg></svg>")


def test_doctored_report_counts_as_failed_invocation(tmp_path, monkeypatch):
    spec = run.CLI_WORKLOADS["analyze_cost"]
    inp, report = _real_report(tmp_path, spec.outputs)
    report["models"]["m0"]["aoc"] *= 1 + 1e-6

    def fake_spawn(cmd, work):
        (work / "report.json").write_text(json.dumps(report))
        return run.Proc(start=0.0, end=0.1, rss_mb=1.0, code=0, stderr="")

    monkeypatch.setattr(run, "spawn", fake_spawn)
    cli = run.CliRun(spec, inp, tmp_path)
    cli.invoke()
    assert cli.attempted == 1 and len(cli.failures) == 1


def test_install_wraps_every_namespace_binding_a_name():
    script = (
        "import rroc, rroc.analysis, rroc.report\n"
        "from spans import Recorder, install\n"
        "rec = Recorder()\n"
        "assert install(rec) == []\n"
        "assert rroc.analysis.convex_hull is rroc.report.convex_hull is rroc.convex_hull\n"
        "assert rroc.core.over_under is rroc.shift.over_under\n"
        "c = rroc.rroc_curve([0.5, -1.0, 2.0])\n"
        "rroc.dominance_map({'m': c})\n"
        "names = [(s.name, s.parent and s.parent.name) for s in rec.spans]\n"
        "assert ('analysis.convex_hull', 'analysis.dominance_map') in names, names\n"
        "assert ('curve.distinct_vertices', 'analysis.convex_hull') in names, names\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_library_case_gate_catches_a_wrong_hull_point():
    e = {"m0": np.array([0.3, -1.2, 2.0, 0.7])}
    verts = checks.curve_vertices(e["m0"])
    order = np.argsort(verts[:, 0])
    good = {"m0": {"aoc": checks.reference_aoc(e["m0"]), "opt_loss": 0.0},
            "hull": [tuple(v) for v in verts[order]]}
    assert checks.check_library_case(e, 0.5, good) == []
    bad = dict(good, hull=[(good["hull"][0][0], good["hull"][0][1] + 1e-3)])
    assert checks.check_library_case(e, 0.5, bad)


def test_calibration_uses_kernel_samples_near_the_interval():
    sampler = calib.Sampler()
    sampler._starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    sampler._times = [0.001, 0.002, 0.004, 0.004, 0.100]
    # Samples within MARGIN_S of [2.2, 2.8]: those at 2.0 and 3.0.
    assert sampler.scale(2.2, 2.8) == pytest.approx(calib.REF_UNIT_S / 0.004)
    with pytest.raises(RuntimeError):
        sampler.scale(5.0, 6.0)
