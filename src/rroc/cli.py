"""Command-line interface: `rroc analyze` and `rroc synth`.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import methodcaller
from typing import Optional, Sequence

from .data import _write_all, write_predictions
from .errors import ConfigError, DataError, RrocError
from .report import DEFAULT_OUTPUTS, OUTPUT_KINDS, RunConfig, run
from .svg import render_svg
from .synth import MODEL_KINDS, generate_synthetic, parse_distribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rroc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate models from a predictions CSV")
    analyze.add_argument("--input", required=True, help="CSV with actual and predicted[:<id>] columns")
    analyze.add_argument("--alpha", default="", help="comma-separated asymmetries to query, e.g. 0.5,0.8")
    analyze.add_argument("--normalize", action="store_true", help="divide RROC axes by n")
    analyze.add_argument(
        "--outputs",
        default=",".join(DEFAULT_OUTPUTS),
        help=f"comma-separated subset of: {','.join(OUTPUT_KINDS)}",
    )
    analyze.add_argument("--svg", default=None, help="write plots to this SVG file")
    analyze.add_argument("--json", default=None, help="write the report to this JSON file")
    analyze.add_argument(
        "--reproducible", action="store_true", help="omit the timestamp for byte-identical reports"
    )

    synth = sub.add_parser("synth", help="generate a synthetic predictions CSV")
    synth.add_argument("--dist", default="normal:0,0.01", help="distribution spec, e.g. normal:0,0.01")
    synth.add_argument("--n", type=int, required=True, help="number of examples")
    synth.add_argument("--model", default="constant-mean", help=f"one of: {', '.join(MODEL_KINDS)}")
    synth.add_argument("--seed", type=int, required=True, help="RNG seed")
    synth.add_argument("--out", required=True, help="output CSV path")
    return parser


def _parse_alphas(raw: str):
    alphas = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            alphas.append(float(part))
        except ValueError:
            raise ConfigError(f"unparseable alpha {part!r}") from None
    return alphas


def _cmd_analyze(args) -> int:
    config = RunConfig(
        input=args.input,
        alphas=_parse_alphas(args.alpha),
        outputs=[o.strip() for o in args.outputs.split(",") if o.strip()],
        normalize=args.normalize,
        reproducible=args.reproducible,
    )
    _check_targets([path for path in (args.json, args.svg) if path], args.input)
    report = run(config)
    # Render everything before writing anything: a failed stage must not
    # leave partial output files behind.
    payloads = []
    if args.json:
        payloads.append((args.json, methodcaller("write", report.to_json())))
    if args.svg:
        payloads.append((args.svg, methodcaller("write", render_svg(report))))
    _write_all(payloads)
    if not payloads:
        sys.stdout.write(report.to_json())
    return EXIT_OK


def _check_targets(paths, source) -> None:
    """Reject targets that could not all be written (one file twice, or a
    directory) and a target that would replace the input file ``source``."""
    real = [os.path.realpath(path) for path in paths]
    if len(set(real)) < len(paths):
        raise ConfigError(f"--json and --svg name the same file {paths[0]!r}")
    source = os.path.realpath(source)
    if source in real:
        raise ConfigError(f"output target {paths[real.index(source)]!r} is the input file")
    for path in paths:
        if os.path.isdir(path):
            raise DataError(f"{path}: output target is a directory")


def _cmd_synth(args) -> int:
    mu, sigma = parse_distribution(args.dist)
    dataset = generate_synthetic(mu, sigma, args.n, args.model, args.seed)
    write_predictions(dataset, args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_synth(args)
    except ConfigError as exc:
        print(f"rroc: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"rroc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("rroc: data error: out of memory; the input or --n is too large for this machine",
              file=sys.stderr)
        return EXIT_DATA
    except (RrocError, AssertionError, ArithmeticError) as exc:
        print(f"rroc: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
