"""Command-line front end.

Subcommands: solve (compute a cap spectrum), bounds (evaluate every bound
on a stored spectrum), verify (run a verification campaign from a config
file), compare (sweep the one-parameter bound family against the
parameter-free one), convergence (the solver's basis-ladder table).

Exit codes: 0 all checks pass, 2 at least one inequality violated beyond
tolerance, 3 solver non-convergence, 4 invalid input or configuration.
`bounds` without --lambda-next prints its checks and exits 0: its default
candidate is the computed upper bound, not an eigenvalue, so a failed
check there is no counterexample.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import ExitStack
from typing import IO, Sequence

from .bounds import (
    CheckRecord,
    build_report,
    default_delta_grid,
    dominance_gap,
    report_to_json,
)
from .errors import InvalidInput, NoConvergence, SphereBuckleError
from .harness import (
    CampaignConfig,
    report_to_csv,
    report_to_json as campaign_to_json,
    run_campaign,
)
from .spectrum import CapDomain, _csv, load_spectrum, spectrum_to_json
from .solver import convergence_table, solve_cap

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_NOCONVERGENCE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the invalid-input code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherebuckle",
        description="Clamped-buckling eigenvalues of geodesic caps and "
        "verification of their universal inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the lowest k eigenvalues of a cap")
    p.add_argument("--n", type=int, required=True, help="ambient sphere dimension")
    p.add_argument("--theta0", type=float, required=True, help="cap aperture in radians")
    p.add_argument("--k", type=int, required=True, help="number of eigenvalues")
    p.add_argument("--out", help="write the spectrum here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dump-m", type=int, help="azimuthal index of a profile to dump")
    p.add_argument(
        "--dump-index",
        type=int,
        help="index within that mode (0 = lowest) of the profile to dump",
    )
    p.add_argument("--dump-file", help="CSV destination for the dumped profile")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bounds", help="evaluate every bound on a stored spectrum")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--k", type=int, required=True, help="truncation depth")
    p.add_argument(
        "--lambda-next",
        type=float,
        help="candidate next eigenvalue; only a supplied candidate can exit 2 "
        "(default: the computed upper bound)",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--config", required=True, help="campaign config JSON file")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="report destination (overrides the config)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "compare",
        help="delta sweep of the one-parameter bound family against the "
        "parameter-free bound",
    )
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--k", type=int, required=True, help="truncation depth")
    p.add_argument("--lambda-next", type=float, required=True)
    p.add_argument("--delta-min", type=float, default=1e-2)
    p.add_argument("--delta-max", type=float, default=1e2)
    p.add_argument("--delta-points", type=int, default=50)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser(
        "convergence",
        help="top-k values and their relative change at each basis-ladder step",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(handler=_cmd_convergence)

    return parser


def _open_all(paths: list[str]) -> list[IO[str]]:
    """Open every path for writing, or none of them.

    Files open for appending, so an open truncates nothing. Two paths that
    reach one regular file (by name, `./`, a link) are refused, by the
    (device, inode) of the opened handles: the second write would truncate
    the first. If a path cannot be opened or repeats a file, the others
    are closed, the files this call created are removed, and the error
    exits 4.
    """
    opened: list[tuple[IO[str], str, bool]] = []
    seen: dict[tuple[int, int], str] = {}
    try:
        for path in paths:
            created = not os.path.exists(path)
            try:
                opened.append((open(path, "a", encoding="utf-8"), path, created))
            except OSError as exc:
                raise InvalidInput(f"cannot write {path!r}: {exc}") from exc
            st = os.fstat(opened[-1][0].fileno())
            key = (st.st_dev, st.st_ino)
            if stat.S_ISREG(st.st_mode) and key in seen:
                raise InvalidInput(f"{seen[key]!r} and {path!r} are one file")
            seen[key] = path
    except InvalidInput:
        for fh, done, new in opened:
            fh.close()
            if new:
                os.remove(os.path.realpath(done))  # what a dangling link created
        raise
    return [fh for fh, _, _ in opened]


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path), to stdout where path is None, each ending in a newline.

    Every file is opened before any text is written (`_open_all`), and
    "wrote <path>" is printed for each once all are written. A text is
    written as it is, not copied to append its newline: a campaign report
    runs to megabytes.
    """
    paths = [path for _, path in outputs if path is not None]
    with ExitStack() as stack:
        files = iter([stack.enter_context(fh) for fh in _open_all(paths)])
        for text, path in outputs:
            end = "" if text.endswith("\n") else "\n"
            if path is None:
                sys.stdout.write(text)
                sys.stdout.write(end)
                continue
            fh = next(files)
            try:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(text)
                fh.write(end)
                fh.flush()
            except OSError as exc:
                raise InvalidInput(f"cannot write {path!r}: {exc}") from exc
    for path in paths:
        print(f"wrote {path}")


def _cmd_solve(args: argparse.Namespace) -> int:
    dump_flags = (args.dump_m, args.dump_index, args.dump_file)
    if any(v is not None for v in dump_flags) and None in dump_flags:
        raise InvalidInput(
            "--dump-m, --dump-index and --dump-file must be given together"
        )
    domain = CapDomain(args.n, args.theta0)
    spectrum, pairs = solve_cap(domain, args.k)
    if args.format == "json":
        outputs = [(spectrum_to_json(spectrum, domain), args.out)]
    else:
        outputs = [(_csv(("index", "lambda"), enumerate(spectrum.values, 1)), args.out)]
    if args.dump_file is not None:
        mode_pairs = [p for p in pairs if p.m == args.dump_m]
        if not 0 <= args.dump_index < len(mode_pairs):
            raise InvalidInput(
                f"no computed pair with m={args.dump_m}, index={args.dump_index} "
                f"(mode has {len(mode_pairs)} computed pairs)"
            )
        pair = mode_pairs[args.dump_index]
        outputs.append((_csv(("theta", "f"), zip(pair.theta, pair.profile)), args.dump_file))
    _write(*outputs)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    spectrum, domain = load_spectrum(args.spectrum)
    theta0 = None if domain is None else domain.theta0
    report = build_report(
        spectrum, args.k, lambda_next=args.lambda_next, theta0=theta0
    )
    _write((report_to_json(report), None))
    if args.lambda_next is not None and any(not c.holds for c in report.checks):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = CampaignConfig.from_file(args.config)
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be >= 1, got {args.jobs}")
    report = run_campaign(cfg, jobs=args.jobs)
    text = (
        report_to_csv(report)
        if cfg.output_format == "csv"
        else campaign_to_json(report)
    )
    _write((text, args.out if args.out is not None else cfg.output_path))
    s = report.summary
    print(
        f"cases={s['cases']} checks={s['total_checks']} "
        f"failures={s['failures']} inconclusive={s['inconclusive']} "
        f"case_errors={s['case_errors']}",
        file=sys.stderr,
    )
    if s["failures"] > 0:
        return EXIT_VIOLATION
    if s["case_errors"] > 0:
        return EXIT_NOCONVERGENCE
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    spectrum, _domain = load_spectrum(args.spectrum)
    grid = default_delta_grid(args.delta_min, args.delta_max, args.delta_points)
    rows = dominance_gap(spectrum, args.k, args.lambda_next, grid)
    _write((_csv(("delta", "family_rhs", "dominant_rhs", "gap"), rows), None))
    holds = all(CheckRecord.make("dominance", new, wx).holds for _, wx, new, _ in rows)
    return EXIT_OK if holds else EXIT_VIOLATION


def _cmd_convergence(args: argparse.Namespace) -> int:
    domain = CapDomain(args.n, args.theta0)
    rows = convergence_table(domain, args.k, levels=args.levels)
    ks = range(1, args.k + 1)
    head = ["P", *(f"lambda_{i}" for i in ks), *(f"change_{i}" for i in ks)]
    cells = (
        [P, *values, *(None if c is None else f"{c:.3e}" for c in changes)]
        for P, values, changes in rows
    )
    _write((_csv(head, cells), None))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGENCE
    except SphereBuckleError as exc:
        # Remaining domain errors mean the requested computation does not
        # exist for the supplied data, which is an input problem.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
