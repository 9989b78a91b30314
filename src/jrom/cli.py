"""Command line interface: report, romize, verify and inspect subcommands.

Exit codes are stable for CI use: 0 success, 1 per-class failures,
2 configuration or I/O errors.
"""

import argparse
import os
import re
import sys

from . import romizer as rz
from .errors import JromError
from .pipeline import Pipeline

EXIT_OK = 0
EXIT_CLASS_FAILURES = 1
EXIT_CONFIG = 2


def _add_common(p):
    p.add_argument("--classpath", action="append", default=[],
                   help="directory searched for .class files (repeatable, "
                        "or %s-separated)" % os.pathsep)
    p.add_argument("--no-introspection", action="store_true",
                   help="drop member name/descriptor text from linked pools")
    p.add_argument("--private-field-opt", action="store_true",
                   help="rewrite private field accesses to direct offsets")
    p.add_argument("--close-package", action="append", default=[],
                   metavar="PKG", help="treat a package as sealed (repeatable)")
    p.add_argument("--closed-world", action="store_true",
                   help="assume no class will ever be loaded dynamically")
    p.add_argument("--closure", action="store_true",
                   help="extend the target set with every referenced class")
    p.add_argument("targets", nargs="+", metavar="CLASS",
                   help="class binary names, e.g. corpus/Main")


def _classpath(args):
    paths = []
    for entry in args.classpath:
        paths.extend(p for p in entry.split(os.pathsep) if p)
    if not paths:
        raise SystemExit2("no --classpath given")
    for p in paths:
        if not os.path.isdir(p):
            raise SystemExit2("classpath entry is not a directory: %s" % p)
    return paths


class SystemExit2(Exception):
    pass


def _pipeline(args):
    return Pipeline(_classpath(args),
                    introspection=not args.no_introspection,
                    private_field_opt=args.private_field_opt,
                    closed_packages=set(args.close_package),
                    closed_world=args.closed_world)


def _prepare(args, closure):
    """Load, initialize and link; returns (pipeline, targets, failures)."""
    pipe = _pipeline(args)
    targets, failures = pipe.load_each(args.targets)
    if closure:
        failures.extend(pipe.load_closure())
        targets = pipe.registry.loadable()
    failures.extend(pipe.ready_all())
    failures.extend(pipe.link_all())
    return pipe, targets, failures


def _fail(failures):
    """Print each per-class failure to stderr; the exit code they give."""
    for name, err in failures:
        print("FAIL %s: %s" % (name, err), file=sys.stderr)
    return EXIT_CLASS_FAILURES


def cmd_report(args):
    pipe, targets, failures = _prepare(args, args.closure)
    report = pipe.build_report(targets, errors=failures)
    text = report.to_records() if args.report_format == "records" \
        else report.to_table()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _fail(failures) if failures else EXIT_OK


def cmd_romize(args):
    pipe, _, failures = _prepare(args, closure=True)
    if failures:
        return _fail(failures)
    if args.verify:
        outcome = pipe.verify_all(seed=args.seed)
        print("verified %d methods (%d skipped)"
              % (len(outcome.checked), len(outcome.skipped)))
        if not outcome.ok:
            for cls, meth, detail in outcome.failures:
                print("MISMATCH %s.%s: %s" % (cls, meth, detail),
                      file=sys.stderr)
            return EXIT_CLASS_FAILURES
    pipe.release_loaded()
    try:
        image = pipe.emit_image()
    except JromError as e:
        return _fail([(type(e).__name__, e)])
    with open(args.out, "wb") as fh:
        fh.write(image)
    report_path = args.out + ".report.txt"
    with open(report_path, "w") as fh:
        fh.write(pipe.build_report().to_table())
    if args.c_out:
        # a C identifier: ASCII letters, digits and _, not led by a digit
        symbol = re.sub(r"\W", "_", os.path.splitext(
            os.path.basename(args.out))[0], flags=re.ASCII) or "rom"
        if symbol[0].isdigit():
            symbol = "rom_" + symbol
        with open(args.c_out, "w") as fh:
            fh.write(rz.emit_c_array(image, symbol))
    print("image: %s (%d bytes), report: %s" % (args.out, len(image),
                                                report_path))
    return EXIT_OK


def cmd_verify(args):
    pipe, _, failures = _prepare(args, closure=True)
    if failures:
        return _fail(failures)
    if args.corrupt:
        cls_name, _, method = args.corrupt.rpartition(".")
        try:
            where = pipe.corrupt(cls_name, method)
        except JromError as e:
            raise SystemExit2(str(e))
        print("corrupted operand at %s" % where)
    trace = None
    if args.trace:
        trace = lambda line: print("  " + line)
    outcome = pipe.verify_all(seed=args.seed, trace=trace, only=args.method)
    if not outcome.checked and not outcome.failures:
        print("warning: 0 methods checked (%d skipped)" % len(outcome.skipped))
        return EXIT_OK
    print("checked %d methods, %d skipped, %d mismatches; %d runs per side, "
          "%d repeated vectors skipped"
          % (len(outcome.checked), len(outcome.skipped),
             len(outcome.failures), outcome.runs, outcome.repeats))
    for cls, meth, detail in outcome.failures:
        print("MISMATCH %s.%s: %s" % (cls, meth, detail), file=sys.stderr)
    return EXIT_CLASS_FAILURES if outcome.failures else EXIT_OK


def cmd_inspect(args):
    with open(args.image, "rb") as fh:
        sys.stdout.write(rz.inspect_image(fh.read()))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="jrom",
        description="Load, link, compact and romize Java class files.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="write per-stage footprint report")
    _add_common(p)
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--report-format", choices=("table", "records"),
                   default="table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("romize", help="emit a frozen binary image")
    _add_common(p)
    p.add_argument("--out", required=True, help="image output path")
    p.add_argument("--c-out", help="also render the image as a C array")
    p.add_argument("--verify", action="store_true",
                   help="run the differential interpreter before emitting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_romize)

    p = sub.add_parser("verify", help="differential-check the transformations")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", help="only check CLASS.METHOD")
    p.add_argument("--trace", action="store_true",
                   help="print one line per executed instruction")
    p.add_argument("--corrupt", metavar="CLASS.METHOD",
                   help="test hook: flip one operand byte after linking")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="print an image's header, the bytes"
                                       " of its parts and its pool entries"
                                       " per kind")
    p.add_argument("image", help="image path")
    p.set_defaults(func=cmd_inspect)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except JromError as e:   # last resort: every stage reports its own
        return _fail([(type(e).__name__, e)])
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
