"""Command-line front end: dispatch problem files to solvers, emit reports.

Exit codes: 0 success, 1 solve failure, oracle mismatch or a report that
cannot be written (to stdout or to ``--output``), 2 usage error (unknown
flags, method, or subcommand/problem-type mismatch), 3 parse or validation
error. Every failure prints one machine-parseable line to stderr, unless
it was closed at start: "hmmdkit: error: <category>: <detail>".

Arguments are ``hmmdkit <subcommand> [flag ...]``. A flag is spelled out
in full and given at most once; it takes its value as ``--flag value`` or
``--flag=value``, except ``--oracle``, which takes none. A value may be
neither empty nor another flag. ``-h`` or ``--help`` anywhere prints help
instead of running.
"""

from __future__ import annotations

import atexit
import errno
import os
import sys
from importlib import import_module

from . import probio
from .core import GuardExceeded, InfeasibleError, OracleError, ValidationError, guard_limit
from .probio import ResultFile, ResultFormat, parse_problem, write_result

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from fractions import Fraction

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

#: subcommand -> (problem type, methods, default method, the methods that
#: take --weights); a run imports only the module that owns its problem
#: type (probio.OWNERS) and calls its report_<subcommand>
COMMANDS = {
    "rank": ("rank", ("utility", "pareto", "outranking", "ideal"), "utility", ()),
    "knapsack": ("knapsack", ("greedy", "exact"), "greedy", ("greedy", "exact")),
    "mckp": ("mckp", ("greedy", "exact"), "greedy", ("greedy", "exact")),
    "cluster": ("cluster", ("single", "complete", "average"), None, ()),
    "assign": ("assign", ("greedy", "exact", "pareto"), "greedy", ("greedy", "exact")),
    "tsp": ("tsp", ("nearest", "two_opt", "brute"), "two_opt", ()),
    "synth": ("morph", ("synthesis",), "synthesis", ()),
    "trajectory": ("trajectory", ("enumerate",), "enumerate", ()),
    "integrate": ("integrate", ("tables",), "tables", ()),
    "pipeline": ("pipeline", ("chain",), "chain", ("chain",)),
    "improve": ("improve", ("auto",), "auto", ("auto",)),
}

#: flag -> (value name, help); --oracle alone takes no value
FLAGS = {
    "--input": ("FILE", "problem file to solve (required)"),
    "--method": ("M", "one of the subcommand's methods"),
    "--format": ("json|text", "report format (default: text)"),
    "--output": ("FILE", "write the report here (default: stdout)"),
    "--weights": ("w1,w2,...", "one scalarization weight per criterion"),
    "--oracle": ("", "cross-check against the exact counterpart"),
}
HELP = ("-h", "--help")
FORMATS = ("json", "text")


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int) -> None:
        super().__init__(message)
        self.category = category
        self.code = code


def _usage(message: str) -> CliError:
    return CliError("usage", message, EXIT_USAGE)


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """(subcommand, {flag: value}) read from ``argv``. The flags are None
    when help is asked for; the subcommand is None for the general help."""
    if not argv or argv[0] not in COMMANDS:
        if argv and argv[0] in HELP:
            return None, None
        what = f"unknown subcommand {argv[0]!r}" if argv else "missing subcommand"
        raise _usage(f"{what} (choose from: {', '.join(COMMANDS)})")
    command, rest = argv[0], iter(argv[1:])
    if any(arg in HELP for arg in argv[1:]):
        return command, None
    opts: dict[str, str | bool] = {}
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in FLAGS:
            raise _usage(f"unknown argument {arg!r} for {command} (flags: {', '.join(FLAGS)})")
        if flag == "--oracle":
            if eq:
                raise _usage("--oracle takes no value")
            value = True
        elif not eq:
            value = next(rest, "")
            if value.partition("=")[0] in FLAGS:
                value = ""
        if not value:  # missing, empty, or another flag
            raise _usage(f"{flag} needs a value")
        if flag in opts:
            raise _usage(f"{flag} given twice")
        opts[flag] = value
    if "--input" not in opts:
        raise _usage(f"{command} needs --input FILE")
    if opts.get("--format", "text") not in FORMATS:
        raise _usage(f"unknown format {opts['--format']!r} (choose from: {', '.join(FORMATS)})")
    return command, opts


def _write(text: str, output: str | None):
    """Write ``text`` to the file ``output``, or to stdout when it is None,
    and flush it, so that a failed write is reported here."""
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # fd 1 was closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:  # the latter: stdout's encoding, ascii say, lacks a character
        raise CliError("output", f"cannot write {output or 'stdout'}: {getattr(exc, 'strerror', exc)}", EXIT_SOLVE)


def _parse_weights(raw: str | None) -> list[Fraction] | None:
    if raw is None:
        return None
    from .exact import as_frac  # only weights load exact numbers here

    try:
        return [as_frac(tok.strip()) for tok in raw.split(",")]
    except ValidationError as exc:
        raise _usage(f"bad --weights: {exc}")


def run_command(command: str, opts: dict) -> int:
    expected_type, methods, default, weighted = COMMANDS[command]
    method = opts.get("--method", default)
    if method is not None and method not in methods:
        raise _usage(
            f"unknown method {method!r} for {command} (choose from: {', '.join(methods)})"
        )
    weights = _parse_weights(opts.get("--weights"))
    if weights is not None and method not in weighted:
        raise _usage(f"--weights is not applicable to {f'the {method} method' if weighted else command}")
    path = opts["--input"]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("parse", f"cannot read {path}: {exc.strerror}", EXIT_PARSE)
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once, so start is its byte offset
        raise CliError("parse", f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})", EXIT_PARSE)
    try:
        pf = parse_problem(text)
    except probio.ParseError as exc:
        raise CliError("parse", str(exc), EXIT_PARSE)
    if pf.problem_type != expected_type:
        raise _usage(
            f"subcommand {command!r} expects a {expected_type!r} file, "
            f"got {pf.problem_type!r}"
        )
    if command == "cluster" and method is None:
        method = pf.payload.linkage.value
    report = getattr(import_module(f".{probio.OWNERS[expected_type]}", __package__), f"report_{command}")
    try:
        guard_limit(1)  # reject a bad HMMD_KIT_GUARD on every run, guarded or not
        solution, diagnostics = report(pf.payload, method, weights, "--oracle" in opts)
    except OracleError as exc:
        raise CliError("oracle", str(exc), EXIT_SOLVE)
    except (GuardExceeded, InfeasibleError) as exc:
        raise CliError("solve", str(exc), EXIT_SOLVE)
    except ValidationError as exc:
        raise CliError("parse", str(exc), EXIT_PARSE)
    result = ResultFile(
        spec_version=probio.SPEC_VERSION,
        problem_type=pf.problem_type,
        method=method,
        solution=solution,
        diagnostics=diagnostics,
    )
    fmt = ResultFormat.STRUCTURED if opts.get("--format") == "json" else ResultFormat.TEXT
    _write(write_result(result, fmt), opts.get("--output"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        command, opts = parse_args(sys.argv[1:] if argv is None else list(argv))
        if opts is None:
            from .help import help_text

            _write(help_text(command, COMMANDS, FLAGS), None)
            return EXIT_OK
        return run_command(command, opts)
    except CliError as exc:
        try:  # not print, which writes to stdout when sys.stderr is None
            sys.stderr.write(f"hmmdkit: error: {exc.category}: {exc}\n")
        except (AttributeError, OSError):  # None (fd 2 closed at start) or unwritable: keep the code
            pass
        return exc.code


def entry():
    """The process entry of ``hmmdkit``, ``python -m hmmdkit`` and ``python
    -m hmmdkit.cli``: exit with ``main()``'s code.

    ``main`` has written and flushed the report, or reported why it could
    not. The entry then flushes stderr, runs the registered ``atexit`` hooks
    and ends the process with ``os._exit``, which skips the interpreter's
    teardown: clearing every module and freeing a heap that the OS reclaims
    anyway. hmmdkit starts no thread, so skipping ``threading._shutdown``
    loses nothing. stdout is not flushed here: after a failed write its
    buffer still holds the report, and ``os._exit`` drops it. An exception
    out of ``main`` (a bug, ``KeyboardInterrupt``) takes the normal exit
    with its traceback.
    """
    code = main()
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # None (fd 2 closed at start) or unwritable: keep main's code
        pass
    atexit._run_exitfuncs()  # the only way to run every registered hook
    os._exit(code)


if __name__ == "__main__":
    entry()
