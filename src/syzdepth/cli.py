"""Command line surface: resolve, initial, sdepth, partition, verify.

Exit codes: 0 success / all checks pass, 1 a certified check found a
disagreement, 2 bad input or configuration (such as a malformed ideal
file, an output file that cannot be written, a stdout whose reader closed
it early, as `| head -c 20` does, sdepth's --quotient outside
--mode exact or --p outside --mode filtration-bound, verify bounds below
their minimum, an exact search refused at its point limit or node
budget, or a squarefree certificate refused at its up-set limit), 3
internal error (a RuntimeError raised inside the library, such
as a failed minimization, a failed lift or a Stanley-depth certificate that
does not validate, or a MemoryError or RecursionError when a computation
outgrows the process), 143 (128 + SIGTERM) the program was sent SIGTERM, as
`timeout` and `kill` do, and stopped after cutting its output file.

Outputs are written as they are made, by write_output in chunks and by
verify one report line at a time, so a write can fail midway; it then
prints one "error: ..." line and exits 2.  An --output file is written in
place and cut at the end of what was written (see _output).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import signal
import stat
import sys
import warnings
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import blocks, monomials
from .complexes import RESOLUTIONS, check_exactness_on_box, minimize, syzygy_rows, taylor_complex
from .groebner import _hilbert_slice_check
from .monomials import Mono, MonomialIdeal
from .stanley import SearchRefused, char_poset_under_limit, exact_sdepth, filtration_lower_bound
from .syzygy import boundary_leading_terms, lex_refined_initial, verify_boundary_gb
from .verify import THEOREMS, VerifyJob, run_verify_job


class InputError(Exception):
    pass


def load_ideal(path: str) -> tuple[MonomialIdeal, tuple[Mono, ...]]:
    """The ideal of the JSON file at path, and its minimal generators in the
    order in which they first occur in the file.  A file that cannot be read
    or does not describe an ideal raises InputError.  This is the one check
    of the generators, monomials.EXPONENT_CAP included, so the ideal is
    made unchecked."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON, UTF-8 or nesting depth
        raise InputError(f"cannot read ideal file {path}: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "generators" not in data:
        raise InputError("ideal file must be an object with keys 'n' and 'generators'")
    n = data["n"]
    gens = data["generators"]
    # type(...) is int: JSON true and false load as bools, a subclass of int.
    if type(n) is not int or n < 1:
        raise InputError("'n' must be a positive integer")
    if not isinstance(gens, list) or not gens:
        raise InputError("'generators' must be a nonempty list")
    for g in gens:
        if (not isinstance(g, list) or len(g) != n
                or not all(type(e) is int and e >= 0 for e in g)):
            raise InputError(f"generator {g!r} is not a length-{n} vector of "
                             "nonnegative integers")
        if not any(g):
            raise InputError("the zero exponent vector is not a valid generator")
    gens = [tuple(g) for g in gens]
    for g in gens:  # the signs are checked above: only the cap is left
        if max(g) >= monomials.EXPONENT_CAP:
            raise InputError(f"exponent overflow in {g}")
    I = MonomialIdeal._made(n, gens)
    # The minimal generators in first-occurrence order of the file.
    minimal = set(I.gens)
    return I, tuple(dict.fromkeys(g for g in gens if g in minimal))


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for JSON
    values with string keys.

    With indent set, the json module falls back to its pure-Python encoder;
    this one joins lists of plain ints in one call.  indent is the newline
    and indentation in front of the value's closing bracket.
    """
    if isinstance(value, (list, tuple)):
        if all(type(x) is int for x in value):  # bool is a subclass of int, not int
            return _json_ints(value, indent)
        return _json_list([_dumps(x, indent + "  ") for x in value], indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = ("," + inner).join([encode_basestring_ascii(key) + ": " + _dumps(value[key], inner)
                                   for key in sorted(value)])
        return "{" + inner + body + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(texts, indent: str) -> str:
    """The JSON list of the item texts, an iterable of nonempty strings, its
    closing bracket behind indent."""
    inner = indent + "  "
    body = ("," + inner).join(texts)
    return "[" + inner + body + indent + "]" if body else "[]"


def _json_ints(values, indent: str) -> str:
    return _json_list(map(int.__repr__, values), indent)


def _object_chunks(fields: dict) -> Iterator[str]:
    """Yield the chunks of _dumps(fields), for a nonempty dict whose values
    are JSON values or iterators: an iterator is read as the chunks of its
    value's text, at the indentation of a field, and streamed."""
    opener = "{" + _INDENT
    for key in sorted(fields):
        value = fields[key]
        yield opener + encode_basestring_ascii(key) + ": "
        if isinstance(value, Iterator):
            yield from value
        else:
            yield _dumps(value, _INDENT)
        opener = "," + _INDENT
    yield "\n}"


def complex_json(C) -> Iterator[str]:
    """Yield the chunks of the complex's JSON text: its ranks, basis degrees
    and, per differential, a rows x columns matrix whose cell in row r and
    column c lists the one term of that entry, if any, as
    {"coeff": str(c), "monomial": deg e_c - deg e_r}.

    The chunks joined are _dumps of that value at _INDENT, one level inside
    resolve's payload, byte for byte.  The first chunk holds the degrees,
    each differential's matrix is one chunk, made when it is read, and the
    last holds n and the ranks.  Each matrix is written from the rows of
    syzygy_rows and the basis degrees; each distinct (coeff, monomial) cell
    is written once, and every empty cell is the constant "[]".
    """
    pad = [_INDENT + "  " * k for k in range(8)]  # pad[k]: k levels inside
    degrees = [_json_list([_json_ints(e.degree, pad[3]) for e in basis], pad[2])
               for basis in C.bases]
    yield f'{{{pad[1]}"degrees": {_json_list(degrees, pad[1])},{pad[1]}"differentials": '
    cells = {}  # (coeff, monomial) -> the text of a cell with that one term
    for p in range(1, C.length + 1):
        # The matrices form a list one level inside the object.
        yield (("[" if p == 1 else ",") + pad[2]
               + _matrix_json(*syzygy_rows(C, p - 1), C.basis(p - 1).degrees, pad, cells))
    yield (f'{pad[1] + "]" if C.length else "[]"},'
           f'{pad[1]}"n": {int.__repr__(C.n)},'
           f'{pad[1]}"ranks": {_json_ints(C.ranks, pad[1])}{pad[0]}}}')


def _matrix_json(rows, degrees, target, pad, cells: dict) -> str:
    """The JSON text of the matrix of the rows, at their degrees, into the
    basis of degrees target, two levels inside complex_json's object; cells
    caches the text of each one-term cell."""
    grid = [["[]"] * len(rows) for _ in target]
    for c, (row, degree) in enumerate(zip(rows, degrees)):
        for r, coeff in row.items():
            mono = tuple(map(operator.sub, degree, target[r]))
            text = cells.get((coeff, mono))
            if text is None:
                # The str of a Fraction or int needs no JSON escapes.
                text = cells[coeff, mono] = (
                    f'[{pad[5]}{{{pad[6]}"coeff": "{str(coeff)}",{pad[6]}"monomial": '
                    f'{_json_ints(mono, pad[6])}{pad[5]}}}{pad[4]}]')
            grid[r][c] = text
    return _json_list([_json_list(row, pad[3]) for row in grid], pad[2])


@contextlib.contextmanager
def _output(path):
    """The output stream: the file at path, written in place and cut at the
    end, or stdout, flushed at the end.  An OSError raised while opening,
    writing or closing it becomes an InputError (exit 2).

    The file is opened without truncation (created with the mode that
    open(path, "w") gives).  On every exit, success or exception, what is
    buffered is flushed, and a regular file longer than the descriptor's
    offset is then cut there, also when the flush raised, so it holds
    exactly the bytes written and never a tail of the old file.  A file no
    longer than that, such as a new one, is not cut: on ext4 that cut made
    a call that creates its file about 1% slower, for nothing.  main turns
    SIGTERM into SystemExit, so the cut runs then too; after another
    signal that ends the process, such as SIGKILL or SIGHUP, or a crash of
    the interpreter nothing runs, and the old text can remain behind the
    new, or whole.  A character device or FIFO, such as /dev/null or
    /dev/stdout on a pipe, is never cut.  Truncating a file that exists to
    zero and writing it again, or renaming a new file over it, makes ext4
    (auto_da_alloc) allocate its blocks at close: rewriting a 3 KB file took
    about seven times as long that way as in place.  Unlink and create
    would replace the inode; in place, the file keeps its mode and hard
    links, and /dev/stdout keeps working.
    """
    try:
        if path:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                fh = open(fd, "w")
            except BaseException:
                os.close(fd)
                raise
            with fh:
                try:
                    yield fh
                finally:
                    try:
                        fh.flush()
                    finally:
                        st = os.fstat(fd)
                        end = os.lseek(fd, 0, os.SEEK_CUR)
                        if stat.S_ISREG(st.st_mode) and st.st_size > end:
                            os.ftruncate(fd, end)
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if path:
            raise InputError(f"cannot write output file {path}: {exc}") from exc
        # Point stdout's descriptor at os.devnull, so that the interpreter's
        # last flush of what the failed write left buffered raises nothing at
        # exit: the recipe for SIGPIPE in the docs of Python's signal module.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InputError(f"cannot write to stdout: {exc}") from exc


def write_output(chunks, path):
    """Write the text chunks in order, then a newline, to the file at path
    or to stdout."""
    with _output(path) as out:
        out.writelines(chunks)
        out.write("\n")


def build_complex(I: MonomialIdeal, method: str, ordered):
    """complexes.RESOLUTIONS[method] on the ideal and its generators in
    input order, each warning written to stderr as one "warning: ..." line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        C = RESOLUTIONS[method].build(I, ordered)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return C


def cmd_resolve(args) -> int:
    I, ordered = load_ideal(args.input)
    C = build_complex(I, args.method, ordered)
    emitted = minimize(C) if args.minimize else C
    payload = {"complex": complex_json(emitted), "method": args.method}
    if args.minimize:
        payload["rank_table"] = {"original": list(C.ranks),
                                 "minimized": list(emitted.ranks)}
    exit_code = 0
    if args.check:
        report = check_exactness_on_box(emitted, I)
        payload["exactness"] = {"ok": report.ok, "degrees_checked": report.degrees_checked}
        if not report.ok:
            exit_code = 1
    write_output(_object_chunks(payload), args.output)
    return exit_code


def cmd_initial(args) -> int:
    I, ordered = load_ideal(args.input)
    C = build_complex(I, args.method, ordered)
    p = args.p
    if p < 0:
        raise InputError("p must be nonnegative")
    exit_code = 0
    if p > C.length - 1:
        payload = {"p": p, "basis": args.basis,
                   "degrees": [], "components": [],
                   "note": "Z_p vanishes beyond the resolution"}
    elif args.basis == "boundary" and p >= 1:
        rep = None
        if args.oracle:
            rep = verify_boundary_gb(C, p,
                                     taylor_gens=list(ordered)
                                     if RESOLUTIONS[args.method].taylor_of_input else None)
        # The oracle's report holds the boundary leading terms it compared.
        ini = boundary_leading_terms(C, p) if rep is None else rep.boundary
        payload = {"p": p, "basis": "boundary", **ini.to_jsonable()}
        if rep is not None:
            payload["oracle_equal"] = rep.equal
            if not rep.equal:
                exit_code = 1
    else:
        # Z_0 is spanned by the columns of d_1 inside F_0, which has one basis
        # element, so there the boundary basis is the lex-refined one.
        ini, (rows, degrees) = lex_refined_initial(C, p)
        payload = {"p": p, "basis": args.basis, **ini.to_jsonable()}
        if args.oracle:
            # The rows are the complex's own, moved to the reordered basis.
            ok, bad = _hilbert_slice_check(rows, degrees, ini)
            payload["oracle_equal"] = ok
            if not ok:
                payload["failing_degree"] = list(bad)
                exit_code = 1
    write_output((_dumps(payload),), args.output)
    return exit_code


def cmd_sdepth(args) -> int:
    if args.quotient and args.mode != "exact":
        raise InputError("--quotient needs --mode exact")
    if args.p is not None and args.mode != "filtration-bound":
        raise InputError("--p needs --mode filtration-bound")
    if args.mode == "sqfree-construct":
        return cmd_partition(args)  # the same certificate
    I, ordered = load_ideal(args.input)
    if args.mode == "exact":
        # S/I is the unit ideal over I.
        ideals = (MonomialIdeal._made(I.n, [monomials.unit(I.n)]), I) if args.quotient else (I,)
        try:
            poset = char_poset_under_limit(*ideals)
            result = exact_sdepth(poset)
        except SearchRefused as exc:
            raise InputError(f"{exc}; use the filtration or squarefree lower bounds "
                             "instead") from exc
        chunks = _object_chunks({
            "sdepth": result.value, "g": list(poset.cap),
            "intervals": _interval_list(result.partition, _exponent_items)})
    else:  # filtration-bound, the one --mode choice left
        if args.p is None or args.p < 1:
            raise InputError("filtration-bound mode needs --p at least 1")
        C = taylor_complex(list(ordered), I.n)
        if args.p > C.length - 1:
            payload = {"p": args.p, "sdepth_lower_bound": I.n, "free": True,
                       "note": "Z_p vanishes beyond the resolution"}
        else:
            ini, _ = lex_refined_initial(C, args.p)
            bound = filtration_lower_bound(ini)
            payload = {"p": args.p, "sdepth_lower_bound": bound.value,
                       "free": bound.free, "components": ini.to_jsonable()}
        chunks = (_dumps(payload),)
    write_output(chunks, args.output)
    return 0


def _squarefree_partition_json(I: MonomialIdeal):
    """The squarefree construction's certificate, as an iterator over the
    chunks of its JSON text: sdepth, the cap g, the bound 2s+1 and every
    interval, once as exponent vectors and once as subsets of [n].

    The two interval lists are written straight from the mask pairs.  The
    check and the partition run before this returns, so an ideal that fails
    them fails before anything is written; the intervals are converted as
    their chunks are read.
    """
    if not I.is_squarefree():
        raise InputError("the squarefree construction needs a squarefree ideal")
    n = I.n
    pairs, value = blocks.squarefree_certificate(n, map(blocks.support_mask, I.gens))
    return _object_chunks({
        "bound": blocks.sqfree_lower_bound(n), "g": [1] * n, "sdepth": value,
        "intervals": _interval_list(pairs, _mask_items(n, lambda i, bit: _ITEM + "01"[bit])),
        "subsets": _interval_list(pairs, _mask_items(n, lambda i, bit: _ITEM + str(i + 1)
                                                     if bit else ""))})


# _INDENT goes in front of each field of a top-level object and of the
# closing bracket of a field's value; _ITEM in front of each item of an int
# list three levels deep, such as "a" of an interval, whose closing bracket
# sits behind six spaces.
_INDENT = "\n  "
_ITEM = ",\n        "
# Intervals per chunk of an interval list's text.
_BATCH = 1024
_OPEN, _MID, _CLOSE = '\n    {\n      "a": [', '\n      ],\n      "b": [', '\n      ]\n    }'


def _interval_list(pairs, items):
    """Yield the JSON text of the list of {"a": A, "b": B} over the pairs
    (A, B), one level deep, in chunks of _BATCH intervals.  items(A) is the
    text of the items of A's int list, each item's text starting with
    _ITEM.

    An interval's text is _OPEN, the items of A less their first comma,
    _MID, those of B and _CLOSE, so a trivial one is its one list joined
    between them.
    """
    if not pairs:
        yield "[]"
        return
    around = (_OPEN, _MID, _CLOSE)
    opener = "["
    for start in range(0, len(pairs), _BATCH):
        batch = []
        append = batch.append
        for A, B in pairs[start:start + _BATCH]:
            a = items(A)
            if A == B:
                append(a[1:].join(around))
            else:
                append(_OPEN + a[1:] + _MID + items(B)[1:] + _CLOSE)
        yield opener + ",".join(batch)
        opener = ","
    yield _INDENT + "]"


def _exponent_items(vector) -> str:
    """The items of an exponent vector, for _interval_list."""
    return _ITEM + _ITEM.join(map(int.__repr__, vector))


def _mask_items(n: int, item):
    """The items function of masks inside [n], for _interval_list: a mask's
    items are item(i, bit) over its bits i < n, lowest first, where each
    item's text starts with _ITEM.

    A table gives the joined items of each value of the mask's lowest 8
    bits, and the bits above are read the same way, 8 at a time.
    """
    table = [""]
    for i in range(min(n, 8)):
        table = [t + item(i, 0) for t in table] + [t + item(i, 1) for t in table]
    if n <= 8:
        return table.__getitem__
    higher = _mask_items(n - 8, lambda i, bit: item(i + 8, bit))
    return lambda mask: table[mask & 255] + higher(mask >> 8)


def cmd_partition(args) -> int:
    I, _ = load_ideal(args.input)
    write_output(_squarefree_partition_json(I), args.output)
    return 0


def cmd_verify(args) -> int:
    job = VerifyJob(theorem=args.theorem, trials=args.trials, seed=args.seed,
                    n_max=args.n_max, m_max=args.m_max, exp_max=args.exp_max)
    passed = True
    with _output(args.output) as out:
        for report in run_verify_job(job):
            passed = passed and report["status"] == "PASS"
            print(json.dumps(report, sort_keys=True), file=out)
    return 0 if passed else 1


# The grammar: for each subcommand, its handler, its help text and its
# options, each as its option string and its add_argument keywords.  Every
# option stores one value or is a store_true flag.
_INPUT = ("--input", {"required": True})
_METHOD = ("--method", {"choices": list(RESOLUTIONS), "default": "taylor"})
_OUTPUT = ("--output", {})
_COMMANDS = {
    "resolve": (cmd_resolve, "construct a free resolution", [
        _INPUT, _METHOD, ("--minimize", {"action": "store_true"}),
        ("--check", {"action": "store_true", "help": "certify exactness in every multidegree"}),
        _OUTPUT]),
    "initial": (cmd_initial, "initial module of a syzygy module", [
        _INPUT, _METHOD, ("--p", {"type": int, "required": True}),
        ("--basis", {"choices": ["lex", "boundary"], "default": "lex"}),
        ("--oracle", {"action": "store_true",
                      "help": "cross-check the initial module: Buchberger for --basis "
                              "boundary at p >= 1, the Hilbert-slice check otherwise"}),
        _OUTPUT]),
    "sdepth": (cmd_sdepth, "Stanley depth, exact or bounded", [
        _INPUT,
        ("--mode", {"choices": ["exact", "filtration-bound", "sqfree-construct"],
                    "default": "exact"}),
        ("--quotient", {"action": "store_true",
                        "help": "work with S/I instead of I (exact mode)"}),
        ("--p", {"type": int, "help": "syzygy index (filtration-bound mode)"}),
        _OUTPUT]),
    "partition": (cmd_partition, "constructive squarefree interval partition",
                  [_INPUT, _OUTPUT]),
    "verify": (cmd_verify, "randomized theorem verification", [
        ("--theorem", {"choices": list(THEOREMS), "required": True}),
        ("--trials", {"type": int, "default": 20}), ("--seed", {"type": int, "default": 0}),
        ("--n-max", {"type": int, "default": 4}), ("--m-max", {"type": int, "default": 4}),
        ("--exp-max", {"type": int, "default": 3}), _OUTPUT]),
}


def make_parser() -> argparse.ArgumentParser:
    """The argparse parser of the grammar _COMMANDS, for help, errors and
    abbreviations."""
    parser = argparse.ArgumentParser(
        prog="syzdepth",
        description="Resolutions of monomial ideals, syzygy initial modules, "
                    "and Stanley depth, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


# Built once per process: the parser depends on no input and parse_args
# leaves it unchanged, so every call can share it.
_PARSER = make_parser()


def _option_table(name: str):
    """The subcommand's exact options, its namespace defaults and its
    required dests, read from _COMMANDS: ({option string: entry}, {dest:
    default}, {dest}).

    Each entry is (dest, flag, type, choices), flag true for a store_true
    flag.  The defaults are those of the whole parser's namespace for the
    subcommand: command, each option's default and the handler as func.
    """
    func, _, options = _COMMANDS[name]
    table, defaults, required = {}, {"command": name}, set()
    for option, keywords in options:
        dest = option[2:].replace("-", "_")
        flag = keywords.get("action") == "store_true"
        table[option] = (dest, flag, keywords.get("type"), keywords.get("choices"))
        defaults[dest] = keywords.get("default", False if flag else None)
        if keywords.get("required"):
            required.add(dest)
    defaults["func"] = func
    return table, defaults, required


# Built once per process, beside the parser: each subcommand's option table.
_TABLES = {name: _option_table(name) for name in _COMMANDS}


def _parse_by_table(table, tokens) -> argparse.Namespace | None:
    """The namespace that the whole parser gives the subcommand and its
    tokens, or None where the table cannot tell it without argparse.

    Each token must be an exact option string of the table, a stored
    option's followed by a value that does not start with "-" and passes
    the option's type and choices, and every required option must be
    given; repeated options keep their last value, as in argparse.
    """
    options, defaults, required = table
    args = argparse.Namespace()
    values = vars(args)
    values.update(defaults)
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        entry = options.get(token)
        if entry is None:
            return None
        dest, flag, value_type, choices = entry
        if flag:
            values[dest] = True
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            if value_type is not None:
                try:
                    value = value_type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None  # the errors that argparse words
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        seen.add(dest)
    if not seen.issuperset(required):
        return None
    return args


def _parse_args(argv) -> argparse.Namespace:
    """The namespace that the whole parser gives argv.

    A well-formed argv is read through its subcommand's option table (see
    _option_table and _parse_by_table), with no argparse parse.  Any other
    argv, such as no arguments, an unknown command, an abbreviation,
    --opt=value, a missing or bad value, -h or --, goes to the whole parser,
    so help and error text and exit 2 stay argparse's own."""
    if argv and argv[0] in _TABLES:
        args = _parse_by_table(_TABLES[argv[0]], argv[1:])
        if args is not None:
            return args
    return _PARSER.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run the subcommand that argv (a list of strings; sys.argv[1:] when
    None) names, and return its exit code (see the module docstring).

    The arguments are parsed by _parse_args: a well-formed argv through its
    subcommand's option table, anything else through argparse, which
    prints its help or error text and raises SystemExit (code 0 or 2)."""
    if argv is None:
        # Run as a program (`python -m syzdepth.cli` or the `syzdepth`
        # script): SIGTERM raises SystemExit, so that _output flushes and
        # cuts the file it is writing.  A call with argv, in process, keeps
        # its caller's handlers.
        signal.signal(signal.SIGTERM, _terminate)
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # RecursionError included
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
