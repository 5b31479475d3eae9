"""Command line surface: resolve, initial, sdepth, partition, verify.

Exit codes: 0 success / all checks pass, 1 a certified check found a
disagreement, 2 bad input or configuration (such as a malformed ideal
file, an output file that cannot be written, a stdout whose reader closed
it early, as `| head -c 20` does, sdepth's --quotient outside
--mode exact or --p outside --mode filtration-bound, verify bounds below
their minimum, or an exact search refused at its point limit or node
budget), 3 internal error (a RuntimeError raised inside the library, such
as a failed minimization, a failed lift or a Stanley-depth certificate that
does not validate, or a MemoryError or RecursionError when a computation
outgrows the process).

Outputs are written as they are made, by write_output in chunks and by
verify one report line at a time, so a write can fail midway; it then
prints one "error: ..." line and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii

from . import blocks, monomials
from .complexes import (
    RESOLUTIONS,
    check_exactness_on_box,
    complex_json,
    minimize,
    taylor_complex,
)
from .groebner import hilbert_slice_check
from .monomials import MonomialIdeal
from .stanley import SearchRefused, char_poset, exact_sdepth, filtration_lower_bound
from .syzygy import boundary_leading_terms, lex_refined_initial, verify_boundary_gb
from .verify import THEOREMS, VerifyJob, run_verify_job


class InputError(Exception):
    pass


def load_ideal(path: str) -> MonomialIdeal:
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
    I = MonomialIdeal(n, gens)
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
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:  # bool is a subclass of int, not int
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = ("," + inner).join([_dumps(x, inner) for x in value])
        return "[" + inner + body + indent + "]"
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


@contextlib.contextmanager
def _output(path):
    """The output stream: the file at path, opened for writing, or stdout,
    flushed at the end.  An OSError raised while opening, writing or closing
    it becomes an InputError (exit 2)."""
    try:
        if path:
            with open(path, "w") as fh:
                yield fh
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
    payload = {"method": args.method}
    if args.minimize:
        payload["rank_table"] = {"original": list(C.ranks),
                                 "minimized": list(emitted.ranks)}
    exit_code = 0
    if args.check:
        report = check_exactness_on_box(emitted, I)
        payload["exactness"] = {"ok": report.ok, "degrees_checked": report.degrees_checked}
        if not report.ok:
            exit_code = 1
    # "complex" sorts before every other key, so its text, written straight
    # from the complex, opens the object that _dumps makes of the others.
    write_output(itertools.chain(('{\n  "complex": ',), complex_json(emitted, _INDENT),
                                 ("," + _dumps(payload)[1:],)),
                 args.output)
    return exit_code


def cmd_initial(args) -> int:
    I, ordered = load_ideal(args.input)
    C = build_complex(I, args.method, ordered)
    p = args.p
    if p < 0:
        raise InputError("p must be nonnegative")
    if p > C.length - 1:
        payload = {"p": p, "basis": args.basis,
                   "degrees": [], "components": [],
                   "note": "Z_p vanishes beyond the resolution"}
        write_output((_dumps(payload),), args.output)
        return 0
    exit_code = 0
    if args.basis == "boundary" and p >= 1:
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
        ini, gens = lex_refined_initial(C, p)
        payload = {"p": p, "basis": args.basis, **ini.to_jsonable()}
        if args.oracle:
            ok, bad = hilbert_slice_check(gens, ini)
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
    I, ordered = load_ideal(args.input)
    if args.mode == "exact":
        poset = char_poset(MonomialIdeal(I.n, [monomials.unit(I.n)]), I) \
            if args.quotient else char_poset(I)
        try:
            result = exact_sdepth(poset)
        except SearchRefused as exc:
            raise InputError(f"{exc}; use the filtration or squarefree lower bounds "
                             "instead") from exc
        payload = {"sdepth": result.value, "g": list(poset.cap),
                   "intervals": [{"a": list(iv.bottom), "b": list(iv.top)}
                                 for iv in result.partition]}
    elif args.mode == "filtration-bound":
        if args.p is None or args.p < 1:
            raise InputError("filtration-bound mode needs --p at least 1")
        C = taylor_complex(list(ordered), I.n)
        if args.p > C.length - 1:
            payload = {"p": args.p, "sdepth_lower_bound": I.n, "free": True,
                       "note": "Z_p vanishes beyond the resolution"}
            write_output((_dumps(payload),), args.output)
            return 0
        ini, _ = lex_refined_initial(C, args.p)
        bound = filtration_lower_bound(ini)
        payload = {"p": args.p, "sdepth_lower_bound": bound.value,
                   "free": bound.free, "components": ini.to_jsonable()}
    elif args.mode == "sqfree-construct":
        write_output(_squarefree_partition_json(I), args.output)
        return 0
    else:
        raise InputError(f"unknown mode {args.mode!r}")
    write_output((_dumps(payload),), args.output)
    return 0


def _squarefree_partition_json(I: MonomialIdeal):
    """The squarefree construction's certificate, as an iterator over the
    chunks of its JSON text: sdepth, the cap g, the bound 2s+1 and every
    interval, once as exponent vectors and once as subsets of [n].

    The text is _dumps of that payload, written straight from the mask
    pairs.  The check and the partition run before this returns, so an
    ideal that fails them fails before anything is written; the intervals
    are converted as their chunks are read.
    """
    if not I.is_squarefree():
        raise InputError("sqfree-construct needs a squarefree ideal")
    n = I.n
    family = blocks.filter_of_supports(n, [blocks.support_mask(g) for g in I.gens])
    pairs = blocks.squarefree_partition(n, family)
    value = min(B.bit_count() for _, B in pairs) if pairs else n
    return itertools.chain(
        (f'{{\n  "bound": {blocks.sqfree_lower_bound(n)},\n  "g": {_dumps([1] * n, _INDENT)},'
         '\n  "intervals": ',),
        _interval_list(n, pairs, lambda i, bit: _ITEM + "01"[bit]),
        (f',\n  "sdepth": {value},\n  "subsets": ',),
        _interval_list(n, pairs, lambda i, bit: _ITEM + str(i + 1) if bit else ""),
        ("\n}",))


# In front of a top-level closing bracket, and in front of each item of an
# int list three levels deep, such as "a" of an interval; the closing
# bracket of such a list sits behind six spaces.
_INDENT = "\n  "
_ITEM = ",\n        "
# Intervals per chunk of the squarefree certificate's text.
_BATCH = 1024


def _interval_list(n: int, pairs, item):
    """Yield the JSON text of the list of {"a": A, "b": B} over the mask
    pairs, one level deep, in chunks of _BATCH intervals.  A mask is the
    list of item(i, bit) over its bits i < n, lowest first, where each
    item's text starts with _ITEM.

    A table per 8-bit chunk of the mask gives the joined items of each of
    the chunk's values; a mask's list is its chunks' entries joined, without
    the first item's comma.  A trivial interval's list is made once, for
    both "a" and "b".
    """
    if not pairs:
        yield "[]"
        return
    tables = []
    for low in range(0, n, 8):
        table = [""]
        for i in range(low, min(low + 8, n)):
            table = [t + item(i, 0) for t in table] + [t + item(i, 1) for t in table]
        tables.append(table)
    size = len(tables)
    get = list.__getitem__
    join = "".join

    def text(mask):
        return f"[{join(map(get, tables, mask.to_bytes(size, 'little')))[1:]}\n      ]"

    opener = "["
    for start in range(0, len(pairs), _BATCH):
        batch = []
        for A, B in pairs[start:start + _BATCH]:
            a = text(A)
            b = a if A == B else text(B)
            batch.append(f'\n    {{\n      "a": {a},\n      "b": {b}\n    }}')
        yield opener + ",".join(batch)
        opener = ","
    yield _INDENT + "]"


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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzdepth",
        description="Resolutions of monomial ideals, syzygy initial modules, "
                    "and Stanley depth, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="construct a free resolution")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=list(RESOLUTIONS), default="taylor")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="certify exactness in every multidegree")
    p.add_argument("--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("initial", help="initial module of a syzygy module")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=list(RESOLUTIONS), default="taylor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--basis", choices=["lex", "boundary"], default="lex")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the initial module: Buchberger for --basis "
                        "boundary at p >= 1, the Hilbert-slice check otherwise")
    p.add_argument("--output")
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("sdepth", help="Stanley depth, exact or bounded")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["exact", "filtration-bound", "sqfree-construct"],
                   default="exact")
    p.add_argument("--quotient", action="store_true",
                   help="work with S/I instead of I (exact mode)")
    p.add_argument("--p", type=int, help="syzygy index (filtration-bound mode)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_sdepth)

    p = sub.add_parser("partition", help="constructive squarefree interval partition")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="randomized theorem verification")
    p.add_argument("--theorem", choices=list(THEOREMS), required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--exp-max", type=int, default=3)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


# Built once per process: the parser depends on no input and parse_args
# leaves it unchanged, so every call can share it.
_PARSER = make_parser()
# The parser of each subcommand, by name.
_SUBPARSERS = next(action.choices for action in _PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))


def _parse_args(argv) -> argparse.Namespace:
    """The namespace of the subcommand that argv names, from that
    subcommand's parser alone.  Anything else, such as no arguments, -h, an
    unknown command or an argument the subcommand leaves over, goes through
    the whole parser, so help and error text stay its own."""
    if argv and argv[0] in _SUBPARSERS:
        args, rest = _SUBPARSERS[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
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
