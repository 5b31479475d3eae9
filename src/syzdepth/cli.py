"""Command line surface: resolve, initial, sdepth, partition, verify.

Exit codes: 0 success / all checks pass, 1 a certified check found a
disagreement, 2 bad input or configuration, 3 internal error (a
RuntimeError raised inside the library, such as a failed minimization, a
failed lift or a Stanley-depth certificate that does not validate, or a
MemoryError or RecursionError when a computation outgrows the process).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii

from . import blocks, monomials
from .complexes import (
    check_exactness_on_box,
    complex_to_jsonable,
    eliahou_kervaire,
    koszul_complex,
    minimize,
    taylor_complex,
)
from .freemod import TermOrder
from .groebner import hilbert_slice_check, initial_module
from .monomials import MonomialIdeal
from .stanley import char_poset, exact_sdepth, filtration_lower_bound
from .syzygy import boundary_leading_terms, lex_refined_initial, verify_boundary_gb
from .verify import THEOREMS, VerifyJob, all_pass, run_verify_job


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
    ordered = monomials.minimalize_ordered(tuple(g) for g in gens)
    return MonomialIdeal(n, ordered), ordered


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


def write_output(payload: dict, path):
    text = _dumps(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_complex(I: MonomialIdeal, method: str, ordered_gens=None):
    gens = list(ordered_gens) if ordered_gens is not None else list(I.gens)
    if method == "taylor":
        return taylor_complex(gens, I.n)
    if method == "koszul":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            C = koszul_complex(gens, I.n)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return C
    if method == "ek":
        try:
            return eliahou_kervaire(I)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"unknown method {method!r}")


def parse_box(text: str, n: int):
    try:
        box = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad box {text!r}") from exc
    if len(box) != n or any(b < 0 for b in box):
        raise InputError(f"box must be {n} nonnegative integers")
    return box


def cmd_resolve(args) -> int:
    I, ordered = load_ideal(args.input)
    C = build_complex(I, args.method, ordered)
    payload = {"method": args.method, "complex": complex_to_jsonable(C)}
    emitted = C
    if args.minimize:
        emitted = minimize(C)
        payload["complex"] = complex_to_jsonable(emitted)
        payload["rank_table"] = {"original": list(C.ranks),
                                 "minimized": list(emitted.ranks)}
    if args.check:
        box = parse_box(args.box, I.n) if args.box else None
        report = check_exactness_on_box(emitted, I, box)
        payload["exactness"] = {"ok": report.ok, "box": list(report.box),
                                "degrees_checked": report.degrees_checked}
        if not report.ok:
            write_output(payload, args.output)
            return 1
    write_output(payload, args.output)
    return 0


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
        write_output(payload, args.output)
        return 0
    exit_code = 0
    if args.basis == "boundary":
        ini = boundary_leading_terms(C, p) if p >= 1 else initial_module(
            list(C.differential(1)), TermOrder(C.basis(0), "lex"))
        payload = {"p": p, "basis": "boundary", **ini.to_jsonable()}
        if args.oracle and p >= 1:
            rep = verify_boundary_gb(C, p,
                                     taylor_gens=list(ordered)
                                     if args.method in ("taylor", "koszul") else None)
            payload["oracle_equal"] = rep.equal
            if not rep.equal:
                exit_code = 1
    else:
        ini, gens = lex_refined_initial(C, p)
        payload = {"p": p, "basis": "lex", **ini.to_jsonable()}
        if args.oracle:
            ok, bad = hilbert_slice_check(gens, ini, C.degree_box())
            payload["oracle_equal"] = ok
            if not ok:
                payload["failing_degree"] = list(bad)
                exit_code = 1
    write_output(payload, args.output)
    return exit_code


def cmd_sdepth(args) -> int:
    I, ordered = load_ideal(args.input)
    if args.mode == "exact":
        poset = char_poset(MonomialIdeal(I.n, [monomials.unit(I.n)]), I) \
            if args.quotient else char_poset(I)
        try:
            result = exact_sdepth(poset)
        except ValueError as exc:  # only the refusal of a poset above the point limit
            raise InputError(str(exc)) from exc
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
            write_output(payload, args.output)
            return 0
        ini, _ = lex_refined_initial(C, args.p)
        bound = filtration_lower_bound(ini)
        payload = {"p": args.p, "sdepth_lower_bound": bound.value,
                   "free": bound.free, "components": ini.to_jsonable()}
    elif args.mode == "sqfree-construct":
        payload = _squarefree_partition_payload(I)
    else:
        raise InputError(f"unknown mode {args.mode!r}")
    write_output(payload, args.output)
    return 0


def _squarefree_partition_payload(I: MonomialIdeal) -> dict:
    if not I.is_squarefree():
        raise InputError("sqfree-construct needs a squarefree ideal")
    n = I.n
    supports = [frozenset(i + 1 for i in monomials.support(g)) for g in I.gens]
    family = blocks.filter_of_supports(n, supports)
    pairs = blocks.squarefree_partition(n, family)
    value = min(len(B) for _, B in pairs) if pairs else n
    return {
        "sdepth": value,
        "g": [1] * n,
        "bound": blocks.sqfree_lower_bound(n),
        "intervals": [{"a": list(blocks.subset_to_degree(n, A)),
                       "b": list(blocks.subset_to_degree(n, B))}
                      for A, B in pairs],
        "subsets": [{"a": sorted(A), "b": sorted(B)} for A, B in pairs],
    }


def cmd_partition(args) -> int:
    I, _ = load_ideal(args.input)
    write_output(_squarefree_partition_payload(I), args.output)
    return 0


def cmd_verify(args) -> int:
    job = VerifyJob(theorem=args.theorem, trials=args.trials, seed=args.seed,
                    n_max=args.n_max, m_max=args.m_max, exp_max=args.exp_max)
    reports = []
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for report in run_verify_job(job):
            reports.append(report)
            print(json.dumps(report, sort_keys=True), file=out)
    finally:
        if args.output:
            out.close()
    return 0 if all_pass(reports) else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzdepth",
        description="Resolutions of monomial ideals, syzygy initial modules, "
                    "and Stanley depth, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="construct a free resolution")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["taylor", "koszul", "ek"], default="taylor")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="certify exactness degreewise on a box")
    p.add_argument("--box", help="comma-separated box bounds for --check")
    p.add_argument("--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("initial", help="initial module of a syzygy module")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["taylor", "koszul", "ek"], default="taylor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--basis", choices=["lex", "boundary"], default="lex")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the Buchberger oracle")
    p.add_argument("--output")
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("sdepth", help="Stanley depth, exact or bounded")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["exact", "filtration-bound", "sqfree-construct"],
                   default="exact")
    p.add_argument("--quotient", action="store_true",
                   help="work with S/I instead of I (exact mode)")
    p.add_argument("--p", type=int)
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


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
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
