"""Byte-for-byte replay of recorded CLI outputs.

Each case runs `syzdepth.cli.main(argv)` in process and compares its exit
code and its whole stdout with the files recorded in tests/golden/.  Input
ideals live in tests/golden/inputs/.  To record the files again after a
deliberate change of output:

    PYTHONPATH=src python3 tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import os
import sys

import pytest

from syzdepth.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

def _squarefree(n, supports):
    return {"n": n, "generators": [[1 if j + 1 in support else 0 for j in range(n)]
                                   for support in supports]}


INPUTS = {
    "triangle": {"n": 3, "generators": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]},
    "squares": {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
    "mixed": {"n": 3, "generators": [[2, 1, 0], [0, 2, 1], [1, 0, 2], [1, 1, 1]]},
    "stable": {"n": 3, "generators": [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1]]},
    "path4": {"n": 4, "generators": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]},
    "maximal3": {"n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "path8": {"n": 8, "generators": [[1 if j in (i, i + 1) else 0 for j in range(8)]
                                     for i in range(7)]},
    # The path on 7 vertices with the odd-indexed edges x1x2, x3x4, x5x6
    # first: its Taylor complex is far from minimal.
    "path7odd": {"n": 7, "generators": [[1 if j in (i, i + 1) else 0 for j in range(7)]
                                        for i in (0, 2, 4, 1, 3, 5)]},
    # The path on 11 vertices with the odd-indexed edges first: CI runs
    # `resolve --minimize --check` on it, the certificate of a complex
    # minimized from a Taylor complex of 2^10 basis elements.
    "path11odd": {"n": 11, "generators": [[1 if j in (i, i + 1) else 0 for j in range(11)]
                                          for i in (0, 2, 4, 6, 8, 1, 3, 5, 7, 9)]},
    # The Stanley-Reisner ideal of the 6-vertex real projective plane: its
    # minimized certificate is the first input found whose slice elimination
    # meets a pivot with a leading entry other than 1 or -1.  CI runs
    # `resolve --minimize --check` on it.
    "rp2": _squarefree(6, [{1, 2, 4}, {1, 2, 5}, {1, 3, 5}, {1, 3, 6}, {1, 4, 6},
                           {2, 3, 4}, {2, 3, 6}, {2, 5, 6}, {3, 4, 5}, {4, 5, 6}]),
    # The path on 21 vertices: CI runs `initial --p 1 --basis boundary
    # --oracle` on it, which reads 2 of the 21 levels of its Taylor complex.
    "path21": {"n": 21, "generators": [[1 if j in (i, i + 1) else 0 for j in range(21)]
                                       for i in range(20)]},
    # Squarefree ideals with large supports, so that their filters stay small,
    # on either side of the 8-bit chunk edges of the mask encoder.
    "wide9": _squarefree(9, [{1, 9}, {2, 8, 9}, {3, 4, 5, 6, 7}]),
    "wide16": _squarefree(16, [set(range(1, 13)) | {16}, set(range(5, 17)) - {10},
                               {1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16},
                               set(range(2, 16))]),
    "wide17": _squarefree(17, [set(range(1, 14)) | {17}, set(range(6, 18)) | {1},
                               {1, 2, 4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
                               set(range(3, 17))]),
    # (x1...x38) in 40 variables: a filter of 4 sets in a cube of 2^40, which
    # only the per-set code of the squarefree partition can hold.
    "sparse40": _squarefree(40, [set(range(1, 39))]),
}


def _cases():
    cases = [
        ("resolve-taylor", ["resolve", "--input", "mixed", "--method", "taylor"]),
        ("resolve-minimize-check", ["resolve", "--input", "triangle", "--minimize", "--check"]),
        ("resolve-minimize-check-mixed",
         ["resolve", "--input", "mixed", "--minimize", "--check"]),
        ("resolve-minimize-check-path7odd",
         ["resolve", "--input", "path7odd", "--minimize", "--check"]),
        ("resolve-minimize-check-rp2",
         ["resolve", "--input", "rp2", "--minimize", "--check"]),
        ("resolve-ek", ["resolve", "--input", "stable", "--method", "ek", "--check"]),
        ("resolve-ek-nonstable", ["resolve", "--input", "triangle", "--method", "ek"]),
        ("resolve-koszul-maximal3", ["resolve", "--input", "maximal3", "--method", "koszul"]),
        ("resolve-koszul-triangle", ["resolve", "--input", "triangle", "--method", "koszul"]),
        ("initial-koszul-maximal3-boundary-p1",
         ["initial", "--input", "maximal3", "--method", "koszul", "--p", "1",
          "--basis", "boundary", "--oracle"]),
        ("initial-ek-stable-boundary-p1",
         ["initial", "--input", "stable", "--method", "ek", "--p", "1",
          "--basis", "boundary", "--oracle"]),
    ]
    for name in ("triangle", "squares", "mixed"):
        for basis in ("lex", "boundary"):
            for p in range(3):
                cases.append((f"initial-{name}-{basis}-p{p}",
                              ["initial", "--input", name, "--p", str(p),
                               "--basis", basis, "--oracle"]))
    # Z_7 vanishes, as the Taylor complex of three generators has length 3.
    cases.append(("initial-squares-beyond-p7",
                  ["initial", "--input", "squares", "--p", "7", "--oracle"]))
    cases += [
        ("sdepth-exact-triangle", ["sdepth", "--input", "triangle"]),
        ("sdepth-exact-maximal3", ["sdepth", "--input", "maximal3"]),
        ("sdepth-quotient-triangle", ["sdepth", "--input", "triangle", "--quotient"]),
        ("sdepth-quotient-squares", ["sdepth", "--input", "squares", "--quotient"]),
        ("sdepth-sqfree-path8", ["sdepth", "--input", "path8", "--mode", "sqfree-construct"]),
    ]
    for name in ("wide9", "wide16", "wide17"):
        cases += [
            (f"sdepth-sqfree-{name}",
             ["sdepth", "--input", name, "--mode", "sqfree-construct"]),
            (f"partition-{name}", ["partition", "--input", name]),
        ]
    cases.append(("partition-sparse40", ["partition", "--input", "sparse40"]))
    for name in ("path4", "mixed"):
        for p in (1, 2, 3):
            cases.append((f"sdepth-filtration-{name}-p{p}",
                          ["sdepth", "--input", name, "--mode", "filtration-bound",
                           "--p", str(p)]))
    for theorem in ("theorem-main", "boundary-gb", "mainsyz", "regular",
                    "sqfree-stde", "squarefree", "lemma-groebner"):
        cases.append((f"verify-{theorem}",
                      ["verify", "--theorem", theorem, "--trials", "5", "--seed", "0"]))
    for theorem in ("theorem-main", "mainsyz", "lemma-groebner"):
        cases.append((f"verify-{theorem}-m5",
                      ["verify", "--theorem", theorem, "--trials", "5", "--seed", "3",
                       "--m-max", "5"]))
    return cases


CASES = _cases()


def _argv(argv):
    """Replace the word after --input by the path of that input file."""
    out = list(argv)
    for i, word in enumerate(out[:-1]):
        if word == "--input":
            out[i + 1] = os.path.join(GOLDEN, "inputs", out[i + 1] + ".json")
    return out


def _run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(_argv(argv))
    return rc, buffer.getvalue()


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    rc, out = _run(argv)
    with open(os.path.join(GOLDEN, name + ".out")) as fh:
        expected = fh.read()
    assert rc == _exit_codes()[name]
    assert out == expected


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output_builds_no_module_vector(name, argv, fractions_only_from_linalg):
    # Rows are the library's only element form: every case writes its
    # golden output with no Fraction made outside linalg and blocks, as a
    # module vector made one of each coefficient.
    test_golden_output(name, argv)


def record():
    os.makedirs(os.path.join(GOLDEN, "inputs"), exist_ok=True)
    for name, payload in INPUTS.items():
        with open(os.path.join(GOLDEN, "inputs", name + ".json"), "w") as fh:
            fh.write(json.dumps(payload) + "\n")
    codes = {}
    for name, argv in CASES:
        codes[name], out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        fh.write(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_cli.py --record")
    record()
