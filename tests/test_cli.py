import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import test_golden_cli as golden
from syzdepth import blocks, cli, complexes, groebner, stanley, syzygy
from syzdepth.cli import InputError, _dumps, _object_chunks, load_ideal, main
from syzdepth.complexes import check_exactness_on_box, minimize, syzygy_rows, taylor_complex
from test_complexes import reference_complex_to_jsonable
from reference_monomials import minimalize_ordered
from syzdepth.groebner import InitialModule
from syzdepth.monomials import MonomialIdeal

LCM_TRIANGLE = {"n": 3, "generators": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}
SQUARES = {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]]}
MAXIMAL4 = {"n": 4, "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                   [0, 0, 0, 1]]}


@pytest.fixture
def ideal_file(tmp_path):
    def write(payload, name="ideal.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_resolve_taylor_ranks(ideal_file, capsys):
    code, data = run_json(["resolve", "--input", ideal_file(MAXIMAL4),
                           "--method", "taylor"], capsys)
    assert code == 0
    assert data["complex"]["ranks"] == [1, 4, 6, 4, 1]


def test_resolve_minimize_rank_table(ideal_file, capsys):
    code, data = run_json(["resolve", "--input", ideal_file(LCM_TRIANGLE),
                           "--method", "taylor", "--minimize"], capsys)
    assert code == 0
    assert data["rank_table"] == {"original": [1, 3, 3, 1], "minimized": [1, 3, 2]}


def test_resolve_check_certificate(ideal_file, capsys):
    code, data = run_json(["resolve", "--input", ideal_file(SQUARES), "--check"], capsys)
    assert code == 0
    assert data["exactness"] == {"ok": True, "degrees_checked": 7}


def test_resolve_minimize_check_checks_two_complexes(ideal_file, capsys):
    # minimize checks its input and its output; the certificate of that
    # output reads the rows without checking them a third time.
    with mock.patch.object(complexes, "_check_rows", wraps=complexes._check_rows) as full:
        code, data = run_json(["resolve", "--input", ideal_file(LCM_TRIANGLE),
                               "--minimize", "--check"], capsys)
    assert code == 0 and data["exactness"]["ok"]
    assert full.call_count == 2


def test_resolve_ek_rejects_nonstable(ideal_file, capsys):
    path = ideal_file({"n": 2, "generators": [[0, 1]]})
    code = main(["resolve", "--input", path, "--method", "ek"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: ideal is not stable: generator (0, 1) fails the exchange rule "
                   "(missing (1, 0))\n")


def test_resolve_koszul_warns_on_an_irregular_sequence(ideal_file, capsys):
    code = main(["resolve", "--input", ideal_file(LCM_TRIANGLE), "--method", "koszul"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ("warning: generators are not a regular sequence; returning the "
                            "Taylor complex\n")


def test_initial_boundary_matches_spec_example(ideal_file, capsys):
    code, data = run_json(["initial", "--input", ideal_file(SQUARES),
                           "--p", "1", "--basis", "boundary", "--oracle"], capsys)
    assert code == 0
    assert data["oracle_equal"]
    assert data["components"] == [[[1, 0]], [[1, 0]], []]


def test_initial_lex_basis(ideal_file, capsys):
    code, data = run_json(["initial", "--input", ideal_file(SQUARES),
                           "--p", "1", "--basis", "lex", "--oracle"], capsys)
    assert code == 0
    assert data["oracle_equal"]
    assert data["components"] == [[[0, 1]], [[0, 1]], []]


def test_initial_beyond_length(ideal_file, capsys):
    code, data = run_json(["initial", "--input", ideal_file(SQUARES),
                           "--p", "7", "--basis", "lex"], capsys)
    assert code == 0
    assert data["components"] == []


@pytest.mark.parametrize("basis", ["lex", "boundary"])
def test_p0_oracle_catches_a_damaged_initial_module(ideal_file, capsys, monkeypatch, basis):
    # At p = 0 both bases check the emitted module against the span of the
    # columns of d_1; dropping a generator must be caught, not passed over.
    # The lex path hands the rows of d_1 to initial_module's engine.
    real = groebner._initial_module

    def damaged(rows, degrees, order):
        ini = real(rows, degrees, order)
        first = ini.components[0]
        return InitialModule(ini.basis, (MonomialIdeal(first.n, first.gens[1:]),)
                             + ini.components[1:])

    monkeypatch.setattr(syzygy, "_initial_module", damaged)
    code, data = run_json(["initial", "--input", ideal_file(LCM_TRIANGLE), "--p", "0",
                           "--basis", basis, "--oracle"], capsys)
    assert code == 1
    assert data["oracle_equal"] is False
    assert data["failing_degree"]


def test_boundary_oracle_disagreement_exits_1(ideal_file, capsys, monkeypatch):
    # No golden or corpus input makes the boundary oracle disagree, so a
    # report whose oracle lost its components is put in place of the real one.
    argv = ["initial", "--input", ideal_file(SQUARES), "--p", "1", "--basis", "boundary",
            "--oracle"]
    code, agreed = run_json(argv, capsys)
    assert code == 0 and agreed["oracle_equal"] is True
    real = cli.verify_boundary_gb

    def disagreeing(C, p, taylor_gens):
        rep = real(C, p, taylor_gens=taylor_gens)
        return dataclasses.replace(rep, oracle=InitialModule(rep.oracle.basis, ()))

    monkeypatch.setattr(cli, "verify_boundary_gb", disagreeing)
    code, data = run_json(argv, capsys)
    assert code == 1
    assert data == {**agreed, "oracle_equal": False}


@pytest.mark.parametrize("args", [
    ["initial", "--input", "LCM_TRIANGLE", "--p", "1", "--basis", "boundary", "--oracle"],
    ["initial", "--input", "SQUARES", "--p", "1", "--method", "ek", "--basis", "boundary",
     "--oracle"],
    ["initial", "--input", "LCM_TRIANGLE", "--p", "1", "--basis", "lex", "--oracle"],
    ["initial", "--input", "LCM_TRIANGLE", "--p", "0", "--basis", "boundary", "--oracle"],
] + [["verify", "--theorem", theorem, "--trials", "6", "--n-max", "5", "--m-max", "6",
      "--exp-max", "3"] for theorem in ("theorem-main", "boundary-gb", "lemma-groebner",
                                        "mainsyz")],
    ids=["boundary", "boundary-ek", "lex", "p0", "theorem-main", "boundary-gb",
         "lemma-groebner", "mainsyz"])
def test_oracles_and_benchmark_streams_make_no_view(ideal_file, capsys, args,
                                                    fractions_only_from_linalg):
    # Buchberger, the oracles and the verify streams read the complexes'
    # rows; a view of a differential would be a module vector per column,
    # with a Fraction made outside linalg for each coefficient.
    inputs = {"LCM_TRIANGLE": LCM_TRIANGLE, "SQUARES": SQUARES}
    argv = [ideal_file(inputs[a]) if a in inputs else a for a in args]
    assert main(argv) == 0, capsys.readouterr().err


def test_sdepth_exact(ideal_file, capsys):
    code, data = run_json(["sdepth", "--input", ideal_file(MAXIMAL4),
                           "--mode", "exact"], capsys)
    assert code == 0
    assert data["sdepth"] == 2
    assert data["g"] == [1, 1, 1, 1]
    assert data["intervals"]


def test_sdepth_exact_quotient(ideal_file, capsys):
    code, data = run_json(["sdepth", "--input", ideal_file(MAXIMAL4),
                           "--mode", "exact", "--quotient"], capsys)
    assert code == 0
    assert data["sdepth"] == 0


def test_sdepth_shen_example(ideal_file, capsys):
    ci = {"n": 4, "generators": [[1, 0, 0, 0], [0, 1, 1, 1]]}
    code, data = run_json(["sdepth", "--input", ideal_file(ci), "--mode", "exact"],
                          capsys)
    assert code == 0
    assert data["sdepth"] == 3


def test_sdepth_filtration_bound(ideal_file, capsys):
    code, data = run_json(["sdepth", "--input", ideal_file(LCM_TRIANGLE),
                           "--mode", "filtration-bound", "--p", "1"], capsys)
    assert code == 0
    assert data["sdepth_lower_bound"] >= 2


def test_sdepth_sqfree_construct(ideal_file, capsys):
    gens = [[1 if j == i else 0 for j in range(5)] for i in range(5)]
    code, data = run_json(["sdepth", "--input", ideal_file({"n": 5, "generators": gens}),
                           "--mode", "sqfree-construct"], capsys)
    assert code == 0
    assert data["sdepth"] == 3 and data["bound"] == 3


def test_partition_command(ideal_file, capsys):
    code, data = run_json(["partition", "--input", ideal_file(LCM_TRIANGLE)], capsys)
    assert code == 0
    assert data["intervals"]
    assert all(set(iv) == {"a", "b"} for iv in data["intervals"])


def test_partition_rejects_nonsquarefree(ideal_file, capsys):
    # Both spellings of the construction refuse with the same text.
    for args in (["partition"], ["sdepth", "--mode", "sqfree-construct"]):
        code = main(args + ["--input", ideal_file(SQUARES)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: the squarefree construction needs a squarefree ideal\n")


def test_construction_refuses_up_sets_above_the_limit(ideal_file, capsys):
    # The order filter of (x1) in 40 variables has 2^39 sets, and its
    # membership table would take 2^40 bytes.  Both spellings refuse, with
    # exit 2, before any table or set is built.
    x1 = {"n": 40, "generators": [[1] + [0] * 39]}
    for args in (["partition"], ["sdepth", "--mode", "sqfree-construct"]):
        tracemalloc.start()
        try:
            code = main(args + ["--input", ideal_file(x1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: the supports' up-sets hold 549755813888 sets, above the limit 524288\n")
        assert peak < 200_000


def test_resolve_check_certifies_the_minimized_complex(ideal_file, capsys, monkeypatch):
    # A minimization that loses the top level emits a complex that is not a
    # resolution; the certificate must be taken on that emitted complex.
    from syzdepth import cli
    from syzdepth.complexes import FreeComplex

    def truncated(C):
        M = minimize(C)
        return FreeComplex(M.n, M.bases[:-1],
                           [syzygy_rows(M, p - 1)[0] for p in range(1, M.length)])

    monkeypatch.setattr(cli, "minimize", truncated)
    path = ideal_file(LCM_TRIANGLE)
    code = main(["resolve", "--input", path, "--minimize", "--check"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 1
    assert data["rank_table"]["minimized"] == [1, 3]
    assert not data["exactness"]["ok"]
    # The whole text, complex included, against the payload built cell by cell.
    I, ordered = load_ideal(path)
    C = taylor_complex(list(ordered), I.n)
    M = truncated(C)
    report = check_exactness_on_box(M, I)
    expected = {"method": "taylor", "complex": reference_complex_to_jsonable(M),
                "rank_table": {"original": list(C.ranks), "minimized": list(M.ranks)},
                "exactness": {"ok": report.ok, "degrees_checked": report.degrees_checked}}
    assert out == _dumps(expected) + "\n"


def test_internal_error_exits_3(ideal_file, capsys, monkeypatch):
    # Exit code 1 means a certified disagreement; a failure inside the
    # library must not be mistaken for one.
    from syzdepth import cli

    def broken(C):
        raise RuntimeError("minimization broke the complex property")

    monkeypatch.setattr(cli, "minimize", broken)
    code = main(["resolve", "--input", ideal_file(LCM_TRIANGLE), "--minimize"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: minimization broke the complex property\n"


def test_bad_input_exit_codes(ideal_file, capsys, tmp_path):
    assert main(["resolve", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = ideal_file({"n": 2, "generators": [[0, 0]]}, "zero.json")
    assert main(["resolve", "--input", bad]) == 2
    capsys.readouterr()
    bad2 = ideal_file({"n": 2, "generators": [[1, 2, 3]]}, "len.json")
    assert main(["resolve", "--input", bad2]) == 2


@pytest.mark.parametrize("payload", [
    {"n": 2, "generators": [[True, 0], [0, 1]]},
    {"n": 2, "generators": [[1, False], [0, 1]]},
    {"n": True, "generators": [[1]]},
], ids=["exponent-true", "exponent-false", "n-true"])
def test_boolean_inputs_exit_2(ideal_file, capsys, payload):
    # JSON true and false load as Python bools, which are ints too.
    code = main(["sdepth", "--input", ideal_file(payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_exit_3(ideal_file, capsys, monkeypatch, error):
    from syzdepth import cli

    def exhausted(poset):
        raise error()

    monkeypatch.setattr(cli, "exact_sdepth", exhausted)
    code = main(["sdepth", "--input", ideal_file(LCM_TRIANGLE)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_stream_and_replay(capsys):
    code = main(["verify", "--theorem", "regular", "--trials", "3", "--seed", "11"])
    first = capsys.readouterr().out
    assert code == 0
    assert len(first.strip().splitlines()) == 3
    code2 = main(["verify", "--theorem", "regular", "--trials", "3", "--seed", "11"])
    second = capsys.readouterr().out
    assert code2 == 0
    assert first == second  # identical (seed, caps) -> identical stream
    for line in first.strip().splitlines():
        report = json.loads(line)
        assert report["status"] == "PASS"
        assert "instance" in report


def test_verify_bad_theorem_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "nonsense"])
    assert exc.value.code == 2


BAD_VERIFY_BOUNDS = [
    (["--trials", "-1"], "--trials must be at least 0"),
    (["--n-max", "0"], "--n-max must be at least 1"),
    (["--m-max", "0"], "--m-max must be at least 1"),
    (["--exp-max", "0"], "--exp-max must be at least 1"),
    (["--exp-max", "-1"], "--exp-max must be at least 1"),
    (["--exp-max", "2147483648"], "--exp-max must be below 2147483648"),
    (["--theorem", "lemma-groebner", "--n-max", "1"],
     "--n-max must be at least 2 for lemma-groebner"),
    (["--theorem", "sqfree-stde", "--n-max", "1"],
     "--n-max must be at least 2 for sqfree-stde"),
    (["--theorem", "squarefree", "--n-max", "1"],
     "--n-max must be at least 2 for squarefree"),
]


@pytest.mark.parametrize("args, message", BAD_VERIFY_BOUNDS,
                         ids=[" ".join(args) for args, _ in BAD_VERIFY_BOUNDS])
def test_verify_rejects_bad_bounds(capsys, args, message):
    code = main(["verify", "--theorem", "theorem-main", "--trials", "2"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["resolve", "--input", "IDEAL"],
    ["sdepth", "--input", "IDEAL", "--mode", "sqfree-construct"],
    ["verify", "--theorem", "regular", "--trials", "1"],
], ids=["resolve", "sqfree-construct", "verify"])
def test_unwritable_output_exits_2(ideal_file, capsys, tmp_path, args):
    # Exit 1 is kept for certified disagreements; a missing output directory
    # is bad input.
    path = ideal_file(LCM_TRIANGLE)
    target = tmp_path / "missing" / "out.json"
    code = main([path if a == "IDEAL" else a for a in args] + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output file {target}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not target.parent.exists()


@pytest.mark.parametrize("args", [
    ["partition", "--input", "SQUARES"],
    ["sdepth", "--input", "SQUARES", "--mode", "sqfree-construct"],
    ["resolve", "--input", "NONSTABLE", "--method", "ek"],
], ids=["partition", "sqfree-construct", "resolve-ek"])
def test_early_failure_writes_no_output_file(ideal_file, capsys, tmp_path, args):
    # The checks run before the streamed text is read, so before the output
    # file is opened.
    inputs = {"SQUARES": ideal_file(SQUARES),
              "NONSTABLE": ideal_file({"n": 2, "generators": [[0, 1]]}, "nonstable.json")}
    target = tmp_path / "out.json"
    code = main([inputs.get(a, a) for a in args] + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not target.exists()


def test_lifting_failure_exits_3(ideal_file, capsys, monkeypatch):
    # A lift that finds no preimage means the library built a complex that is
    # not exact: an internal error, not bad input.  The patched lift of the
    # cone step asks the Groebner fallback for the basis element e_0 itself,
    # which no image reaches.
    from syzdepth import complexes

    def lift(lifter, z, a):
        C, p = lifter.complex, lifter.p
        return complexes._lift_by_groebner(C, p, {0: 1}, C.basis(p - 1).degree(0))

    monkeypatch.setattr(complexes._Lifter, "lift", lift)
    code = main(["resolve", "--input", ideal_file(SQUARES), "--method", "ek"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: lifting failed at homological degree 1: "
                            "the complex is not exact there\n")


@pytest.mark.parametrize("search, message", [
    (lambda tops, d: [], "not an interval partition: point"),
    (lambda tops, d: None, "no interval partition"),
])
def test_exact_search_failure_exits_3(ideal_file, capsys, monkeypatch, search, message):
    # A certificate that fails validation, or a search that finds none, is a
    # fault of the search; only the point limit is a refusal of the input.
    monkeypatch.setattr(stanley, "_feasible_partition", search)
    code = main(["sdepth", "--input", ideal_file(LCM_TRIANGLE), "--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_exact_point_limit_exits_2(ideal_file, capsys):
    big = {"n": 10, "generators": [[1] * 10]}
    code = main(["sdepth", "--input", ideal_file(big), "--mode", "exact", "--quotient"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "above the limit" in captured.err


def test_exact_quotient_is_refused_before_its_points_are_listed(ideal_file, capsys):
    # S/I of (x1^300, x2^300, x3^300) is the 300^3 points below (300, 300, 300)
    # that no generator divides.  They are counted, so no membership test runs;
    # listing them would make 27.3 million.
    cap = {"n": 3, "generators": [[300, 0, 0], [0, 300, 0], [0, 0, 300]]}
    with mock.patch.object(MonomialIdeal, "contains", side_effect=AssertionError):
        code = main(["sdepth", "--input", ideal_file(cap), "--mode", "exact", "--quotient"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: poset has 27000000 points, above the limit 512; use the "
                            "filtration or squarefree lower bounds instead\n")


# ---------------------------------------------------------------------------
# The output writer, and CLI calls on edge-case ideals


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(),
    lambda children: st.lists(children) | st.tuples(children, children)
    | st.lists(st.integers()) | st.dictionaries(st.text(), children),
    max_leaves=30)


@settings(max_examples=300)
@given(json_values)
@example({})
@example([])
@example({"": [], "a": {}, "b": ()})
@example([True, False, None, 0, -1, 10**40, 1.5, float("nan"), float("-inf")])
@example([True, 1, False])
@example(["\"\\\n\t\x00\x7f", "é", "\u2603", "\U0001f600"])
def test_dumps_matches_json(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=200)
@given(st.dictionaries(st.text(), json_values, min_size=1), st.data())
def test_object_chunks_match_dumps(fields, data):
    # Some values are given as iterators over their text, cut anywhere into
    # chunks, empty ones included, as resolve's complex and the squarefree
    # certificate's interval lists are.
    given_fields = {}
    for key, value in fields.items():
        if data.draw(st.booleans()):
            text = _dumps(value, "\n  ")
            cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=4)))
            value = iter([text[i:j] for i, j in zip([0] + cuts, cuts + [len(text)])])
        given_fields[key] = value
    assert "".join(_object_chunks(given_fields)) == _dumps(fields)


# The payload builder that the squarefree certificate encoder replaced, kept
# verbatim as the reference: json.dumps of its payload is the expected text.
def reference_squarefree_partition_payload(I: MonomialIdeal) -> dict:
    if not I.is_squarefree():
        raise InputError("sqfree-construct needs a squarefree ideal")
    n = I.n
    family = blocks.filter_of_supports(n, [blocks.support_mask(g) for g in I.gens])
    pairs = blocks.squarefree_partition(n, family)
    value = min(B.bit_count() for _, B in pairs) if pairs else n
    # Most intervals are trivial, so most masks occur twice: convert each once.
    degree, subset = {}, {}
    for mask in {mask for pair in pairs for mask in pair}:
        degree[mask] = blocks.subset_to_degree(n, mask)
        subset[mask] = blocks.mask_elements(mask)
    return {
        "sdepth": value,
        "g": [1] * n,
        "bound": blocks.sqfree_lower_bound(n),
        "intervals": [{"a": degree[A], "b": degree[B]} for A, B in pairs],
        "subsets": [{"a": subset[A], "b": subset[B]} for A, B in pairs],
    }


# A squarefree ideal on 13 variables with 8 supports of size 2-3: its
# certificate is 3.3 MB, nearly all of it singleton intervals.
SUPPORTS13 = golden._squarefree(13, [{1, 7, 13}, {7, 8, 9}, {6, 8, 10}, {3, 9}, {2, 3, 10},
                                     {9, 10, 12}, {2, 5}, {6, 11}])
# Dense filters in 12 and 14 variables, from supports of two to four
# elements: their certificates are written from membership tables of two
# 8-bit chunks, and the supports of two elements give stage intervals.
DENSE12 = golden._squarefree(12, [{1, 5, 9}, {2, 6}, {3, 10, 11}, {4, 8, 12}, {7, 11}])
DENSE14 = golden._squarefree(14, [{1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10}, {11, 12, 13, 14},
                                  {2, 7, 12}, {3, 14}])


# Squarefree ideals on up to 18 variables whose supports each miss at most
# four variables, so that every filter has at most 4 * 16 sets.
wide_squarefree_ideals = st.integers(1, 18).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sets(st.integers(0, n - 1), max_size=min(4, n - 1)).map(
        lambda missing: [0 if j in missing else 1 for j in range(n)]),
        min_size=1, max_size=4)))


def _edges(n, pairs):
    return [[1 if j + 1 in pair else 0 for j in range(n)] for pair in pairs]


@settings(max_examples=150, deadline=None)
@given(wide_squarefree_ideals)
@example((1, [[1]]))
@example((3, []))  # the zero ideal: no intervals
@example((7, _edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1)])))
@example((8, _edges(8, [(i,) for i in range(1, 9)])))
@example((9, golden.INPUTS["wide9"]["generators"]))
@example((12, DENSE12["generators"]))
@example((13, SUPPORTS13["generators"]))
@example((14, DENSE14["generators"]))
@example((16, golden.INPUTS["wide16"]["generators"]))
@example((17, golden.INPUTS["wide17"]["generators"]))
def test_squarefree_certificate_matches_the_reference_payload(ideal):
    n, gens = ideal
    I = MonomialIdeal(n, minimalize_ordered(tuple(g) for g in gens))
    expected = json.dumps(reference_squarefree_partition_payload(I), indent=2, sort_keys=True)
    assert "".join(cli._squarefree_partition_json(I)) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=8))))
def test_load_ideal_keeps_the_first_occurrence_order(ideal):
    n, gens = ideal
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.json")
        with open(path, "w") as fh:
            json.dump({"n": n, "generators": gens}, fh)
        I, ordered = load_ideal(path)
    expected = minimalize_ordered(tuple(g) for g in gens)
    assert ordered == expected
    assert I == MonomialIdeal(n, expected)


OTHER_MODE_FLAGS = [
    (["sdepth", "--mode", "sqfree-construct", "--quotient"], "--quotient needs --mode exact"),
    (["sdepth", "--mode", "filtration-bound", "--p", "1", "--quotient"],
     "--quotient needs --mode exact"),
    (["sdepth", "--mode", "exact", "--p", "1"], "--p needs --mode filtration-bound"),
    (["sdepth", "--p", "2"], "--p needs --mode filtration-bound"),
    (["sdepth", "--mode", "sqfree-construct", "--p", "1"],
     "--p needs --mode filtration-bound"),
]


@pytest.mark.parametrize("args, message", OTHER_MODE_FLAGS,
                         ids=[" ".join(args) for args, _ in OTHER_MODE_FLAGS])
def test_sdepth_rejects_flags_of_other_modes(ideal_file, capsys, args, message):
    code = main(args + ["--input", ideal_file(MAXIMAL4)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["initial", "--p", "-1"], "p must be nonnegative"),
    (["sdepth", "--mode", "filtration-bound", "--p", "0"],
     "filtration-bound mode needs --p at least 1"),
], ids=["initial", "filtration-bound"])
def test_p_out_of_range_exits_2(ideal_file, capsys, args, message):
    code = main(args + ["--input", ideal_file(MAXIMAL4)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_exact_node_budget_exits_2(ideal_file, capsys, search_limit):
    search_limit("SEARCH_NODE_LIMIT", 20)
    code = main(["sdepth", "--input", ideal_file(MAXIMAL4), "--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the exact search visited more than 20 nodes; use the "
                            "filtration or squarefree lower bounds instead\n")


def test_filtration_bound_refusal_names_the_component(ideal_file, capsys, search_limit):
    argv = ["sdepth", "--input", ideal_file(MAXIMAL4), "--mode", "filtration-bound",
            "--p", "1"]
    # Under the default limit the call answers, and the component's value is
    # cached; the lowered limit must still refuse it.
    assert main(argv) == 0
    capsys.readouterr()
    search_limit("SEARCH_NODE_LIMIT", 3)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err == ("error: the filtration bound needs the exact Stanley depth of "
                            "the component at position 0, and its search was refused: "
                            "the exact search visited more than 3 nodes\n")


def test_filtration_bound_refuses_a_component_before_its_points_are_listed(ideal_file,
                                                                           capsys):
    # ini(Z_1) of (x1^2000, x2^2000, x3^2000, x1x2x3) has a component whose
    # poset has 4,000,002 points.  They are counted, not listed: listing
    # them took 390 MB.
    cap = {"n": 3, "generators": [[2000, 0, 0], [0, 2000, 0], [0, 0, 2000], [1, 1, 1]]}
    argv = ["sdepth", "--input", ideal_file(cap), "--mode", "filtration-bound", "--p", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the filtration bound needs the exact Stanley depth of "
                            "the component at position 0, and its search was refused: "
                            "poset has 4000002 points, above the limit 512\n")
    assert peak < 4_000_000


def run_cli(argv):
    """Exit code of the call; asserts it is 0 or 2, and that stdout is then
    the canonical JSON text or empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 2)
    if code == 0:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    else:
        assert text == ""
    return code


EDGE_IDEALS = {
    "single": {"n": 3, "generators": [[1, 2, 0]]},
    "repeated": {"n": 2, "generators": [[1, 0], [1, 0], [0, 1]]},
    "non-minimal": {"n": 3, "generators": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [2, 1, 1]]},
    "one-variable": {"n": 1, "generators": [[2]]},
    "one-variable-repeated": {"n": 1, "generators": [[3], [1], [1]]},
    "squarefree-single": {"n": 4, "generators": [[1, 1, 0, 1]]},
}
EDGE_COMMANDS = [
    ["sdepth", "--mode", "exact"],
    ["sdepth", "--mode", "exact", "--quotient"],
    ["sdepth", "--mode", "sqfree-construct"],
    ["partition"],
    ["resolve", "--check"],
]


@pytest.mark.parametrize("args", EDGE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(EDGE_IDEALS))
def test_edge_case_inputs(ideal_file, name, args):
    run_cli(args + ["--input", ideal_file(EDGE_IDEALS[name])])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                                min_size=1, max_size=4))),
       st.sampled_from(EDGE_COMMANDS))
def test_cli_on_random_small_ideals(ideal, args):
    # Zero vectors are refused (exit 2); repeats and non-minimal generators
    # are allowed, and every exit 0 writes the canonical JSON text.
    n, gens = ideal
    with tempfile.TemporaryDirectory() as directory:
        path = f"{directory}/ideal.json"
        with open(path, "w") as fh:
            json.dump({"n": n, "generators": gens}, fh)
        code = run_cli(args + ["--input", path])
    if not all(any(g) for g in gens):
        assert code == 2


@st.composite
def exact_modules(draw):
    """(n, generators, quotient) for sdepth --mode exact: n <= 3, exponents
    <= 2, and one exponent raised to 10..12 in some draws."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        g, k = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, n - 1))
        gens[g][k] = draw(st.integers(10, 12))
    return n, gens, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(exact_modules())
@example((1, [[10]], False))
@example((1, [[11], [3]], True))
@example((2, [[12, 0], [1, 1], [0, 2]], True))
def test_exact_mode_writes_the_json_of_its_result(module):
    # The streamed payload is json.dumps of exact_sdepth's result, written
    # to a file and to stdout.
    n, gens, quotient = module
    I = MonomialIdeal(n, [tuple(g) for g in gens])
    ideals = (MonomialIdeal(n, [(0,) * n]), I) if quotient else (I,)
    poset = stanley.char_poset_under_limit(*ideals)
    result = stanley.exact_sdepth(poset)
    expected = json.dumps({"sdepth": result.value, "g": list(poset.cap),
                           "intervals": [{"a": list(iv.bottom), "b": list(iv.top)}
                                         for iv in result.partition]},
                          indent=2, sort_keys=True) + "\n"
    argv = ["sdepth", "--mode", "exact"] + ["--quotient"] * quotient
    with tempfile.TemporaryDirectory() as directory:
        path, target = f"{directory}/ideal.json", f"{directory}/out.json"
        with open(path, "w") as fh:
            json.dump({"n": n, "generators": gens}, fh)
        assert main(argv + ["--input", path, "--output", target]) == 0
        with open(target) as fh:
            assert fh.read() == expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--input", path]) == 0
    assert out.getvalue() == expected


# ---------------------------------------------------------------------------
# Malformed ideal files


SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
           | st.text(max_size=5))
NOT_INT = (st.none() | st.booleans() | st.floats() | st.text(max_size=5)
           | st.lists(st.integers(0, 2), max_size=2)
           | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
INVALID_JSON = st.sampled_from([
    b"", b"{", b"[1, 2", b'{"n": 2, "generators": [[1, 0],]}', b"{'n': 1}",
    b'{"n": 1, "generators": [[1]]} trailing', b"\xff\xfe", b"[" * 5000,
]) | st.binary(max_size=8).map(lambda b: b"{" + b)
MALFORMED_KINDS = ("invalid-json", "non-object", "missing-keys", "wrong-n-type",
                   "nonpositive-n", "wrong-generators-type", "wrong-generator-type",
                   "wrong-exponent-type", "wrong-length", "negative-exponent",
                   "zero-generator")


@st.composite
def malformed_ideal_files(draw):
    """(kind, contents) of a file that is not an ideal file."""
    kind = draw(st.sampled_from(MALFORMED_KINDS))
    if kind == "invalid-json":
        return kind, draw(INVALID_JSON)
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=3))
    i = draw(st.integers(0, len(gens) - 1))
    k = draw(st.integers(0, n - 1))
    payload = {"n": n, "generators": gens}
    if kind == "non-object":
        payload = draw(SCALARS | st.lists(SCALARS, max_size=3) | st.just([payload]))
    elif kind == "missing-keys":
        payload = draw(st.sampled_from([{}, {"n": n}, {"generators": gens},
                                        {"N": n, "generators": gens}]))
    elif kind == "wrong-n-type":
        payload["n"] = draw(NOT_INT)
    elif kind == "nonpositive-n":
        payload["n"] = draw(st.integers(-3, 0))
    elif kind == "wrong-generators-type":
        payload["generators"] = draw(NOT_INT | st.just([]))
    elif kind == "wrong-generator-type":
        gens[i] = draw(SCALARS)
    elif kind == "wrong-exponent-type":
        gens[i][k] = draw(NOT_INT)
    elif kind == "wrong-length":
        if n == 1 or draw(st.booleans()):
            gens[i].append(0)
        else:
            gens[i].pop()
    elif kind == "negative-exponent":
        gens[i][k] = draw(st.integers(-3, -1))
    else:  # zero-generator
        gens.insert(i, [0] * n)
    return kind, json.dumps(payload).encode()


MALFORMED_COMMANDS = [["resolve"], ["initial", "--p", "1"], ["sdepth"], ["partition"]]


@settings(max_examples=200, deadline=None)
@given(malformed_ideal_files(), st.sampled_from(MALFORMED_COMMANDS))
@example(("wrong-generator-type", b'{"n": 1, "generators": ["a\\nb"]}'), ["sdepth"])
@example(("invalid-json", b"[" * 5000), ["resolve"])
def test_malformed_ideal_files_exit_2(malformed, args):
    _, content = malformed
    with tempfile.TemporaryDirectory() as directory:
        path = f"{directory}/ideal.json"
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + ["--input", path])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# One parser serves every call in a process: nothing of one call may reach
# the next.

GOLDEN_CASES = dict(golden.CASES)


def assert_golden(name):
    rc, out = golden._run(GOLDEN_CASES[name])
    with open(os.path.join(golden.GOLDEN, name + ".out")) as fh:
        assert (rc, out) == (golden._exit_codes()[name], fh.read()), name


def test_golden_cases_replayed_in_reverse_order():
    for name, _ in reversed(golden.CASES):
        assert_golden(name)


@pytest.mark.parametrize("argv", [
    ["resolve", "--minimize", "--check", "--method", "ek"],
    ["sdepth", "--input", "ideal.json", "--quotient", "--mode", "bogus"],
    ["verify", "--theorem", "theorem-main", "--trials", "many"],
], ids=["missing-input", "bad-choice", "bad-int"])
def test_argparse_error_then_a_valid_call(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    capsys.readouterr()
    assert_golden("resolve-taylor")
    assert_golden("sdepth-exact-triangle")


def test_flags_take_their_defaults_after_a_call_that_set_them():
    assert_golden("resolve-minimize-check")
    assert_golden("resolve-taylor")
    assert_golden("sdepth-quotient-triangle")
    assert_golden("sdepth-exact-triangle")


def test_main_builds_no_parser(monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "make_parser", refuse)
    assert_golden("resolve-minimize-check")


@pytest.mark.parametrize("name", ["sdepth-sqfree-path8", "verify-sqfree-stde"])
def test_output_file_holds_the_golden_stdout(tmp_path, name):
    path = str(tmp_path / "out")
    rc, out = golden._run(GOLDEN_CASES[name] + ["--output", path])
    assert out == ""
    with open(path) as fh, open(os.path.join(golden.GOLDEN, name + ".out")) as gh:
        assert (rc, fh.read()) == (golden._exit_codes()[name], gh.read())


# An --output file is written in place and cut at the end of what was
# written: it must never keep a tail of the file it overwrote, whether the
# call succeeds or fails, and it keeps its inode, so its mode and hard links.

def test_rewritten_output_file_drops_the_old_tail(tmp_path):
    name = "sdepth-exact-triangle"
    path = tmp_path / "out"
    path.write_bytes(b"junk\n" * 200_000)  # 1 MB
    rc, out = golden._run(GOLDEN_CASES[name] + ["--output", str(path)])
    with open(os.path.join(golden.GOLDEN, name + ".out"), "rb") as gh:
        assert (rc, out, path.read_bytes()) == (golden._exit_codes()[name], "", gh.read())


def test_failed_call_leaves_exactly_the_text_written(ideal_file, capsys, monkeypatch,
                                                     tmp_path):
    def broken(C):
        yield "[CHUNK]"
        raise RuntimeError("complex_json broke")

    monkeypatch.setattr(cli, "complex_json", broken)
    path = tmp_path / "out"
    path.write_text("old text " * 10_000)
    code = main(["resolve", "--input", ideal_file(LCM_TRIANGLE), "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert (captured.out, captured.err) == ("", "error: complex_json broke\n")
    assert path.read_text() == '{\n  "complex": [CHUNK]'


def test_output_to_dev_null_exits_0(ideal_file, capsys):
    assert main(["resolve", "--input", ideal_file(LCM_TRIANGLE), "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_to_dev_full_exits_2(ideal_file, capsys):
    code = main(["resolve", "--input", ideal_file(LCM_TRIANGLE), "--output", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file /dev/full: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_output_file_keeps_the_mode_and_hard_links_of_open(ideal_file, capsys, tmp_path):
    # A new file gets the mode open(path, "w") gives under the umask; an
    # existing file is rewritten through its inode, so a hard link sees it.
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    path = tmp_path / "out"
    argv = ["sdepth", "--input", ideal_file(LCM_TRIANGLE), "--output", str(path)]
    assert main(argv) == 0
    assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(os.stat(reference).st_mode)
    text = path.read_text()
    path.write_text("older and longer text " * 100)
    link = tmp_path / "link"
    os.link(path, link)
    assert main(argv) == 0
    assert link.read_text() == path.read_text() == text
    assert capsys.readouterr() == ("", "")


# The path on 10 vertices with the odd-indexed edges first: its Taylor
# complex is 1.4 MB of JSON.
PATH10_ODD_FIRST = {"n": 10, "generators": [[1 if j in (i, i + 1) else 0 for j in range(10)]
                                            for i in (0, 2, 4, 6, 8, 1, 3, 5, 7)]}


def _traced_peak(argv):
    """The tracemalloc peak of main(argv), which must exit 0, in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def _traced_peak_and_size(argv, tmp_path):
    """The tracemalloc peak of main(argv) writing to a file, and that
    file's size, in bytes."""
    target = str(tmp_path / "out.json")
    peak = _traced_peak(argv + ["--output", target])
    return peak, os.path.getsize(target)


def test_partition_peak_stays_below_its_output(ideal_file, tmp_path):
    # The certificate is written in batches of intervals, never held whole.
    peak, size = _traced_peak_and_size(["partition", "--input", ideal_file(SUPPORTS13)],
                                       tmp_path)
    assert size > 3_000_000
    assert peak < size


def test_dense_certificate_in_thirteen_variables_is_pinned(ideal_file, tmp_path):
    # No golden output reaches a membership table past n = 9; this pins the
    # 3.3 MB certificate of SUPPORTS13 byte for byte.
    target = tmp_path / "out.json"
    assert main(["partition", "--input", ideal_file(SUPPORTS13), "--output", str(target)]) == 0
    text = target.read_bytes()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (
        3_279_194, "e6d197aea47e38b4c495f626fde1f5a00b08e829693191c4203b012bf8e23fd0")


def test_sparse_filter_in_forty_variables_stays_small(tmp_path):
    # (x1...x38) in 40 variables has a filter of 4 sets; a membership table
    # of that filter would take 2^40 bytes.
    path = os.path.join(golden.GOLDEN, "inputs", "sparse40.json")
    peak = _traced_peak(["partition", "--input", path, "--output", str(tmp_path / "out.json")])
    assert peak < 1_000_000


def test_resolve_peak_stays_below_two_and_a_half_outputs(ideal_file, tmp_path):
    # The complex is written one differential at a time; the complex itself
    # and the largest differential's text are what stay in memory.
    peak, size = _traced_peak_and_size(["resolve", "--input", ideal_file(PATH10_ODD_FIRST)],
                                       tmp_path)
    assert size > 1_000_000
    assert peak < 2.5 * size


@pytest.mark.parametrize("args", [
    ["partition", "--input", "SUPPORTS13"],
    # Its 71 KB stream is more than a 64 KB pipe holds.
    ["verify", "--theorem", "lemma-groebner", "--trials", "500"],
], ids=["partition", "verify"])
def test_closed_stdout_exits_2(ideal_file, args):
    # A reader that stops early, as `| head -c 20` does: one error line, no
    # traceback and no "Exception ignored" line at interpreter exit.
    argv = [ideal_file(SUPPORTS13) if a == "SUPPORTS13" else a for a in args]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "syzdepth.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert os.read(proc.stdout.fileno(), 20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1


def test_sigterm_cuts_the_output_file(ideal_file, tmp_path):
    # `timeout` and `kill` send SIGTERM.  The program stops with 143, and the
    # file, longer before, holds exactly the text written, including the
    # chunk still buffered when the signal came.
    path = tmp_path / "out"
    path.write_text("old text " * 10_000)
    argv = ["resolve", "--input", ideal_file(LCM_TRIANGLE), "--output", str(path)]
    script = ("import sys, time\n"
              "from syzdepth import cli\n"
              "def stalled(C):\n"
              "    yield '[CHUNK]'\n"
              "    print('ready', file=sys.stderr, flush=True)\n"
              "    time.sleep(60)\n"
              "cli.complex_json = stalled\n"
              f"sys.argv = ['syzdepth'] + {argv!r}\n"
              "sys.exit(cli.main())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stderr.readline() == b"ready\n"
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (128 + signal.SIGTERM, b"", b"")
    assert path.read_text() == '{\n  "complex": [CHUNK]'


WARM_UP_ROUNDS = 12


def test_verify_peak_does_not_grow_with_trials(tmp_path):
    # Only the stream's text grows with the trials, and it is written line
    # by line.  Each traced call follows traced calls of 1,000 trials until
    # two peaks in a row agree within 1%, at most WARM_UP_ROUNDS of them.
    # They fill the exact search's bounded cache of ideal values and the
    # interpreter's free lists, which a full collection empties and one call
    # does not refill: from an empty cache and a full collection, six calls
    # in a row peak at about 607, 127, 64, 41, 35 and 35 KB.  So both peaks
    # measure the same working set, whatever the collector's state and the
    # free lists that earlier tests leave.
    def argv(trials):
        return ["verify", "--theorem", "regular", "--trials", str(trials),
                "--output", str(tmp_path / "stream")]

    def warm_up():
        previous = _traced_peak(argv(1000))
        for _ in range(WARM_UP_ROUNDS - 1):
            peak = _traced_peak(argv(1000))
            if abs(peak - previous) <= previous // 100:
                return
            previous = peak

    stanley._searched_ideal_sdepth.cache_clear()
    gc.collect()
    peaks = {}
    for trials in (100, 1000):
        warm_up()
        peaks[trials] = _traced_peak(argv(trials))
    assert peaks[1000] <= 1.5 * peaks[100]


# (x1 x2^E, x1^3) with E = 2^31 - 1, the largest exponent below the cap; its
# lcm closure has 4 degrees.  A table per exponent value up to E would hold
# 2^31 entries for x2.
LARGEST_EXPONENT = {"n": 2, "generators": [[1, 2**31 - 1], [3, 0]]}


@pytest.mark.parametrize("args", [["resolve", "--check"],
                                  ["initial", "--p", "1", "--basis", "lex", "--oracle"]],
                         ids=["resolve", "initial"])
def test_certificates_of_the_largest_exponent_stay_small(ideal_file, tmp_path, args):
    out = tmp_path / "out.json"
    peak = _traced_peak(args + ["--input", ideal_file(LARGEST_EXPONENT), "--output", str(out)])
    data = json.loads(out.read_text())
    if args[0] == "resolve":
        assert data["exactness"] == {"degrees_checked": 4, "ok": True}
    else:
        assert data["oracle_equal"] is True
    assert peak < 200_000


def test_exact_sdepth_of_one_far_point_stays_small(ideal_file, tmp_path):
    # The poset of (x1^E) has the single point E, and the search's tables
    # run from the points' least value up to the cap, not from 0.
    out = tmp_path / "out.json"
    peak = _traced_peak(["sdepth", "--input", ideal_file({"n": 1, "generators": [[2**31 - 1]]}),
                         "--output", str(out)])
    assert json.loads(out.read_text())["sdepth"] == 1
    assert peak < 200_000


@pytest.mark.parametrize("command", [["resolve"], ["initial", "--p", "1"], ["sdepth"],
                                     ["partition"]], ids=lambda command: command[0])
def test_an_exponent_at_the_cap_is_refused(ideal_file, capsys, command):
    # load_ideal is the one check of the generators, and the ideal it makes
    # is not checked again.
    code = main(command + ["--input", ideal_file({"n": 2,
                                                  "generators": [[2**31, 0], [0, 1]]})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: exponent overflow in (2147483648, 0)\n"


def test_initial_on_a_long_path_makes_two_levels(ideal_file, tmp_path):
    # The path on 13 variables has 12 generators and a Taylor complex of
    # 4,096 basis elements; Z_1 needs only F_1, F_2 and d_2.
    n = 13
    path = {"n": n, "generators": [[1 if j in (i, i + 1) else 0 for j in range(n)]
                                   for i in range(n - 1)]}
    peak = _traced_peak(["initial", "--input", ideal_file(path), "--p", "1",
                         "--basis", "boundary", "--oracle",
                         "--output", str(tmp_path / "out.json")])
    assert peak < 2_000_000


# One argv per subcommand that sets every option, and one with abbreviations.
EVERY_OPTION = [
    ["resolve", "--input", "a.json", "--method", "ek", "--minimize", "--check",
     "--output", "o.json"],
    ["initial", "--input", "a.json", "--method", "koszul", "--p", "2", "--basis", "boundary",
     "--oracle", "--output", "o.json"],
    ["sdepth", "--input", "a.json", "--mode", "filtration-bound", "--quotient", "--p", "3",
     "--output", "o.json"],
    ["partition", "--input", "a.json", "--output", "o.json"],
    ["verify", "--theorem", "mainsyz", "--trials", "7", "--seed", "5", "--n-max", "3",
     "--m-max", "6", "--exp-max", "2", "--output", "o.json"],
    ["initial", "--inp", "a.json", "--meth", "koszul", "--p=1", "--or"],
]


@pytest.mark.parametrize("argv", [argv for _, argv in golden.CASES] + EVERY_OPTION)
def test_subcommand_parser_gives_the_whole_parsers_namespace(argv):
    whole = vars(cli._PARSER.parse_args(argv))
    assert whole["command"] == argv[0]
    assert vars(cli._parse_args(argv)) == whole


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--bogus", "resolve"],
    *[[command, "--help"] for command in ("resolve", "initial", "sdepth", "partition", "verify")],
    ["initial", "--input", "a.json"],
    ["resolve", "--input", "a.json", "--method", "bogus"],
    ["initial", "--input", "a.json", "--p", "two"],
    ["verify", "--theorem", "regular", "--trials"],
    ["partition", "--input", "a.json", "--bogus"],
    ["resolve", "--input", "a.json", "extra"],
    ["sdepth", "--input", "a.json", "--p", "1", "--", "--mode"],
], ids=repr)
def test_parser_messages_are_the_whole_parsers(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    assert outcome(main) == outcome(cli._PARSER.parse_args)


# The whole parser's subcommand parsers, by name, read from argparse here,
# so that the strategies below do not depend on cli's grammar table.
SUBPARSERS = next(action.choices for action in cli._PARSER._actions
                  if isinstance(action, argparse._SubParsersAction))


# Token groups for one subcommand's argv, drawn from its parser's options:
# an exact option with a good value, an abbreviation, --opt=value, an odd
# or bad value, a value left out, and tokens that are no option.
ODD_VALUES = ["-1", "", "two", "--output"]


def _good_value(action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 99).map(str)
    return st.sampled_from(["a.json", "out dir/o.json", "x=y"])


@st.composite
def _token_group(draw, command):
    actions = [action for action in SUBPARSERS[command]._actions
               if action.option_strings and action.dest != "help"]
    action = draw(st.sampled_from(actions))
    option = action.option_strings[0]
    flag = action.nargs == 0
    value = draw(_good_value(action)) if not flag else None
    kind = draw(st.sampled_from(["exact", "exact", "exact", "abbreviation", "equals",
                                 "odd", "bad choice", "missing", "other"]))
    if kind == "abbreviation":
        short = option[:draw(st.integers(3, len(option) - 1))] if len(option) > 3 else option
        return [short] if flag else [short, value]
    if kind == "equals":
        return [f"{option}={value or ''}"]
    if kind == "odd" and not flag:
        return [option, draw(st.sampled_from(ODD_VALUES))]
    if kind == "bad choice" and action.choices is not None:
        return [option, "bogus"]
    if kind == "missing" and not flag:
        return [option]
    if kind == "other":
        return [draw(st.sampled_from(["--", "extra", "-h", "--help", "-x", "--bogus"]))]
    return [option] if flag else [option, value]


@st.composite
def subcommand_argv(draw):
    """A subcommand and its tokens: its required options with good values,
    unless dropped, and drawn groups, shuffled and joined."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    groups = []
    if draw(st.integers(0, 4)):
        groups += [[action.option_strings[0], draw(_good_value(action))]
                   for action in SUBPARSERS[command]._actions if action.required]
    groups += draw(st.lists(_token_group(command), max_size=8))
    groups = draw(st.permutations(groups))
    return [command] + [token for group in groups for token in group]


def _parse_outcome(parse, argv):
    """The namespace a parse gives, or the exit code and the text it writes
    to stdout and stderr before it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = vars(parse(argv))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "namespace", namespace, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(subcommand_argv())
@example(["verify", "--theorem", "mainsyz", "--trials", "2", "--trials", "3"])
@example(["resolve", "--input", "a.json", "--check", "--check", "--minimize"])
@example(["initial", "--input", "", "--p", "-1"])
@example(["initial", "--input", "a.json", "--p", "two"])
@example(["resolve", "--input", "--output"])
@example(["sdepth", "--input", "a.json", "--mode", "bogus"])
@example(["partition", "--input"])
@example(["partition", "--input", "a.json", "--", "extra"])
@example(["verify", "-h"])
@example(["verify", "--theo=mainsyz", "--tri=5", "--seed=3", "--m-m=5"])
def test_table_parse_gives_the_whole_parsers_outcome(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli._PARSER.parse_args, argv)


# One argv shaped like each kind of benchmark operation, with --input and
# --output as the benchmark passes them.
BENCH_SHAPED = [
    ["resolve", "--method", "taylor", "--check", "--minimize",
     "--input", "in/0000.json", "--output", "out/00000.json"],
    ["resolve", "--method", "ek", "--check", "--input", "in/0001.json", "--output", "out/00001.json"],
    ["initial", "--method", "taylor", "--p", "2", "--basis", "lex", "--oracle",
     "--input", "in/0002.json", "--output", "out/00002.json"],
    ["initial", "--method", "taylor", "--p", "1", "--basis", "boundary", "--oracle",
     "--input", "in/0002.json", "--output", "out/00003.json"],
    ["sdepth", "--mode", "exact", "--quotient", "--input", "in/0003.json",
     "--output", "out/00004.json"],
    ["sdepth", "--mode", "filtration-bound", "--p", "1", "--input", "in/0003.json",
     "--output", "out/00005.json"],
    ["sdepth", "--mode", "sqfree-construct", "--input", "in/0004.json",
     "--output", "out/00006.json"],
    ["partition", "--input", "in/0005.json", "--output", "out/00007.json"],
    *[["verify", "--theorem", theorem, "--trials", "1", "--seed", "1234", "--n-max", "5",
       "--m-max", "6", "--exp-max", "3", "--output", "out/00008.json"]
      for theorem in ("theorem-main", "boundary-gb", "lemma-groebner", "mainsyz")],
]


@pytest.mark.parametrize("argv", [argv for _, argv in golden.CASES] + BENCH_SHAPED, ids=repr)
def test_well_formed_argv_parses_without_argparse(monkeypatch, argv):
    whole = vars(cli._PARSER.parse_args(argv))
    assert whole["command"] == argv[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed argv went to argparse")

    # Every argparse parse, of any parser, runs parse_known_args.
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert vars(cli._parse_args(argv)) == whole
