import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import test_golden_cli as golden
from syzdepth import blocks, cli, complexes, groebner, monomials
from syzdepth.cli import InputError, _dumps, load_ideal, main
from syzdepth.complexes import check_exactness_on_box, minimize, taylor_complex
from test_complexes import reference_complex_to_jsonable
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
    # output reads the columns without checking them a third time.
    with mock.patch.object(complexes, "_complex_rows", wraps=complexes._complex_rows) as full:
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
    real = groebner.initial_module

    def damaged(gens, order):
        ini = real(gens, order)
        first = ini.components[0]
        return InitialModule(ini.basis, (MonomialIdeal(first.n, first.gens[1:]),)
                             + ini.components[1:])

    monkeypatch.setattr(groebner, "initial_module", damaged)
    code, data = run_json(["initial", "--input", ideal_file(LCM_TRIANGLE), "--p", "0",
                           "--basis", basis, "--oracle"], capsys)
    assert code == 1
    assert data["oracle_equal"] is False
    assert data["failing_degree"]


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
    code = main(["partition", "--input", ideal_file(SQUARES)])
    assert code == 2
    assert "squarefree" in capsys.readouterr().err


def test_resolve_check_certifies_the_minimized_complex(ideal_file, capsys, monkeypatch):
    # A minimization that loses the top level emits a complex that is not a
    # resolution; the certificate must be taken on that emitted complex.
    from syzdepth import cli
    from syzdepth.complexes import FreeComplex

    def truncated(C):
        M = minimize(C)
        return FreeComplex(M.n, M.bases[:-1],
                           [M.differential(p) for p in range(1, M.length)])

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
    (["--theorem", "lemma-groebner", "--n-max", "1"],
     "--n-max must be at least 2 for lemma-groebner"),
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
    # not exact: an internal error, not bad input.  The patched lift asks the
    # Groebner fallback for the basis element e_0 itself, which no image
    # reaches.
    from syzdepth import complexes
    from syzdepth.freemod import ModuleVector

    monkeypatch.setattr(complexes, "lift_through", lambda C, p, z: complexes._lift_by_groebner(
        C, p, ModuleVector.generator(C.n, 0, C.basis(p - 1).degree(0))))
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
    from syzdepth import stanley

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
@example((16, golden.INPUTS["wide16"]["generators"]))
@example((17, golden.INPUTS["wide17"]["generators"]))
def test_squarefree_certificate_matches_the_reference_payload(ideal):
    n, gens = ideal
    I = MonomialIdeal(n, monomials.minimalize_ordered(tuple(g) for g in gens))
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
    expected = monomials.minimalize_ordered(tuple(g) for g in gens)
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


# A squarefree ideal on 13 variables with 8 supports of size 2-3: its
# certificate is 3.3 MB, nearly all of it singleton intervals.
SUPPORTS13 = golden._squarefree(13, [{1, 7, 13}, {7, 8, 9}, {6, 8, 10}, {3, 9}, {2, 3, 10},
                                     {9, 10, 12}, {2, 5}, {6, 11}])
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


def test_verify_peak_does_not_grow_with_trials(tmp_path):
    # Only the stream's text grows with the trials, and it is written line
    # by line.  Each traced call follows an untraced call of 1,000 trials,
    # which fills the exact search's bounded cache of ideal values and the
    # interpreter's free lists up to the largest trial, so that both peaks
    # measure the same working set.
    def argv(trials):
        return ["verify", "--theorem", "regular", "--trials", str(trials),
                "--output", str(tmp_path / "stream")]

    peaks = {}
    for trials in (100, 1000):
        assert main(argv(1000)) == 0
        peaks[trials] = _traced_peak(argv(trials))
    assert peaks[1000] <= 1.5 * peaks[100]


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
    assert whole.pop("command") == argv[0]
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
