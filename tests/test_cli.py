import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth.cli import _dumps, main
from syzdepth.complexes import minimize

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
    code, data = run_json(["resolve", "--input", ideal_file(SQUARES),
                           "--check", "--box", "3,3"], capsys)
    assert code == 0
    assert data["exactness"]["ok"] and data["exactness"]["box"] == [3, 3]


def test_resolve_ek_rejects_nonstable(ideal_file, capsys):
    path = ideal_file({"n": 2, "generators": [[0, 1]]})
    code = main(["resolve", "--input", path, "--method", "ek"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not stable" in err


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
    code, data = run_json(["resolve", "--input", ideal_file(LCM_TRIANGLE),
                           "--minimize", "--check"], capsys)
    assert code == 1
    assert data["rank_table"]["minimized"] == [1, 3]
    assert not data["exactness"]["ok"]


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


def test_lifting_failure_exits_3(ideal_file, capsys, monkeypatch):
    # A lift that finds no preimage means the library built a complex that is
    # not exact: an internal error, not bad input.  The patched lift asks the
    # slice solver for the basis element e_0 itself, which no image reaches.
    from syzdepth import complexes
    from syzdepth.freemod import ModuleVector

    monkeypatch.setattr(complexes, "lift_through", lambda C, p, z: complexes._lift_by_slice(
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
