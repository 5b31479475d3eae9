"""Every FAIL report of the verify streams, pinned byte for byte.

The theorems hold on every instance the streams draw, so a FAIL report is
reached only with a check forced to fail.  Each case patches the checks
one stream reads, on the syzdepth.verify module (and on blocks for the
squarefree lower bound), so that one of its FAIL returns is taken, then
runs the stream through the CLI and pins the SHA-256 of its stdout.  A
forced check wraps the real one where it can, so the witness it leaves
still carries the real computation.
"""

import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

from syzdepth import blocks, groebner, stanley, syzygy, verify
from syzdepth.cli import main


def _failing_theorem_main(C, p):
    return dataclasses.replace(syzygy.verify_theorem_main(C, p), status="FAIL")


class _Unequal:
    """A boundary report that compares unequal, with the real report's JSON."""

    equal = False

    def __init__(self, report):
        self.report = report

    def to_jsonable(self):
        return {**self.report.to_jsonable(), "equal": False}


def _unequal_boundary_gb(C, p, taylor_gens=None):
    return _Unequal(syzygy.verify_boundary_gb(C, p, taylor_gens=taylor_gens))


def _unequal_eliahou_kervaire(C, p, taylor_gens=None):
    # Only the Eliahou-Kervaire half calls without the Taylor generators.
    report = syzygy.verify_boundary_gb(C, p, taylor_gens=taylor_gens)
    return report if taylor_gens is not None else _Unequal(report)


def _low_filtration_bound(ini):
    bound = stanley.filtration_lower_bound(ini)
    return bound._replace(free=False, value=bound.value - 100)


def _low_exact_sdepth(poset):
    result = stanley.exact_sdepth(poset)
    return result._replace(value=result.value - 100)


def _no_leading_components(rows, degrees, basis):
    groebner._leading_module(rows, degrees, basis)
    return groebner.InitialModule(basis, ())


def _refusing_compose(*args, **kwargs):
    raise RuntimeError("forced composition failure")


def _refusing_partition(poset, intervals):
    raise ValueError("forced partition failure")


# (case, theorem, patches as (module, name, replacement), what every FAIL
# witness holds, SHA-256 of the 12-trial stream at seed 0)
CASES = [
    ("theorem-main", "theorem-main",
     [(verify, "verify_theorem_main", _failing_theorem_main)],
     {"theorem": "theorem-main", "status": "FAIL"},
     "e08955173f23517ad8b62d7829126f11ba8c0815766be5159b2a69f6d704c372"),
    ("boundary-gb-taylor", "boundary-gb",
     [(verify, "verify_boundary_gb", _unequal_boundary_gb)],
     {"complex": "taylor", "equal": False},
     "5c0508fd6540b7720f5c3a9fb13b054c1417d10dae0749463aa3ffac3eda6175"),
    ("boundary-gb-eliahou-kervaire", "boundary-gb",
     [(verify, "verify_boundary_gb", _unequal_eliahou_kervaire)],
     {"complex": "eliahou-kervaire", "equal": False},
     "08ef1d18999928dc1cf6c05e64f61d8a3737a381e500482e46980106fac4b178"),
    ("lemma-groebner-components", "lemma-groebner",
     [(verify, "_leading_module", _no_leading_components)],
     {"i": 1},
     "5f1acb74d9139e2f024d6d8aa99d522466deffcdb8b25a1966b5dd7e59986fda"),
    ("lemma-groebner-compose", "lemma-groebner",
     [(verify, "compose_cone_gb", _refusing_compose)],
     {"compose_error": "forced composition failure"},
     "0a0711930c4518dc8b6344b8cc4e4375466e555702b09a01c8a1ac8224861efb"),
    ("mainsyz", "mainsyz",
     [(verify, "filtration_lower_bound", _low_filtration_bound)],
     {},
     "1a18f72d26d569afaff135126707fa7f92dd60fe53b963586c39d3752ef4d440"),
    ("regular", "regular",
     [(verify, "filtration_lower_bound", _low_filtration_bound)],
     {},
     "29d09143c87160ee9ada6255d797c7f102b420e8e31526d5ad80f4bccd509d6a"),
    ("sqfree-stde-partition", "sqfree-stde",
     [(verify, "validate_partition", _refusing_partition)],
     {"error": "forced partition failure"},
     "dfcbebacd0afac120df68aca4d46f6585d262e6b46c086bf83e9208d63627e21"),
    ("sqfree-stde-min-top", "sqfree-stde",
     [(blocks, "sqfree_lower_bound", lambda n: n + 1)],
     {},
     "f85fe8d520ae7d21f705fbe278f720ab5874a83a94b898c07ece9234ba9e379c"),
    ("sqfree-stde-exact", "sqfree-stde",
     [(verify, "exact_sdepth", _low_exact_sdepth)],
     {},
     "c553cb3088ad2782a04b6c6984477350f5543891f85a045d1fe5a3b83c5bc201"),
    ("squarefree-not-squarefree", "squarefree",
     [(verify, "is_squarefree_module", lambda ini: False)],
     {"reason": "initial module not squarefree"},
     "fbab0a9b09724c6862ae4b5829783a16523bd7b0defafd808e90a61e013e1513"),
    ("squarefree-bound", "squarefree",
     [(verify, "filtration_lower_bound", _low_filtration_bound)],
     {},
     "f8e86abaaf303ed97b93daa41af50027c64d7465df284551f01e18c58230e9a6"),
]

# The witness keys of each FAIL return the cases reach.
WITNESS_KEYS = {
    "theorem-main": {"complex", "instance", "theorem", "p", "status", "witness"},
    "boundary-gb-taylor": {"complex", "p", "equal", "boundary", "oracle", "closed_form"},
    "boundary-gb-eliahou-kervaire": {"complex", "p", "equal", "boundary", "oracle"},
    "lemma-groebner-components": {"i", "cone"},
    "lemma-groebner-compose": {"i", "compose_error"},
    "mainsyz": {"p", "bound", "required"},
    "regular": {"p", "bound", "required"},
    "sqfree-stde-partition": {"error"},
    "sqfree-stde-min-top": {"min_top", "bound"},
    "sqfree-stde-exact": {"exact", "bound"},
    "squarefree-not-squarefree": {"p", "reason"},
    "squarefree-bound": {"p", "bound", "required"},
}


@pytest.mark.parametrize("case, theorem, patches, marker, digest", CASES,
                         ids=[case[0] for case in CASES])
def test_forced_failures_keep_their_bytes(monkeypatch, case, theorem, patches, marker,
                                          digest):
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["verify", "--theorem", theorem, "--trials", "12", "--seed", "0"])
    out = buffer.getvalue()
    reports = [json.loads(line) for line in out.splitlines()]
    failed = [report for report in reports if report["status"] == "FAIL"]
    assert code == 1 and failed
    assert [report["trial"] for report in reports] == list(range(12))
    for report in failed:
        assert set(report) == {"theorem", "instance", "status", "witness", "trial"}
        assert report["theorem"] == theorem
        assert set(report["witness"]) == WITNESS_KEYS[case]
        assert marker.items() <= report["witness"].items()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
