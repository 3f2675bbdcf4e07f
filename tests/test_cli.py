"""CLI surface: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trivolve import cli, spectra
from trivolve.algebra import Subspace, cyclic_group_table, group_algebra
from trivolve.cli import _render, _render_text, build_parser, main, run
from trivolve.errors import UsageError
from trivolve.instances import standard_group_involution
from trivolve.serialization import dumps_report

from spec_writers import (SAMPLE_COMMANDS, SAMPLE_SPECS, algebra_to_json, array_to_json,
                          count_calls, jsonable, map_to_json)


@pytest.fixture()
def spec_files(tmp_path, c2, remark_tau):
    algebra_path = tmp_path / "c2.json"
    algebra_path.write_text(json.dumps(algebra_to_json(c2)))
    map_path = tmp_path / "tau.json"
    map_path.write_text(json.dumps(map_to_json(remark_tau)))
    return str(algebra_path), str(map_path)


Z2_SPEC = SAMPLE_SPECS / "z2.json"
SRC = Path(__file__).resolve().parent.parent / "src"

BIG_NONASSOCIATIVE = {"dim": 3, "structure": (
    1e200 * np.random.default_rng(0).standard_normal((3, 3, 3))).tolist()}


def reject_constant(constant):
    raise ValueError(f"report holds {constant}")


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_check_reports_proper_trivolution(spec_files, tmp_path):
    algebra, tau = spec_files
    code, report = run_cli(["check", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0
    assert report["classification"] == "trivolution_proper"


def test_check_involution(tmp_path, m2, m2_star):
    algebra_path = tmp_path / "m2.json"
    algebra_path.write_text(json.dumps(algebra_to_json(m2)))
    map_path = tmp_path / "star.json"
    map_path.write_text(json.dumps(map_to_json(m2_star)))
    code, report = run_cli(["check", "--algebra", str(algebra_path),
                            "--map", str(map_path)], tmp_path)
    assert code == 0
    assert report["classification"] == "involution"


def test_decompose(spec_files, tmp_path):
    algebra, tau = spec_files
    code, report = run_cli(["decompose", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0
    assert report["decomposition"]["p"] == [[[1.0, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.0, 0.0]]]
    assert max(report["residuals"].values()) <= 1e-9


def test_extend_lists_all_families(spec_files, tmp_path):
    algebra, tau = spec_files
    code, report = run_cli(["extend", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0
    families = sorted(e["family"] for e in report["extensions"])
    assert families == ["type_I", "type_I", "type_II"]
    norms = sorted(e["norm_of_extension"] for e in report["extensions"])
    assert norms == [1.0, 1.0, 2.0]


def test_parse_error_exit_code(tmp_path):
    structure = np.zeros((2, 2, 2))
    structure[0, 0, 0] = 1.0
    structure[0, 1, 0] = 1.0
    structure[1, 0, 0] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "structure": array_to_json(structure)}))
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"matrix": array_to_json(np.eye(2)), "conjugating": True}))
    code, report = run_cli(["check", "--algebra", str(bad), "--map", str(tau)], tmp_path)
    assert code == 2
    assert report["error"] == "ParseError"
    assert "associativity" in report["message"]


def test_certification_failure_exit_code(spec_files, tmp_path):
    algebra, _ = spec_files
    linear = tmp_path / "linear.json"
    linear.write_text(json.dumps({"matrix": array_to_json(np.eye(2)),
                                  "conjugating": False}))
    code, report = run_cli(["decompose", "--algebra", algebra,
                            "--map", str(linear)], tmp_path)
    assert code == 1
    assert report["error"] == "CertificationFailure"
    assert report["law"] == "conjugate-linear anti-homomorphism with t^3 = t"


def test_map_of_another_algebra_is_usage_error(tmp_path):
    (tmp_path / "z2.json").write_text(Z2_SPEC.read_text())
    other = tmp_path / "on_z2.json"
    other.write_text(json.dumps({"matrix": array_to_json(np.eye(2)), "conjugating": True,
                                 "source": "z2.json"}))
    code, report = run_cli(["check", "--algebra", str(SAMPLE_SPECS / "c2.json"),
                            "--map", str(other)], tmp_path)
    assert code == 2
    assert report == {"command": "check", "error": "UsageError", "message":
                      "classify_star_map expects an endomorphism of the given algebra"}


def test_function_family_on_a_group_algebra_is_usage_error(tmp_path):
    code, report = run_cli(["search", "--algebra", str(Z2_SPEC), "--family", "function"],
                           tmp_path)
    assert code == 2
    assert report == {"command": "search", "error": "UsageError", "message":
                      "function_indicator requires a pointwise function algebra"}


def test_missing_flag_is_usage_error(tmp_path):
    code, report = run_cli(["check"], tmp_path)
    assert code == 2


def test_spectra_inclusion(spec_files, tmp_path):
    algebra, tau = spec_files
    code, report = run_cli(["spectra", "--algebra", algebra, "--map", tau,
                            "--element", "[[2, 1], [5, 0]]"], tmp_path)
    assert code == 0
    assert report["inclusion"]["included"]
    assert report["inclusion"]["range_spectrum"] == [[2.0, -1.0]]


def test_arens_and_search(tmp_path, z2, c3):
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(json.dumps(algebra_to_json(z2)))
    code, report = run_cli(["arens", "--algebra", str(z2_path)], tmp_path)
    assert code == 0
    assert report["regular"] is True

    c3_path = tmp_path / "c3.json"
    c3_path.write_text(json.dumps(algebra_to_json(c3)))
    code, report = run_cli(["search", "--algebra", str(c3_path),
                            "--family", "function"], tmp_path, name="search.json")
    assert code == 0
    assert report["count"] == 11


def test_tim_with_involution(tmp_path, z2, z2_involution):
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(json.dumps(algebra_to_json(z2)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(z2_involution)))
    code, report = run_cli(["tim", "--algebra", str(z2_path),
                            "--map", str(theta_path)], tmp_path)
    assert code == 0
    assert report["characters"] == 2
    for entry in report["means"]:
        assert entry["affine_dim"] == 0
        assert entry["obstruction"]["unique"]


def test_tim_on_a_subspace_solves_only_the_characters_in_it(tmp_path):
    # X = span{e1*} on C^2 holds the character e1* and misses e2*
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"basis": [[1, 0]]}))
    argv = ["tim", "--algebra", str(SAMPLE_SPECS / "c2.json"), "--dual-basis", str(line)]
    code, report = run_cli(argv, tmp_path)
    assert code == 0 and report["characters"] == 1
    assert [entry["particular"] for entry in report["means"]] == [[[1.0, 0.0], [0.0, 0.0]]]
    code, report = run_cli(argv + ["--character", "[0, 1]"], tmp_path, name="outside.json")
    assert code == 1
    assert report["error"] == "CertificationFailure" and report["law"] == "phi in X"


@pytest.mark.parametrize("command", ["arens", "tim"])
# X holds the character 1 of C[Z3], or no character, and then tim solves for none
@pytest.mark.parametrize("basis", [[[1, 1, 1], [1, 0, 0]], [[1, 0, 0]]], ids=["char", "none"])
def test_a_subspace_that_is_not_introverted_fails(tmp_path, command, basis):
    # the module actions on X* need X introverted: both commands fail the law, with its witness
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps({"group": {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"basis": basis}))
    code, report = run_cli([command, "--algebra", str(z3), "--dual-basis", str(x)], tmp_path)
    assert code == 1
    assert report["law"] == "X topologically introverted"
    assert report["details"] == {"escape": "lambda_0 . b_1 escapes X"}


@pytest.mark.parametrize("command", ["arens", "tim"])
def test_no_involution_extends_to_the_zero_x_star(tmp_path, command, z2_involution):
    # X = 0 makes X* the zero algebra, whose one map is zero, and a star map is not zero:
    # the extension fails its law with a report, where it used to raise a ValueError
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(map_to_json(z2_involution)))
    code, report = run_cli([command, "--algebra", str(Z2_SPEC), "--map", str(theta),
                            "--dual-basis", str(SAMPLE_SPECS / "x_zero.json")], tmp_path)
    assert code == 1
    assert report["law"] == "Theta is an involution on (X*, box)"


def test_unsupported_search_family_names_the_two(tmp_path):
    code, report = run_cli(["search", "--algebra", str(Z2_SPEC), "--family", "pairs"], tmp_path)
    assert code == 2
    assert report == {"command": "search", "error": "UsageError", "message":
                      "unsupported CLI family 'pairs'; use 'function' or 'group'"}


def test_the_seed_is_read_from_no_environment_variable(monkeypatch, capsys):
    # --seed is the one setting: a TRIVOLVE_SEED that is not even an integer is not read
    monkeypatch.setenv("TRIVOLVE_SEED", "abc")
    code = main(["check", "--algebra", str(SAMPLE_SPECS / "c2.json"),
                 "--map", str(SAMPLE_SPECS / "tau.json")])
    out, err = capsys.readouterr()
    assert code == 0 and err == "" and "trivolution_proper" in out


def test_suite_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["suite", "--seed", "3", "--format", "json", "--out", str(first)]) == 0
    assert main(["suite", "--seed", "3", "--format", "json", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_decompose_classifies_each_map_once(spec_files, tmp_path, monkeypatch):
    # tau, p = tau^2 and rho = tau|_B: one multiplicativity check each, each a single map;
    # tau's verdict is kept on tau, so certifying it again costs no second check
    calls = count_calls(monkeypatch, "classify_multiplicativity")
    classified = count_calls(monkeypatch, "classify_star_map")
    algebra, tau = spec_files
    code, report = run_cli(["decompose", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and report["classification"] == "trivolution_proper"
    assert len(calls) == 3 and [f.matrix.ndim for (f,) in calls] == [2, 2, 2]
    assert [f.conjugating for (f,) in calls] == [True, False, True] and len(classified) == 2


def test_hom_on_one_algebra_decomposes_once(spec_files, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "canonical_decomposition")
    algebra, tau = spec_files
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps({"matrix": array_to_json(np.eye(2)), "conjugating": False}))
    code, report = run_cli(["hom", "--algebra", algebra, "--map", tau,
                            "--map3", str(pi)], tmp_path)
    assert code == 0 and report["residuals"]["off_diagonal"] == 0.0
    assert len(calls) == 1


def test_tim_solves_once_per_character(tmp_path, z2, z2_involution, monkeypatch):
    calls = count_calls(monkeypatch, "tim_set")
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(json.dumps(algebra_to_json(z2)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(z2_involution)))
    code, report = run_cli(["tim", "--algebra", str(z2_path),
                            "--map", str(theta_path)], tmp_path)
    assert code == 0 and all(entry["obstruction"]["unique"] for entry in report["means"])
    # one call, whose (2, 2) stack holds each character once
    (_, characters), = calls
    assert characters.shape == (report["characters"], 2) == (2, 2)
    assert [entry["character"] for entry in report["means"]] == [
        [[v.real, v.imag] for v in phi] for phi in characters]


def z4_with_involution(tmp_path):
    """Spec files of standard-basis C[Z4] and its standard involution: ``(algebra, theta)``."""
    table = cyclic_group_table(4)
    z4 = group_algebra(table)
    z4_path = tmp_path / "z4.json"
    z4_path.write_text(json.dumps(algebra_to_json(z4)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(standard_group_involution(z4, table))))
    return str(z4_path), str(theta_path)


def test_tim_classifies_star_once_and_builds_arens_once(tmp_path, monkeypatch):
    # theta and its extension are classified inside extend_involution, once
    # each, and the command classifies neither again for the four characters;
    # X* = A / X^perp with its Arens product is one quotient per command
    z4_path, theta_path = z4_with_involution(tmp_path)
    classified = count_calls(monkeypatch, "classify_star_map")
    quotients = count_calls(monkeypatch, "quotient")
    code, report = run_cli(["tim", "--algebra", z4_path, "--map", theta_path], tmp_path)
    assert code == 0 and report["characters"] == 4
    assert all(entry["obstruction"]["unique"] for entry in report["means"])
    assert len(classified) == 2 and len(quotients) == 1
    code, report = run_cli(["arens", "--algebra", z4_path, "--map", theta_path], tmp_path)
    assert code == 0 and "extension" in report
    assert len(quotients) == 2


def test_tim_obstruction_check_reduces_nothing(tmp_path, monkeypatch):
    # a.m*, m*.a and the classes of the basis are read off the quotient and its map,
    # built once per space: the chain of the four characters' stack makes no reduction
    z4_path, theta_path = z4_with_involution(tmp_path)
    reduced, per_check = [], []
    original_check, original_reduce = cli.tim_obstruction_check, Subspace.reduce

    def check(*args):
        before = len(reduced)
        result = original_check(*args)
        per_check.append(len(reduced) - before)
        return result

    def counted_reduce(self, columns):
        reduced.append(columns)
        return original_reduce(self, columns)

    monkeypatch.setattr(cli, "tim_obstruction_check", check)
    monkeypatch.setattr(Subspace, "reduce", counted_reduce)
    code, report = run_cli(["tim", "--algebra", z4_path, "--map", theta_path], tmp_path)
    assert code == 0 and report["characters"] == 4
    assert per_check == [0]


def test_extend_builds_range_identity_once_per_solver(spec_files, tmp_path, monkeypatch):
    # find_type1_solutions builds tau's image and the range identity once, and verifies
    # its two family-I candidates and the type-II record the command reports in one call
    built = count_calls(monkeypatch, "range_identity")
    imaged = count_calls(monkeypatch, "kernel_image")
    induced = count_calls(monkeypatch, "induced_subalgebra")
    verified = count_calls(monkeypatch, "verify_extension")
    algebra, tau = spec_files
    code, report = run_cli(["extend", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and report["count"] == 3 and len(verified) == 1
    (_, _, lambdas, columns), = verified
    assert lambdas.tolist() == [1, 1, 0] and columns.shape == (2, 3)
    assert report["extensions"][-1]["family"] == "type_II"
    assert len(built) == len(imaged) == 1 and len(induced) == 2


def test_extend_unitizes_the_algebra_once(spec_files, tmp_path, monkeypatch):
    # every candidate extension lives on the one cached unitization, and the three are
    # built as one family, which classify_star_map decides in one call
    unitized = count_calls(monkeypatch, "unitize_algebra")
    extended = count_calls(monkeypatch, "extension_map")
    classified = count_calls(monkeypatch, "classify_star_map")
    algebra, tau = spec_files
    code, report = run_cli(["extend", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and report["count"] == 3 and len(extended) == 1
    assert [f.matrix.shape for _, f in classified] == [(2, 2), (3, 3, 3)]
    assert len(unitized) == 1


@pytest.mark.parametrize("form", ["structure", "group"])
def test_a_norm_other_than_ell1_is_parse_error(spec_files, tmp_path, c2, form):
    # the ell-1 norm is the only one, and exact: no other norm tag is read
    _, tau = spec_files
    spec = algebra_to_json(c2) if form == "structure" else json.loads(Z2_SPEC.read_text())
    opnorm = tmp_path / "opnorm.json"
    opnorm.write_text(json.dumps({**spec, "norm": "opnorm"}))
    code, report = run_cli(["check", "--algebra", str(opnorm), "--map", tau], tmp_path)
    assert code == 2
    assert report == {"command": "check", "error": "ParseError",
                      "message": 'unknown norm tag \'opnorm\'; the one norm is "ell1"'}


def test_a_group_spec_member_it_does_not_read_is_parse_error(spec_files, tmp_path):
    # the structure form's members do not describe a group algebra: no silent C[Z2]
    _, tau = spec_files
    spec = {**json.loads(Z2_SPEC.read_text()), "dim": 7, "structure": "junk", "identity": [5, 5]}
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(spec))
    code, report = run_cli(["check", "--algebra", str(mixed), "--map", tau], tmp_path)
    assert code == 2 and report["error"] == "ParseError"
    assert "'dim', 'structure', 'identity'" in report["message"]


def test_non_finite_spec_is_usage_error(spec_files, tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    _, tau = spec_files
    bad = tmp_path / "nan.json"
    bad.write_text('{"dim": 2, "structure": [[[1, 0], [NaN, 0]], [[0, 0], [0, 1]]], '
                   '"identity": [1, 1]}')
    code = main(["check", "--algebra", str(bad), "--map", tau, "--format", "json"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 2
    assert report["error"] == "ParseError"


@pytest.mark.parametrize("command, flag, content", [
    ("arens", "--dual-basis", {"foo": 1}),
    ("arens", "--dual-basis", {"basis": 5}),
    ("search", "--params", {}),
    ("search", "--params", {"table": 5}),
    ("check", "--map", [1, 2]),
    ("search", "--params", {"table": [[0, 1], [1, 0]], "normal_subgroups": 5}),
    ("search", "--params", {"table": [[0, 1], [1, 0]], "normal_subgroups": [[7]]}),
    ("search", "--params", {"table": [[0, 1]]}),
    ("check", "--algebra", {"group": {"table": [[0, 1.7], [1.2, 0]]}}),
    ("check", "--algebra", {"dim": 2, "identity": [1, 10**400],
                            "structure": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}),
    ("check", "--map", {"matrix": [[1, [0, 0]], [0, 0]], "conjugating": True}),
    ("check", "--algebra", BIG_NONASSOCIATIVE),
    ("arens", "--algebra", BIG_NONASSOCIATIVE),
], ids=["dual-basis-no-key", "dual-basis-not-list", "params-no-table",
        "params-table-not-matrix", "map-not-object", "params-subgroups-not-list",
        "params-subgroup-index-out-of-range", "params-table-not-square",
        "group-table-not-integer", "identity-overflows-float", "map-mixes-reals-and-pairs",
        "check-products-overflow", "arens-products-overflow"])
def test_malformed_spec_file_is_usage_error(tmp_path, z2, command, flag, content):
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(json.dumps(algebra_to_json(z2)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    args = [command, "--algebra", str(z2_path), flag, str(bad)]
    if command == "search":
        args += ["--family", "group"]
    code, report = run_cli(args, tmp_path)
    assert code == 2 and report["error"] == "ParseError"


def test_tim_solves_each_character_with_one_eigh(tmp_path, monkeypatch):
    # tim_set decides each character by its k x k Gram matrix, and the four characters'
    # stack by one batched eigh, with no SVD and no lstsq; the annihilator's SVD belongs
    # to check_introverted, which builds X* once for every character
    table = cyclic_group_table(4)
    z4 = group_algebra(table)
    z4_path = tmp_path / "z4.json"
    z4_path.write_text(json.dumps(algebra_to_json(z4)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(standard_group_involution(z4, table))))
    where: list[str] = []
    calls: list[tuple[str, str | None]] = []

    def inside(label, fn):
        def wrapped(*args, **kwargs):
            where.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return wrapped

    def recorded(label, fn):
        def wrapped(*args, **kwargs):
            calls.append((label, where[-1] if where else None))
            return fn(*args, **kwargs)
        return wrapped

    tim_calls = count_calls(monkeypatch, "tim_set")
    for key, module in sorted(sys.modules.items()):
        if key.split(".")[0] == "trivolve" and hasattr(module, "tim_set"):
            monkeypatch.setattr(module, "tim_set", inside("tim_set", module.tim_set))
    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", recorded("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", recorded("lstsq", np.linalg.lstsq))
    code, report = run_cli(["tim", "--algebra", str(z4_path), "--map", str(theta_path)],
                           tmp_path)
    assert code == 0 and report["characters"] == 4 and len(tim_calls) == 1
    assert all(entry["affine_dim"] == 0 for entry in report["means"])
    in_tim_set = [label for label, site in calls if site == "tim_set"]
    assert in_tim_set == ["eigh"]


def blas_name() -> str:
    """The name of the BLAS numpy was built against, lower case; empty when numpy cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError):  # numpy before 1.25 has no ``mode``
        return ""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a BLAS caps its threads at the CPU count, so one CPU cannot "
                           "run a second BLAS thread to compare against")
@pytest.mark.skipif(not any(name in blas_name() for name in ("openblas", "mkl")),
                    reason="the thread count is set through OpenBLAS's and MKL's variables; "
                           "under another BLAS both runs would use the same setting")
def test_tim_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    table = cyclic_group_table(24)
    z24 = group_algebra(table)
    z24_path = tmp_path / "z24.json"
    z24_path.write_text(json.dumps(algebra_to_json(z24)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(standard_group_involution(z24, table))))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def report(threads: int) -> bytes:
        env = {**os.environ, "PYTHONPATH": path,
               **{variable: str(threads) for variable in
                  ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}}
        return subprocess.run(
            [sys.executable, "-m", "trivolve.cli", "tim", "--algebra", str(z24_path),
             "--map", str(theta_path), "--format", "json"],
            env=env, capture_output=True, check=True, timeout=300).stdout

    one = report(1)
    assert json.loads(one)["characters"] == 24
    assert report(2) == one


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a BLAS caps its threads at the CPU count, so one CPU cannot "
                           "run a second BLAS thread to compare against")
@pytest.mark.skipif(not any(name in blas_name() for name in ("openblas", "mkl")),
                    reason="the thread count is set through OpenBLAS's and MKL's variables; "
                           "under another BLAS both runs would use the same setting")
@pytest.mark.parametrize("command", ["extend", "search"])
def test_stacked_reports_do_not_depend_on_the_blas_thread_count(command):
    # extend and search decide their candidates as stacks of BLAS products
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def report(threads: int) -> bytes:
        env = {**os.environ, "PYTHONPATH": path,
               **{variable: str(threads) for variable in
                  ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}}
        return subprocess.run(
            [sys.executable, "-m", "trivolve.cli", *SAMPLE_COMMANDS[command], "--format", "json"],
            env=env, capture_output=True, check=True, timeout=300).stdout

    one = report(1)
    assert json.loads(one)["count"] == {"extend": 3, "search": 4}[command]
    assert report(2) == one


def test_failure_without_residual_reports_null(tmp_path, m2, capsys):
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    m2_path = tmp_path / "m2.json"
    m2_path.write_text(json.dumps(algebra_to_json(m2)))
    code = main(["tim", "--algebra", str(m2_path), "--format", "json"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 1 and report["error"] == "CertificationFailure"
    assert report["law"] == "ab = ba" and report["residual"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("output_format", ["json", "text"])
def test_report_with_a_non_finite_number_is_usage_error(spec_files, tmp_path, capsys,
                                                        output_format):
    # finite entries whose products overflow: the residuals would be inf and NaN,
    # which the exit code reports without a numpy warning
    algebra, _ = spec_files
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"matrix": (1e300 * np.eye(2)).tolist(), "conjugating": True}))
    code = main(["check", "--algebra", algebra, "--map", str(big), "--format", output_format])
    out, err = capsys.readouterr()
    assert code == 2 and "the inputs overflow float64" in out and err == ""
    if output_format == "json":
        assert json.loads(out, parse_constant=reject_constant)["error"] == "UsageError"


def test_search_verifies_each_group_table_once(tmp_path, monkeypatch):
    # one verification per file read, and the algebra is built once
    table = cyclic_group_table(6).table.tolist()
    z6 = tmp_path / "z6.json"
    z6.write_text(json.dumps({"group": {"order": 6, "table": table}}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"table": table,
                                  "normal_subgroups": [[0], [0, 3], [0, 2, 4], list(range(6))]}))
    verified = count_calls(monkeypatch, "verify_group_table")
    built = count_calls(monkeypatch, "make_algebra")
    code, report = run_cli(["search", "--algebra", str(z6), "--family", "group",
                            "--params", str(params)], tmp_path)
    assert code == 0 and report["count"] == 4
    assert len(verified) == 2 and len(built) == 1


def test_check_on_a_group_algebra_runs_no_lstsq_and_no_fold(tmp_path, monkeypatch):
    # C[Z64] without a declared identity: its table certifies associativity, and the
    # normal equations certify the identity
    table = cyclic_group_table(64)
    z64 = group_algebra(table)
    spec = {key: value for key, value in algebra_to_json(z64).items() if key != "identity"}
    algebra_path, map_path = tmp_path / "z64.json", tmp_path / "star.json"
    algebra_path.write_text(json.dumps(spec))
    map_path.write_text(json.dumps(map_to_json(standard_group_involution(z64, table))))
    dense = count_calls(monkeypatch, "_dense_gaps")
    lstsq, solved = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        solved.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    code, report = run_cli(["check", "--algebra", str(algebra_path), "--map", str(map_path)],
                           tmp_path)
    assert code == 0 and report["classification"] == "involution"
    assert dense == solved == []


@pytest.mark.parametrize("flag", ["--tolerance", "--rank-threshold"])
def test_suite_rejects_a_tolerance_flag(tmp_path, capsys, flag):
    # laws are decided at EPS and ranks at EPS_RANK; argparse refuses either flag
    with pytest.raises(SystemExit) as info:
        main(["suite", "--seed", "0", flag, "1e-3", "--out", str(tmp_path / "out.json")])
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == "" and flag in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", ["--tolerance", "--rank-threshold"])
def test_infinite_tolerance_is_usage_error(spec_files, capsys, flag):
    # no flag can set a tolerance, so check refuses one at any value, inf included
    algebra, tau = spec_files
    for value in ("1e-3", "inf"):
        with pytest.raises(SystemExit) as info:
            main(["check", "--algebra", algebra, "--map", tau, flag, value])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == "" and flag in err


def text_and_reference(argv, capsys):
    """``(code, stdout)`` of ``--format text``, and the same rendered from ``jsonable``."""
    code = main(argv + ["--format", "text"])
    out = capsys.readouterr().out
    reference_code, report = run(build_parser().parse_args(argv))
    return (code, out), (reference_code, _render_text(jsonable(report)) + "\n")


@pytest.mark.parametrize("argv", SAMPLE_COMMANDS.values(), ids=SAMPLE_COMMANDS.keys())
def test_text_report_matches_the_reference(argv, capsys):
    text, reference = text_and_reference(argv, capsys)
    assert text == reference


def render_through_json(report):
    """The text rule: the report's JSON text, decoded and rendered.

    The JSON text is the stdlib encoding of ``jsonable``, not ``dumps_report``'s, so
    the encoder's own rules (its repeated arrays and its ``+0.0``) are checked too.
    """
    return _render_text(json.loads(json.dumps(jsonable(report), sort_keys=True, indent=2))) + "\n"


SHARED = np.array([[0.0, -0.0, 0.0], [0.0, 2.5, 0.0]]) * (1 - 1j)  # mostly +0.0, -0.0 too

EDGE_REPORT = {
    "floats": [1.0, -0.0, 1e-300, 0.1 + 0.2, np.float32(0.1), np.float64(2.5), 10**30],
    "complex vector": [1, 2.5j, np.complex64(1 - 1j), -0.0],
    "tuple": (1, "a", None, True, (2, 3j)),
    "arrays": {"complex": np.array([[1 + 2j, -0.0j]]), "real": np.eye(2)[0],
               "ints": np.arange(3), "bools": np.array([True, False]),
               "empty": np.zeros((0, 2), dtype=complex), "scalar": np.array(3.5),
               "single": np.array([0.25], dtype=np.float32),
               "zeros": np.array([0.0, -0.0, 0.0, 0.0, 1e-300, -0.0, 0.0, 0.0])},
    "box": SHARED,
    "diamond": SHARED,
    "numpy scalars": [np.int64(7), np.bool_(True), np.complex128(-1j)],
    "records": [{"b": 1, 2: "two"}, {"a": [np.array([1j])], "c": {}}],
    "empty": [],
    "text": 'na\u00efve "quoted"',
    3: "a key that is not a string",
}


@pytest.mark.parametrize("argv", [argv for name, argv in SAMPLE_COMMANDS.items()
                                  if name != "suite"],
                         ids=[name for name in SAMPLE_COMMANDS if name != "suite"])
def test_text_render_matches_the_json_round_trip(argv):
    _, report = run(build_parser().parse_args(argv))
    for value in (report, EDGE_REPORT):
        assert _render(value, "text") == render_through_json(value)


@pytest.mark.parametrize("report", [
    {"b": [1.0, np.inf], "a": np.array([np.nan])},
    {"z": {"y": complex(0, -np.inf)}, "a": -np.inf},
    {"m": np.array([[1.0, 2.0], [np.inf, np.nan]]), "a": [1j, complex(np.nan, 0)]},
], ids=["list first", "nested complex first", "array first"])
def test_text_render_names_the_non_finite_number_json_names(report):
    # the first one in insertion order, though sorting puts another member first
    with pytest.raises(UsageError) as text:
        _render(report, "text")
    with pytest.raises(UsageError) as encoded:
        dumps_report(report)
    assert str(text.value) == str(encoded.value)


def test_text_report_is_rendered_from_the_json(tmp_path, capsys):
    # the arrays of an arens --map report reach the text as the JSON holds them
    table = cyclic_group_table(12)
    z12 = group_algebra(table)
    z12_path = tmp_path / "z12.json"
    z12_path.write_text(json.dumps(algebra_to_json(z12)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(standard_group_involution(z12, table))))
    argv = ["arens", "--algebra", str(z12_path), "--map", str(theta_path)]
    code, report = run_cli(argv, tmp_path)
    assert code == 0 and report["x_dim"] == 12 and "extension" in report
    text, reference = text_and_reference(argv, capsys)
    assert text == reference


def test_failed_spectral_inclusion_exits_1(tmp_path, capsys, monkeypatch):
    # for a trivolution the inclusion is a theorem, so here a tolerance below every mismatch
    # makes it fail: tau = conj on e1 and x = (2, 5) give spec_B(t(x)) = {2}, 0 from {2, 5}
    monkeypatch.setattr(spectra, "SPECTRUM_TOL", -1.0)
    argv = ["spectra", "--algebra", str(SAMPLE_SPECS / "c2.json"), "--element", "[2, 5]",
            "--map", str(SAMPLE_SPECS / "tau.json")]
    code, report = run_cli(argv, tmp_path)
    assert code == 1 and report["error"] == "CertificationFailure"
    assert report["law"] == "spec_B(t(x)) inside conj spec_A(x)" and report["residual"] == 0.0
    assert report["details"]["inclusion"]["range_spectrum"] == [[2.0, 0.0]]
    (code, out), reference = text_and_reference(argv, capsys)
    assert (code, out) == reference and code == 1
    assert "law: spec_B(t(x)) inside conj spec_A(x)\n" in out and "residual: 0.0\n" in out
    assert "\n    range_spectrum: [[2.0, 0.0]]\n" in out


@pytest.mark.parametrize("matrix, element, before", [
    ([[0, 2], [0.5, 0]], "[2, 1]", "exit 0 with inverse_residual 3.0"),
    ([[1, 1], [0, 0]], "[2, 5]", "exit 1 with spec_B(t(x)) = {7}, 2.0 from {2, 5}"),
])
def test_spectra_requires_a_trivolution(tmp_path, matrix, element, before):
    # neither map is an anti-homomorphism of C^2, so neither certifies the compatibility
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"matrix": matrix, "conjugating": True}))
    code, report = run_cli(["spectra", "--algebra", str(SAMPLE_SPECS / "c2.json"),
                            "--element", element, "--map", str(tau)], tmp_path)
    assert code == 1 and report["error"] == "CertificationFailure", before
    assert report["law"] == "conjugate-linear anti-homomorphism with t^3 = t"


@pytest.mark.parametrize("command", ["decompose", "extend"])
def test_a_map_that_is_no_trivolution_fails_with_its_residual(tmp_path, command):
    # the extension solver certifies its map as the decomposition does, so both reports carry
    # the worse of the anti and cube residuals (extend reported no residual before)
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"matrix": [[1, 1], [0, 0]], "conjugating": True}))
    code, report = run_cli([command, "--algebra", str(SAMPLE_SPECS / "c2.json"),
                            "--map", str(tau)], tmp_path)
    assert code == 1 and report["error"] == "CertificationFailure"
    assert report["law"] == "conjugate-linear anti-homomorphism with t^3 = t"
    assert report["residual"] == 1.0


def test_spectra_certifies_that_t_x_lies_in_the_range(tmp_path):
    # conj o diag(1, 5e-10) is a trivolution within EPS; its singular value 5e-10 is below
    # EPS_RANK, so t(A) is the first axis, and t(x) = (1, 5e-6) is 5e-6 away from it
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"matrix": [[1, 0], [0, 5e-10]], "conjugating": True}))
    code, report = run_cli(["spectra", "--algebra", str(SAMPLE_SPECS / "c2.json"),
                            "--element", "[1, 10000]", "--map", str(tau)], tmp_path)
    assert code == 1 and report["error"] == "CertificationFailure"
    assert report["law"] == "t(x) in t(A)" and report["residual"] == pytest.approx(5e-6)


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_usage_error(spec_files, tmp_path, capsys, target):
    # a missing directory and a directory: exit 2 with one line, not a traceback
    algebra, tau = spec_files
    code = main(["check", "--algebra", algebra, "--map", tau, "--out", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["suite", "--seed", "-1"],
                                  ["tim", "--algebra", str(Z2_SPEC), "--seed", "-3"]])
def test_negative_seed_is_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: the seed must be non-negative, got {argv[-1]}\n"
