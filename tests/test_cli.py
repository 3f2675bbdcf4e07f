"""CLI surface: commands, exit codes, determinism."""

import json
import sys

import numpy as np
import pytest

from trivolve.algebra import cyclic_group_table, group_algebra
from trivolve.cli import _render_text, build_parser, main, run
from trivolve.instances import standard_group_involution

from spec_writers import (SAMPLE_COMMANDS, SAMPLE_SPECS, algebra_to_json, array_to_json, jsonable,
                          map_to_json)


@pytest.fixture()
def spec_files(tmp_path, c2, remark_tau):
    algebra_path = tmp_path / "c2.json"
    algebra_path.write_text(json.dumps(algebra_to_json(c2)))
    map_path = tmp_path / "tau.json"
    map_path.write_text(json.dumps(map_to_json(remark_tau)))
    return str(algebra_path), str(map_path)


Z2_SPEC = SAMPLE_SPECS / "z2.json"

BIG_NONASSOCIATIVE = {"dim": 3, "structure": (
    1e200 * np.random.default_rng(0).standard_normal((3, 3, 3))).tolist()}


def reject_constant(constant):
    raise ValueError(f"report holds {constant}")


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def count_calls(monkeypatch, name):
    """Wrap ``name`` in every loaded ``trivolve`` module that holds it; return the calls."""
    modules = [module for key, module in sorted(sys.modules.items())
               if key.split(".")[0] == "trivolve" and hasattr(module, name)]
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, counted)
    return calls


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


def test_seed_env_override(tmp_path, monkeypatch, spec_files):
    algebra, tau = spec_files
    monkeypatch.setenv("TRIVOLVE_SEED", "123")
    out = tmp_path / "env.json"
    code = main(["extend", "--algebra", algebra, "--map", tau,
                 "--seed", "7", "--format", "json", "--out", str(out)])
    assert code == 0  # seed override must not break anything


def test_seed_env_not_an_integer(tmp_path, monkeypatch, capsys, spec_files):
    algebra, tau = spec_files
    monkeypatch.setenv("TRIVOLVE_SEED", "abc")
    code = main(["check", "--algebra", algebra, "--map", tau])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TRIVOLVE_SEED must be an integer, got 'abc'\n"


def test_suite_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["suite", "--seed", "3", "--format", "json", "--out", str(first)]) == 0
    assert main(["suite", "--seed", "3", "--format", "json", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_decompose_classifies_each_map_once(spec_files, tmp_path, monkeypatch):
    # tau, p = tau^2 and rho = tau|_B: one multiplicativity check each
    calls = count_calls(monkeypatch, "classify_multiplicativity")
    algebra, tau = spec_files
    code, report = run_cli(["decompose", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and report["classification"] == "trivolution_proper"
    assert len(calls) == 3


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
    assert len(calls) == report["characters"] == 2


def test_tim_classifies_star_once_and_builds_arens_once(tmp_path, monkeypatch):
    # theta and its extension are classified inside extend_involution; the
    # command classifies the extension once more for all four characters
    table = cyclic_group_table(4)
    z4 = group_algebra(table)
    z4_path = tmp_path / "z4.json"
    z4_path.write_text(json.dumps(algebra_to_json(z4)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(map_to_json(standard_group_involution(z4, table))))
    classified = count_calls(monkeypatch, "classify_star_map")
    arens = count_calls(monkeypatch, "arens_products")
    code, report = run_cli(["tim", "--algebra", str(z4_path), "--map", str(theta_path)],
                           tmp_path)
    assert code == 0 and report["characters"] == 4
    assert all(entry["obstruction"]["unique"] for entry in report["means"])
    assert len(classified) == 3 and len(arens) == 1
    code, report = run_cli(["arens", "--algebra", str(z4_path), "--map", str(theta_path)],
                           tmp_path)
    assert code == 0 and "extension" in report
    assert len(arens) == 2


def test_extend_builds_range_identity_once_per_solver(spec_files, tmp_path, monkeypatch):
    # one range identity in find_type1_solutions, one for the command's type-II record
    built = count_calls(monkeypatch, "range_identity")
    verified = count_calls(monkeypatch, "verify_extension")
    algebra, tau = spec_files
    code, report = run_cli(["extend", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and report["count"] == len(verified) == 3
    assert len(built) == 2


def test_extend_unitizes_the_algebra_once(spec_files, tmp_path, monkeypatch):
    # every candidate extension, verified or built, lives on the one cached unitization
    unitized = count_calls(monkeypatch, "unitize_algebra")
    extended = count_calls(monkeypatch, "extension_map")
    algebra, tau = spec_files
    code, report = run_cli(["extend", "--algebra", algebra, "--map", tau], tmp_path)
    assert code == 0 and len(extended) >= 3
    assert len(unitized) == 1


def test_extend_on_operator_norm_is_best_effort(spec_files, tmp_path, c2):
    # the operator norm of tau is sampled, so no extension is certified contractive
    _, tau = spec_files
    opnorm = tmp_path / "c2_opnorm.json"
    opnorm.write_text(json.dumps({**algebra_to_json(c2), "norm": "opnorm"}))
    code, report = run_cli(["extend", "--algebra", str(opnorm), "--map", tau], tmp_path)
    assert code == 0 and report["count"] == 3
    assert all(record["best_effort"] for record in report["extensions"])


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


def test_tim_solves_each_character_with_one_svd(tmp_path, monkeypatch):
    # tim_set's affine solve is one SVD and no lstsq; the annihilator's SVD
    # belongs to check_introverted, which builds X* once for every character
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
    monkeypatch.setattr(np.linalg, "svd", recorded("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", recorded("lstsq", np.linalg.lstsq))
    code, report = run_cli(["tim", "--algebra", str(z4_path), "--map", str(theta_path)],
                           tmp_path)
    assert code == 0 and report["characters"] == len(tim_calls) == 4
    assert all(entry["affine_dim"] == 0 for entry in report["means"])
    in_tim_set = [label for label, site in calls if site == "tim_set"]
    assert in_tim_set == ["svd"] * 4


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
def test_suite_rejects_a_tolerance_flag(tmp_path, flag):
    # the suite's sections keep their own thresholds, so a flag would be ignored
    code, report = run_cli(["suite", "--seed", "0", flag, "1e-3"], tmp_path)
    assert code == 2 and report["error"] == "UsageError"
    assert "fixed threshold" in report["message"] and flag in report["message"]


@pytest.mark.parametrize("flag", ["--tolerance", "--rank-threshold"])
def test_infinite_tolerance_is_usage_error(spec_files, tmp_path, capsys, flag):
    # at tolerance inf every map would classify as zero, hence not a star map
    algebra, _ = spec_files
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"matrix": [[0, 1], [1, 0]], "conjugating": True}))
    code = main(["check", "--algebra", algebra, "--map", str(swap), flag, "inf"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")


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


def test_text_report_is_rendered_from_the_json(tmp_path, capsys):
    # the arrays of an arens --map report reach the text through dumps_report
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


def test_failed_spectral_inclusion_exits_1(tmp_path, capsys):
    # tau(x) = (7, 0) has spectrum {7, 0}; x = (2, 5) has spectrum {2, 5}
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"matrix": [[1, 1], [0, 0]], "conjugating": True}))
    argv = ["spectra", "--algebra", str(SAMPLE_SPECS / "c2.json"), "--element", "[2, 5]",
            "--map", str(tau)]
    code, report = run_cli(argv, tmp_path)
    assert code == 1 and report["error"] == "CertificationFailure"
    assert report["law"] == "spec_B(t(x)) inside conj spec_A(x)" and report["residual"] == 2.0
    assert report["details"]["inclusion"]["range_spectrum"] == [[7.0, 0.0]]
    (code, out), reference = text_and_reference(argv, capsys)
    assert (code, out) == reference and code == 1
    assert "law: spec_B(t(x)) inside conj spec_A(x)\n" in out and "residual: 2.0\n" in out
    assert "\n    range_spectrum: [[7.0, 0.0]]\n" in out


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


def test_negative_seed_from_the_environment_is_usage_error(spec_files, monkeypatch, capsys):
    algebra, tau = spec_files
    monkeypatch.setenv("TRIVOLVE_SEED", "-1")
    assert main(["extend", "--algebra", algebra, "--map", tau]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the seed must be non-negative, got -1\n"
