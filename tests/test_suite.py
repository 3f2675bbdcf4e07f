"""The property suite's one pass rule: a section passes when its certified calls return."""

import dataclasses
import json

import pytest

from trivolve import suite, unitization
from trivolve.cli import main
from trivolve.errors import CertificationFailure
from trivolve.trivolution import (KIND_INVOLUTION, KIND_NOT_STAR, canonical_decomposition,
                                  make_trivolution)

def test_extension_scan_counts_the_disagreement_verify_extension_raises(monkeypatch):
    # verify_extension classifies the 243 grid extensions as one family and returns the
    # disagreements (on a lone candidate it raises); the section raises on them and
    # classifies nothing itself
    original = unitization.classify_star_map
    families = []

    def flip_first(algebra, f):
        verdicts = original(algebra, f)
        if families or f.matrix.ndim == 2:  # only the grid's family
            return verdicts
        families.append(len(verdicts))
        verdicts = list(verdicts)  # the verdicts kept on f stay as they are
        verdicts[0] = dataclasses.replace(
            verdicts[0], kind=KIND_NOT_STAR if verdicts[0].is_trivolution else KIND_INVOLUTION)
        return verdicts

    in_suite = []
    monkeypatch.setattr(unitization, "classify_star_map", flip_first)
    monkeypatch.setattr(suite, "classify_star_map", lambda *args, **kwargs: in_suite.append(args))
    with pytest.raises(CertificationFailure) as failure:
        suite._section_extension_scan()
    assert families == [243] and in_suite == []
    assert failure.value.law == "t# is a trivolution iff (lambda0, x0) is of family I or II"


def test_extension_scan_compares_the_imaginary_parts(monkeypatch):
    # a family-I solution moved off the expected four by 0.5i in each coordinate fails
    original = suite.find_type1_solutions

    def with_imaginary_part(algebra, tau):
        sols = original(algebra, tau)
        moved = dataclasses.replace(sols.specs[-1], x0=sols.specs[-1].x0 + 0.5j)
        return dataclasses.replace(sols, specs=[*sols.specs[:-1], moved])

    assert suite._section_extension_scan()["type1_count"] == 4
    monkeypatch.setattr(suite, "find_type1_solutions", with_imaginary_part)
    with pytest.raises(CertificationFailure) as failure:
        suite._section_extension_scan()
    assert failure.value.law == "x0 = -y for the idempotents y of ann t(A) in ker t"
    assert failure.value.residual == 0.5


def refuse(decomposed):
    def refused(algebra, tau, x):
        decomposed.append(x)
        raise CertificationFailure("refused", law="x in tau(A)", residual=0.5)
    return refused


def test_misc_laws_fails_when_a_hermitian_decomposition_fails(monkeypatch, battery):
    # x = tau(sum_i b_i) is decomposed for eight battery instances; the first failure is the
    # section's failure
    decomposed = []
    original = suite.hermitian_decomposition

    def counted(algebra, tau, x):
        decomposed.append(x)
        return original(algebra, tau, x)

    monkeypatch.setattr(suite, "hermitian_decomposition", counted)
    assert suite._section_misc_laws(battery, 0) == {"max_residual": 0.0}
    assert len(decomposed) == 8
    monkeypatch.setattr(suite, "hermitian_decomposition", refuse(decomposed))
    with pytest.raises(CertificationFailure) as failure:
        suite._section_misc_laws(battery, 0)
    assert failure.value.law == "x in tau(A)" and len(decomposed) == 9


def test_round_trip_rebuilds_every_eighth_trivolution_from_its_pair(monkeypatch, battery):
    # the pair (p, rho) of every eighth decomposition builds a trivolution of tau's kind,
    # which the classifier decides; a rebuilt map skewed off the anti-homomorphisms fails
    decomposed, rebuilt = [], []

    def counted(algebra, tau):
        decomposed.append(tau)
        return canonical_decomposition(algebra, tau)

    def skewed(skew):
        def rebuild(algebra, p, rho):
            rebuilt.append(p)
            tau = make_trivolution(algebra, p, rho)
            return dataclasses.replace(tau, matrix=tau.matrix + skew)
        return rebuild

    monkeypatch.setattr(suite, "canonical_decomposition", counted)
    monkeypatch.setattr(suite, "make_trivolution", skewed(0.0))
    assert suite._section_round_trip(battery)["instances"] == 60
    assert len(decomposed) == 60 and len(rebuilt) == 8
    monkeypatch.setattr(suite, "make_trivolution", skewed(1e-3))
    with pytest.raises(CertificationFailure) as failure:
        suite._section_round_trip(battery)
    assert failure.value.law == "conjugate-linear anti-homomorphism with t^3 = t"
    assert failure.value.residual >= 1e-3


def test_a_failed_section_leaves_the_others_reporting(monkeypatch, tmp_path):
    # run_suite catches a section's failure and runs the rest; the CLI prints the sections
    # with exit 1, not a bare error report
    monkeypatch.setattr(suite, "hermitian_decomposition", refuse([]))
    passed, report = suite.run_suite(0)
    sections = {section["name"]: section for section in report["sections"]}
    assert passed is False and report["passed"] is False and len(sections) == 9
    failed = sections.pop("misc_laws")
    assert failed["passed"] is False and failed["law"] == "x in tau(A)"
    assert failed["residual"] == 0.5
    assert all(section["passed"] for section in sections.values())
    out = tmp_path / "suite.json"
    assert main(["suite", "--seed", "0", "--format", "json", "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == report
