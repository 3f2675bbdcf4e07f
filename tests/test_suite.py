"""The property suite's own bookkeeping."""

import dataclasses

from trivolve import suite, unitization
from trivolve.errors import CertificationFailure
from trivolve.trivolution import (KIND_INVOLUTION, KIND_NOT_STAR, canonical_decomposition,
                                  make_trivolution)


def test_extension_scan_counts_the_disagreement_verify_extension_raises(monkeypatch):
    # verify_extension classifies the 243 grid extensions as one family and returns the
    # disagreements (on a lone candidate it raises); the section counts them and
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
    section = suite._section_extension_scan()
    assert families == [243]
    assert section["grid_checked"] == 243 and section["disagreements"] == 1
    assert section["passed"] is False and in_suite == []


def test_misc_laws_fails_when_a_hermitian_decomposition_fails(monkeypatch, battery):
    # x = tau(sum_i b_i) is decomposed for eight battery instances; a failure
    # clears "passed" and leaves the residual alone
    clean = suite._section_misc_laws(battery, 0)
    decomposed = []

    def refuse(algebra, tau, x):
        decomposed.append(x)
        raise CertificationFailure("refused", law="x in tau(A)")

    monkeypatch.setattr(suite, "hermitian_decomposition", refuse)
    section = suite._section_misc_laws(battery, 0)
    assert clean["passed"] is True and section["passed"] is False
    assert len(decomposed) == 8 and section["max_residual"] == clean["max_residual"]


def test_round_trip_rebuilds_every_eighth_trivolution_from_its_pair(monkeypatch, battery):
    # make_trivolution reproduces the decomposition's reconstruction bit for bit,
    # so the rebuilt maps leave the residual alone; a rebuilt map that differs fails
    clean = suite._section_round_trip(battery)
    decomposed, rebuilt = [], []

    def counted(algebra, tau):
        decomposed.append(tau)
        return canonical_decomposition(algebra, tau)

    def skewed(algebra, p, rho):
        rebuilt.append(p)
        tau = make_trivolution(algebra, p, rho)
        return dataclasses.replace(tau, matrix=tau.matrix + 1e-3)

    monkeypatch.setattr(suite, "canonical_decomposition", counted)
    monkeypatch.setattr(suite, "make_trivolution", skewed)
    section = suite._section_round_trip(battery)
    assert clean["passed"] is True and clean["instances"] == 60
    assert len(decomposed) == 60 and len(rebuilt) == 8
    assert section["passed"] is False and section["max_residual"] >= 1e-3
