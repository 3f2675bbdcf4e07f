"""The property suite's own bookkeeping."""

import dataclasses

from trivolve import suite, unitization
from trivolve.errors import CertificationFailure
from trivolve.trivolution import KIND_INVOLUTION, KIND_NOT_STAR


def test_extension_scan_counts_the_disagreement_verify_extension_raises(monkeypatch):
    # verify_extension classifies each grid extension and raises on a disagreement;
    # the section counts that raise and classifies nothing itself
    original = unitization.classify_star_map
    flipped = []

    def flip_first(*args, **kwargs):
        verdict = original(*args, **kwargs)
        if flipped:
            return verdict
        flipped.append(verdict)
        return dataclasses.replace(
            verdict, kind=KIND_NOT_STAR if verdict.is_trivolution else KIND_INVOLUTION)

    in_suite = []
    monkeypatch.setattr(unitization, "classify_star_map", flip_first)
    monkeypatch.setattr(suite, "classify_star_map", lambda *args, **kwargs: in_suite.append(args))
    section = suite._section_extension_scan()
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
