"""The property suite's own bookkeeping."""

import dataclasses

from trivolve import suite, unitization
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
