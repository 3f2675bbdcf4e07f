"""``tools/report_diff.py``: how the two reports of one call are compared."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import report_diff  # noqa: E402


def write_reports(directory, json_text, text):
    directory.mkdir()
    (directory / "0.json").write_text(json_text)
    (directory / "0.text").write_text(text)
    return directory


def test_digits_are_listed_per_field_with_the_largest_change():
    old = '{"a": [[1.0, 2.0], [3.0, 4.0]], "b": {"c": 0.5}, "d": "x", "e": 1}'
    new = '{"a": [[1.0, 2.5], [3.0, 3.75]], "b": {"c": 0.25}, "d": "x", "e": 1}'
    assert report_diff.json_changes(old, new) == {"a[][]": 0.5, "b.c": 0.25}


def test_a_verdict_a_length_or_a_missing_report_is_not_a_digit():
    assert report_diff.json_changes('{"kind": "involution"}', '{"kind": "not_star"}') == {
        "kind": None}
    assert report_diff.json_changes('{"flag": true}', '{"flag": 1}') == {"flag": None}
    assert report_diff.json_changes('{"a": [1, 2]}', '{"a": [1]}') is None
    assert report_diff.json_changes('{"a": 1}', "") is None


def test_one_line_per_call(tmp_path):
    old = write_reports(tmp_path / "old", '{"r": 0.1, "kind": "x"}', "kind: x\nr: 0.1")
    new = write_reports(tmp_path / "new", '{"r": 0.3, "kind": "x"}', "kind: x\nr: 0.3")
    same = write_reports(tmp_path / "same", '{"r": 0.1, "kind": "x"}', "kind: x\nr: 0.1")
    assert report_diff.compare(old, same, 0, [0, 0], [0, 0]) == ("identical", False)
    line, changed = report_diff.compare(old, new, 0, [0, 0], [0, 0])
    assert line == "r |d| 0.2; 1 text lines differ" and not changed
    assert report_diff.compare(old, new, 0, [0, 0], [2, 2])[1]
