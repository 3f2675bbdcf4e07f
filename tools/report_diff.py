"""Compare the reports of a git revision with those of the working tree.

    python tools/report_diff.py --parent HEAD [--seeds 41 42 ...]

Run it from the repository root.  It exports the revision with
``git archive`` into a temporary directory and makes the same CLI calls
with each tree's ``src/``, one interpreter per tree:

- every op of the ``battery``, ``scale`` and ``derive`` workloads at each
  seed, on the spec files that ``bench/workloads.py`` writes (once, for
  both trees);
- ``suite`` at seeds 0, 1 and 7;
- the ``sample_specs/`` commands (``SAMPLE_COMMANDS`` in
  ``tests/spec_writers.py``).

Each call runs with ``--format json`` and with ``--format text``, under
``OPENBLAS_NUM_THREADS=1``.  One line is printed per call: ``identical``; the exit codes, when they differ; or the
changed JSON fields, a list index written ``[]``, each with its largest
|delta|, and the number of changed text lines.  The exit code is 1 when
an exit code, a non-numeric field or a report's shape changed, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "text")
WORKLOADS = ("battery", "scale", "derive")
SUITE_SEEDS = (0, 1, 7)


def calls(seeds: list[int], spec_dir: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every call, in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    import workloads as bench_workloads
    from spec_writers import SAMPLE_COMMANDS

    out = [(f"suite --seed {seed}", ["suite", "--seed", str(seed)]) for seed in SUITE_SEEDS]
    out += [(f"sample {name}", argv) for name, argv in SAMPLE_COMMANDS.items()]
    for workload in WORKLOADS:
        for seed in seeds:
            ops = bench_workloads.build(workload, seed, spec_dir / f"{workload}-{seed}")
            out += [(f"{workload} {seed} #{k} {op.label}", op.argv) for k, op in enumerate(ops)]
    return out


def run_tree(tree: Path, argvs: list[list[str]], out_dir: Path) -> list[int]:
    """Exit codes of the calls made with ``tree``'s ``src/``, two per call (``FORMATS``).

    The reports go to ``out_dir``.
    """
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    (out_dir / "calls.json").write_text(json.dumps(argvs))
    subprocess.run([sys.executable, __file__, "--worker", str(out_dir)], env=env, check=True)
    return json.loads((out_dir / "codes.json").read_text())


def worker(out_dir: Path) -> None:
    """Make the calls in ``out_dir/calls.json`` in this process, as the benchmark does."""
    from trivolve.cli import main

    codes = []
    for k, argv in enumerate(json.loads((out_dir / "calls.json").read_text())):
        for fmt in FORMATS:
            report = out_dir / f"{k}.{fmt}"
            report.write_text("")  # what is left when argparse exits
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(argv + ["--format", fmt, "--out", str(report)]))
            except SystemExit as exc:  # argparse exits 2 on bad arguments
                codes.append(exc.code)
    (out_dir / "codes.json").write_text(json.dumps(codes))


def leaves(value, path=""):
    """``(path, leaf)`` of a JSON value, list indices written ``[]``."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path + "#", len(value)  # a length, which must not change
        for child in value:
            yield from leaves(child, path + "[]")
    else:
        yield path, value


def json_changes(old: str, new: str) -> dict[str, float | None] | None:
    """Changed fields with their largest |delta| (None: not numeric); None if the shape changed."""
    try:
        old_leaves, new_leaves = list(leaves(json.loads(old))), list(leaves(json.loads(new)))
    except ValueError:  # no report was written
        return None
    if [path for path, _ in old_leaves] != [path for path, _ in new_leaves]:
        return None
    changed: dict[str, float | None] = {}
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if a == b and type(a) is type(b):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numeric and not path.endswith("#"):
            changed[path] = max(changed.get(path) or 0.0, abs(b - a))
        else:
            changed[path] = None
    return changed


def compare(old_dir: Path, new_dir: Path, k: int, old_codes, new_codes) -> tuple[str, bool]:
    """One call's line, and whether more than digits changed."""
    if old_codes != new_codes:
        return f"exit {old_codes} -> {new_codes} (json, text)", True
    old, new = ((d / f"{k}.json").read_text() for d in (old_dir, new_dir))
    old_text, new_text = ((d / f"{k}.text").read_text().splitlines() for d in (old_dir, new_dir))
    lines = sum(a != b for a, b in zip(old_text, new_text)) + abs(len(old_text) - len(new_text))
    if old == new and not lines:
        return "identical", False
    changed = json_changes(old, new)
    if changed is None:
        return f"report shape changed; {lines} text lines differ", True
    fields = ", ".join(path if delta is None else f"{path} |d| {delta:.2g}"
                       for path, delta in sorted(changed.items(), key=lambda item: -(item[1] or 0)))
    return f"{fields or 'no JSON field'}; {lines} text lines differ", None in changed.values()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the revision to compare with, e.g. HEAD")
    parser.add_argument("--seeds", type=int, nargs="+", default=[41])
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(Path(args.worker))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        labelled = calls(args.seeds, tmp / "specs")
        argvs = [argv for _, argv in labelled]
        old_codes = run_tree(parent, argvs, tmp / "old")
        new_codes = run_tree(ROOT, argvs, tmp / "new")
        verdicts = digits = 0
        for k, (label, _) in enumerate(labelled):
            line, changed = compare(tmp / "old", tmp / "new", k, old_codes[2 * k:2 * k + 2],
                                    new_codes[2 * k:2 * k + 2])
            print(f"{label}: {line}", flush=True)
            verdicts += changed
            digits += line != "identical" and not changed
        print(f"{len(labelled)} calls: {len(labelled) - verdicts - digits} identical, "
              f"{digits} with other digits, {verdicts} with other verdicts or shapes")
    return int(verdicts > 0)


if __name__ == "__main__":
    sys.exit(main())
