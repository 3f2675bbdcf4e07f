"""Set-up probe: what every CLI invocation pays before its first report.

Run as a fresh interpreter from the checkout root; it imports
``trivolve``, warms BLAS and runs ``check`` on ``sample_specs/``.  The
caller times the whole process.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from machine import warm_blas  # noqa: E402
from trivolve import cli  # noqa: E402

warm_blas()
specs = ROOT / "sample_specs"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", "--algebra", str(specs / "c2.json"),
                     "--map", str(specs / "tau.json"), "--format", "json"])
sys.exit(code)
