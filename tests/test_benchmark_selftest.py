"""The benchmark's self-tests pass against this tree.

``perfbench`` wraps and probes package names from outside the package
(``HomogPoly.__mul__``, ``kernel_basis``, ``pairing_matrix``,
``even_scroll_sample``'s result and others), so a change that drops or
renames one of them fails here, not only in traced benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
