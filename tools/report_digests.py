"""Print one SHA-256 digest per report of a fixed list of tanglie commands.

Each command runs in-process through ``tanglie.cli_io.run_command``, once as
text and once with ``--json``.  Every output gives one line

    <sha256 of stdout and stderr> <exit code> <argv>

so running this script before and after a change and comparing the two
outputs with ``diff`` shows every report whose bytes changed.

Usage (from the repository root)::

    PYTHONPATH=src python tools/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from tanglie.cli_io import CATALOG_NAMES, run_command

EXTRA_COMMANDS = (
    ["sectional", "heisenberg", "--plane", "Y^v,Z^v"],
    ["sectional", "solvable_rr2", "--plane", "Z^v,X^v"],
    ["field", "heisenberg", "--vector", "Z"],
    ["field", "heisenberg", "--vector", "X + 2*Z"],
    ["equiv", "heisenberg", "--tau", "dilation"],
    ["equiv", "heisenberg", "--tau", "dilation", "--tau2", "dilation"],
    ["equiv", "heisenberg", "--tau", "not_auto"],
    ["equiv", "solvable_rr2", "--tau", "axis_scale"],
    ["equiv", "su2", "--tau", "rot_z", "--tau2", "rot_z"],
)


def commands() -> list[list[str]]:
    """The fixed command list, catalog commands first."""
    out = []
    for name in CATALOG_NAMES:
        out += [["connection", name, "--metric", m] for m in ("g1", "g2", "lift")]
        out += [
            ["connection", name, "--metric", "lift", "--method", method]
            for method in ("koszul", "closed", "structconst")
        ]
        out += [["curvature", name, "--metric", m] for m in ("g1", "g2", "lift")]
        out.append(["curvature", name, "--metric", "lift", "--compare"])
        out += [[cmd, name] for cmd in ("check", "lift", "symplectic")]
    return out + [list(argv) for argv in EXTRA_COMMANDS]


def digest(argv: list[str]) -> tuple[str, int]:
    """Run one command in-process; return the digest of its output and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    data = out.getvalue().encode() + b"\0" + err.getvalue().encode()
    return hashlib.sha256(data).hexdigest(), code


def main() -> None:
    for argv in commands():
        for variant in (argv, argv + ["--json"]):
            sha, code = digest(variant)
            print(sha, code, " ".join(variant))


if __name__ == "__main__":
    main()
