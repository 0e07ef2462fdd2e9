"""The CLI golden cases, one table for ``tests/test_golden.py`` and for the
installed-package step of the CI workflow; it does not import pytest.

Each case is a name and the CLI arguments whose stdout is
``golden/<name>.json``; its stderr is ``golden/<name>.stderr``, or empty
where that file does not exist. Run as a script, it checks the table against
any command that starts the CLI:

    python tests/golden_cases.py bendlab
    python tests/golden_cases.py python -m bendlab

runs the command with each case's arguments and exits 1, naming the cases
whose exit status is not 0 or whose stdout or stderr differs.
"""

import subprocess
import sys
from importlib import resources
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def _data(name: str) -> str:
    return str(resources.files("bendlab.data").joinpath(name))


def _cases() -> dict[str, list[str]]:
    cases = {"validate": ["validate"]}
    for coeff in ("r31", "nu", "adjoint"):
        for mode in ("per-element", "per-subgroup", "none"):
            cases[f"cohomology_{coeff}_{mode}"] = [
                "cohomology", "--coefficients", coeff, "--parabolic", mode]
    for geometry in ("so", "sl"):
        cases[f"branched_system_{geometry}"] = [
            "branched-system", _data("borromean_complex.json"),
            "--geometry", geometry]
        # Pythagorean angles of height up to 64, spelled reduced, unreduced,
        # signed, padded and as decimals, and the same complex on floats
        for twin in ("", "_float"):
            cases[f"branched_system_pythagorean{twin}_{geometry}"] = [
                "branched-system", str(DATA / f"pythagorean_complex{twin}.json"),
                "--geometry", geometry]
    words = ["--words", _data("borromean_words.txt")]
    cases["bend_sl"] = ["bend", "--pants", _data("borromean_pants.json"),
                        "--geometry", "sl"] + words
    cases["bend_so"] = ["bend", "--pants", _data("borromean_pants.json"),
                        "--geometry", "so"]
    cases["bend_sl_trace"] = ["bend", "--pants", _data("borromean_pants_trace.json"),
                              "--geometry", "sl"] + words
    cases["borromean_5"] = ["borromean", "--cases", "5"]
    return cases


CASES = _cases()


def golden_stderr(name: str) -> bytes:
    path = GOLDEN / f"{name}.stderr"
    return path.read_bytes() if path.exists() else b""


def check(command: list[str]) -> list[str]:
    """The names of the cases on which ``command`` differs from its goldens."""
    failed = []
    for name, argv in CASES.items():
        done = subprocess.run([*command, *argv], capture_output=True)
        if (done.returncode, done.stdout, done.stderr) != (
                0, (GOLDEN / f"{name}.json").read_bytes(), golden_stderr(name)):
            failed.append(name)
    return failed


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...")
    failed = check(sys.argv[1:])
    for name in failed:
        print(f"differs from its golden: {name}", file=sys.stderr)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases match their goldens")
    sys.exit(1 if failed else 0)
