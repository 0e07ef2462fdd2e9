"""Byte-for-byte CLI snapshots on the bundled fixture, and on a Pythagorean
complex and its float twin under ``tests/data/``.

Every document under ``tests/golden/`` was written by the CLI before the word
evaluator and the cocycle walk were merged, and the four
``branched_system_pythagorean*`` documents before the rational reader returned
ints; a refactor that changes any of them changes behaviour. To regenerate
after an intended change, write ``main(argv + ["--output", path])`` for each
entry of ``CASES``.
"""

from importlib import resources
from pathlib import Path

import pytest

from bendlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


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
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
