"""Byte-for-byte CLI snapshots on the bundled fixture, on a Pythagorean
complex and its float twin under ``tests/data/``, and of ``borromean --cases 5``
(its stdout and its per-check lines on stderr). The cases are the table in
``golden_cases.py``, which the CI installed-package step runs too.

Every document under ``tests/golden/`` was written by the CLI before the word
evaluator and the cocycle walk were merged, the four
``branched_system_pythagorean*`` documents before the rational reader returned
ints, and ``borromean_5`` before the word walk lost its prefix cache; a
refactor that changes any of them changes behaviour. To regenerate after an
intended change, write ``main(argv + ["--output", path])`` for each entry of
``CASES``, and its stderr to ``<name>.stderr`` where that file exists.
"""

import pytest

from bendlab.cli import main
from golden_cases import CASES, GOLDEN, golden_stderr


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--output", str(out)]) == 0
    assert capsys.readouterr().err.encode() == golden_stderr(name)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
