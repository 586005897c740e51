"""evaluate and expr print fixed bytes on Bell states.

The reference outputs in tests/data/bell_golden were recorded before the
Bell closed forms took batches of coefficients.  A Bell state's moments
and singular values have few nonzero terms, so, like the golden sweep
CSVs, these bytes hold under every numpy version that CI runs.
"""

from pathlib import Path

import pytest

from entcert.cli import main
from entcert.criteria import BUILTIN_QUERIES

GOLDEN = Path(__file__).parent / "data" / "bell_golden"

# Case name -> argv, with config file names relative to GOLDEN; each case's
# stdout is stored in GOLDEN / f"{name}.out".
CASES = {
    # complex alpha and beta
    "evaluate_complex": ["evaluate", "complex.json"],
    # alpha = 1, beta = 0: the PPT spectrum starts with -0.0
    "evaluate_basis": ["evaluate", "basis.json"],
    "evaluate_gains": ["evaluate", "gains.json"],
    "evaluate_cutoff_5x4": ["evaluate", "real.json", "--cutoff", "5", "4"],
    "expr_number_a": ["expr", "E[ad*a]", "complex.json"],
    **{f"expr_{name}": ["expr", text, "complex.json"] for name, text in BUILTIN_QUERIES.items()},
}


def resolve(argv):
    return [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(resolve(CASES[name])) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()
