"""CLI stdout must stay byte-identical to the frozen golden documents.

The files under tests/golden/ were produced by the reference implementation
and are the safety net for refactors of the detector and illumination code.
Regenerate them only for a deliberate output change, naming the cases to
write (all of them when none is named):

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import json
from pathlib import Path

import pytest

from conelight.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"

# (map file, extra flags) per detect family; every family runs in all three
# modes with both seeds.
DETECT_FAMILIES = {
    # never halts: 1200 samples cross two sampling blocks, the history cap
    # of 600 ends inside the second
    "shear2": ["--max-iters", "1200", "--history-cap", "600"],
    "sym2": ["--history-cap", "100"],
    "pinned5": ["--max-iters", "3000", "--history-cap", "50"],
}
MODES = ("unit-box", "log-uniform", "scheduled")
SEEDS = (7, 11)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for family, flags in DETECT_FAMILIES.items():
        for mode in MODES:
            for seed in SEEDS:
                cases[f"detect-{family}-{mode}-seed{seed}"] = [
                    "detect",
                    "--map",
                    str(GOLDEN / f"{family}.json"),
                    "--mode",
                    mode,
                    "--seed",
                    str(seed),
                    *flags,
                ]
    cases["illuminate-optimal-n6"] = ["illuminate-optimal", "-n", "6"]
    # odd n: the two middle levels tie for the largest antichain
    cases["illuminate-optimal-n7"] = ["illuminate-optimal", "-n", "7"]
    # a partial direction set with ties and zero coordinates, so the order
    # of the unilluminated points is pinned
    cases["illuminate-verify-n5-partial"] = [
        "illuminate-verify",
        "-n",
        "5",
        "--directions",
        str(GOLDEN / "partial5.json"),
    ]
    cases["chains-d4"] = ["chains", "-d", "4"]
    cases["certificate-n4"] = ["certificate", "-n", "4"]
    cases["certificate-n5"] = ["certificate", "-n", "5"]
    cases["illuminate-number-n4"] = ["illuminate-number", "-n", "4"]
    # the largest n the exact oracle accepts
    cases["illuminate-number-n6"] = ["illuminate-number", "-n", "6"]
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(capsys, name):
    expected_exit = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    code = dispatch(CASES[name])
    out = capsys.readouterr().out
    assert code == expected_exit
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    codes_file = GOLDEN / "exit_codes.json"
    exit_codes = json.loads(codes_file.read_text()) if codes_file.exists() else {}
    for name in sys.argv[1:] or sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exit_codes[name] = dispatch(CASES[name])
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
    codes_file.write_text(json.dumps(exit_codes, indent=2, sort_keys=True) + "\n")
