"""CLI stdout must stay byte-identical to the frozen golden documents.

The files under tests/golden/ were produced by the reference implementation
and are the safety net for refactors of the detector and illumination code.
Regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
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
    cases["certificate-n4"] = ["certificate", "-n", "4"]
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

    exit_codes = {}
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exit_codes[name] = dispatch(argv)
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2, sort_keys=True) + "\n")
