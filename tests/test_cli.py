import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelight import cli, detector
from conelight.cli import build_parser, dispatch
from conelight.detector import SAMPLER_MODES, SamplerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def shear2_file(tmp_path):
    path = tmp_path / "shear2.json"
    path.write_text(json.dumps({"type": "shear2"}))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"type": "matrix", "data": [[2, 1], [1, 2]]}))
    return str(path)


def test_illuminate_optimal(capsys):
    code, doc = run_cli(capsys, ["illuminate-optimal", "-n", "4"])
    assert code == 0
    assert doc["count"] == 6
    assert len(doc["directions"]) == 6
    assert all(len(w) == 3 for w in doc["directions"])


def test_output_is_byte_identical_across_runs(capsys, matrix_file):
    dispatch(["illuminate-optimal", "-n", "5"])
    first = capsys.readouterr().out
    dispatch(["illuminate-optimal", "-n", "5"])
    second = capsys.readouterr().out
    assert first == second

    detect_args = ["detect", "--map", matrix_file, "--seed", "42"]
    dispatch(detect_args)
    first = capsys.readouterr().out
    dispatch(detect_args)
    second = capsys.readouterr().out
    assert first == second


def test_chains_d1(capsys):
    code, doc = run_cli(capsys, ["chains", "-d", "1"])
    assert code == 0
    assert doc == {"command": "chains", "d": 1, "count": 1, "chains": [[[0], [1]]]}


def test_illuminate_number(capsys):
    code, doc = run_cli(capsys, ["illuminate-number", "-n", "3"])
    assert code == 0
    assert doc["illumination_number"] == 3


def test_certificate(capsys):
    code, doc = run_cli(capsys, ["certificate", "-n", "3"])
    assert code == 0
    assert doc["size"] == 3
    assert doc["all_unshareable"] is True
    assert len(doc["pairs"]) == 3


def test_illuminate_verify(capsys, tmp_path):
    dirs_file = tmp_path / "dirs.json"
    code, doc = run_cli(capsys, ["illuminate-optimal", "-n", "3"])
    dirs_file.write_text(json.dumps(doc["directions"]))
    code, doc = run_cli(capsys, ["illuminate-verify", "-n", "3", "--directions", str(dirs_file)])
    assert code == 0
    assert doc["covered"] is True

    single = tmp_path / "single.json"
    single.write_text(json.dumps([[-2.0, -1.0]]))
    code, doc = run_cli(capsys, ["illuminate-verify", "-n", "3", "--directions", str(single)])
    assert code == 0
    assert doc["covered"] is False
    assert doc["unilluminated"]


@pytest.mark.parametrize("content", [[{"a": 1}], [[1.0, {"a": 1}]], [["x", 1.0]], {"a": 1}])
def test_illuminate_verify_malformed_directions_is_one_json_error(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    code = dispatch(["illuminate-verify", "-n", "3", "--directions", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["type"] == "usage"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["chains", "-d", "40"],
        ["illuminate-optimal", "-n", "40"],
        ["illuminate-verify", "-n", "40", "--directions", "DIRS"],
        ["certificate", "-n", "15"],
        ["illuminate-number", "-n", "13"],
        # the schedule's chains are over the map's n indices; no d was given
        ["detect", "--map", "MAP21", "--mode", "scheduled", "--beta", "1.1"],
    ],
)
def test_over_limit_sizes_are_one_too_large_error(capsys, tmp_path, argv):
    dirs = tmp_path / "dirs.json"
    dirs.write_text("[]")
    map21 = tmp_path / "map21.json"
    map21.write_text(json.dumps({"type": "matrix", "data": [[1.0] * 21] * 21}))
    code = dispatch([{"DIRS": str(dirs), "MAP21": str(map21)}.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "too_large"
    if argv[0] == "detect":
        assert error["message"].startswith("n = 21 ")
    assert "Traceback" not in captured.err


def test_detect_non_numeric_map_data_is_one_json_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "matrix", "data": {"x": 1}}))
    code = dispatch(["detect", "--map", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["error"]["type"] == "invalid_map"
    assert doc["error"]["violation"] == "not_numeric"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["detect", "--radius", "1000"], "radius", id="detect-radius-1000"),
        pytest.param(["detect", "--beta", "nan"], "beta", id="detect-beta-nan"),
        pytest.param(["detect", "--beta", "inf"], "beta", id="detect-beta-inf"),
        pytest.param(["eigen", "--tol", "nan"], "tol", id="eigen-tol-nan"),
        pytest.param(["eigen", "--max-iters", "-3"], "max_iter", id="eigen-max-iters-negative"),
    ],
)
def test_settings_that_cannot_work_are_exit_1(capsys, matrix_file, argv, name):
    code, doc = run_cli(capsys, [argv[0], "--map", matrix_file, *argv[1:]])
    assert code == 1
    assert doc["error"]["type"] == "invalid_input"
    assert name in doc["error"]["message"]


def test_detect_budget_exhausted_is_exit_2(capsys, shear2_file):
    code, doc = run_cli(
        capsys,
        ["detect", "--map", shear2_file, "--mode", "log-uniform",
         "--max-iters", "1000", "--seed", "7"],
    )
    assert code == 2
    assert doc["halted"] is False
    assert doc["recorded_count"] == 1
    assert doc["total_subsets"] == 2


def test_detect_halts_is_exit_0(capsys, matrix_file):
    code, doc = run_cli(capsys, ["detect", "--map", matrix_file, "--seed", "5"])
    assert code == 0
    assert doc["halted"] is True
    assert doc["eigenvector_estimate"]["eigenvalue"] == pytest.approx(3.0, abs=1e-8)


def test_detect_scheduled_mode(capsys, matrix_file):
    code, doc = run_cli(
        capsys, ["detect", "--map", matrix_file, "--mode", "scheduled", "--beta", "1000"]
    )
    assert code == 0
    assert doc["samples_used"] == 2


def test_history_csv_is_a_usage_error(capsys, matrix_file, tmp_path):
    # the sample history is in the JSON document only
    code, doc = run_cli(
        capsys, ["detect", "--map", matrix_file, "--history-csv", str(tmp_path / "h.csv")]
    )
    assert code == 1
    assert doc["error"]["type"] == "usage"
    assert not (tmp_path / "h.csv").exists()


def test_detect_invalid_map_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "matrix", "data": [[1, 0], [0, 0]]}))
    code, doc = run_cli(capsys, ["detect", "--map", str(bad)])
    assert code == 1
    assert doc["error"]["type"] == "invalid_map"
    assert doc["error"]["violation"] == "zero_row"


def test_detect_missing_map_file_is_exit_1(capsys, tmp_path):
    code, doc = run_cli(capsys, ["detect", "--map", str(tmp_path / "nope.json")])
    assert code == 1
    assert doc["error"]["violation"] == "unreadable_file"


def test_eigen_command(capsys, matrix_file):
    code, doc = run_cli(
        capsys, ["eigen", "--map", matrix_file, "--x0", "1,0.3", "--tol", "1e-10"]
    )
    assert code == 0
    assert doc["converged"] is True
    assert doc["eigenvalue"] == pytest.approx(3.0, abs=1e-8)


def test_eigen_non_convergence_is_status_not_failure(capsys, shear2_file):
    code, doc = run_cli(capsys, ["eigen", "--map", shear2_file, "--max-iters", "100"])
    assert code == 0
    assert doc["converged"] is False


def test_eigen_stops_unconverged_when_a_coordinate_underflows(capsys, tmp_path):
    # the normalized iterates of diag(1, 2, 3) are (3^-k, (2/3)^k, 1): the
    # first coordinate reaches 0.0 after about 680 steps
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"type": "matrix", "data": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}))
    code, doc = run_cli(capsys, ["eigen", "--map", str(path)])
    assert code == 0
    assert doc["converged"] is False
    assert 0 < doc["iterations"] < 1000
    assert all(v > 0.0 for v in doc["eigenvector"])


def test_eigen_bad_x0_is_exit_1(capsys, matrix_file):
    code, doc = run_cli(capsys, ["eigen", "--map", matrix_file, "--x0", "1,zap"])
    assert code == 1
    assert doc["error"]["type"] == "usage"


def test_omitted_options_take_the_library_defaults(monkeypatch, matrix_file):
    # the parser holds no default of its own: with no options, `detect` runs
    # SamplerConfig() and `eigen` the defaults of estimate_eigenvector
    seen = {}

    class Captured(Exception):
        pass

    def capture(name, fn):
        def fake(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen[name] = bound.arguments
            raise Captured

        return fake

    monkeypatch.setattr(cli, "run", capture("run", detector.run))
    monkeypatch.setattr(
        cli, "estimate_eigenvector", capture("eigen", detector.estimate_eigenvector)
    )
    for command in ("detect", "eigen"):
        with pytest.raises(Captured):
            dispatch([command, "--map", matrix_file])
    assert seen["run"]["cfg"] == SamplerConfig()
    defaults = inspect.signature(detector.estimate_eigenvector).parameters
    assert seen["eigen"]["tol"] == defaults["tol"].default
    assert seen["eigen"]["max_iter"] == defaults["max_iter"].default
    for mode in SAMPLER_MODES:
        with pytest.raises(Captured):
            dispatch(["detect", "--map", matrix_file, "--mode", mode])
        assert seen["run"]["cfg"] == SamplerConfig(mode=mode)


# An integer literal too large for a double (numpy raises OverflowError on
# it), and JSON nested deeper than the parser's recursion limit.
HUGE = "9" * 4000


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize(
    "command, spec",
    [
        pytest.param("detect", f'{{"type": "matrix", "data": [[{HUGE}, 1], [1, 1]]}}', id="matrix"),
        pytest.param(
            "detect", f'{{"type": "maxplus", "data": [[1, 1], [1, -{HUGE}]]}}', id="maxplus"
        ),
        pytest.param("eigen", f'{{"type": "monomial", "exponents": [[{HUGE}]]}}', id="monomial"),
    ],
)
def test_map_literal_too_large_for_a_double_is_nonfinite(capsys, tmp_path, command, spec):
    path = tmp_path / "huge.json"
    path.write_text(spec)
    code = dispatch([command, "--map", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert (error["type"], error["violation"]) == ("invalid_map", "nonfinite_entry")


def test_directions_literal_too_large_for_a_double_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "dirs.json"
    path.write_text(f"[[{HUGE}, 1.0]]")
    code, doc = run_cli(capsys, ["illuminate-verify", "-n", "3", "--directions", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_nested(100_000), id="nested"),
        # more digits than Python converts from a string, which json refuses
        pytest.param(f'{{"type": "matrix", "data": [[{"9" * 5000}]]}}', id="5000-digits"),
    ],
)
def test_map_past_the_json_parser_limits_is_invalid_json(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, doc = run_cli(capsys, ["detect", "--map", str(path)])
    assert code == 1
    assert (doc["error"]["type"], doc["error"]["violation"]) == ("invalid_map", "invalid_json")


def test_deeply_nested_directions_are_invalid_input(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_nested(100_000))
    code, doc = run_cli(capsys, ["illuminate-verify", "-n", "3", "--directions", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "invalid_input"


def test_ratio_beyond_the_double_range_is_invalid_map(capsys, tmp_path):
    # f(x)_2 = 1e308 + x_2 is finite, but f(x)_2 / x_2 overflows once x_2 < 0.55
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "matrix", "data": [[1, 1], [1e308, 1]]}))
    code, doc = run_cli(capsys, ["detect", "--map", str(path), "--max-iters", "50"])
    assert code == 1
    assert (doc["error"]["type"], doc["error"]["violation"]) == ("invalid_map", "ratio_overflow")


def test_readme_cli_flags_exist():
    # every --flag the README's CLI section names must be accepted by some
    # subcommand of the parser
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    commands = build_parser()._subparsers._group_actions[0].choices.values()
    accepted = {flag for p in commands for action in p._actions for flag in action.option_strings}
    assert documented and documented <= accepted, documented - accepted


def test_bad_arguments_are_exit_1(capsys):
    code, doc = run_cli(capsys, ["illuminate-optimal"])
    assert code == 1
    assert doc["error"]["type"] == "usage"


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "conelight", "chains", "-d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["count"] == 2


@pytest.mark.parametrize("n", ["3", "14"])
def test_closed_stdout_is_exit_1_without_a_traceback(n):
    # n = 3 fails at the final flush, n = 14 in the middle of the document
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conelight", "illuminate-optimal", "-n", n],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# Malformed map specifications and direction files
# ---------------------------------------------------------------------------

# Entries of a map or direction row: mostly small numbers, so zero,
# negative and valid rows are common, plus NaN, ±inf, huge literals,
# numeric strings and values that are no number at all.
_cells = st.one_of(
    st.sampled_from([0, 0.0, 1, 2, 0.5, -1, -0.5]),
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, 1e-300]),
    st.integers(300, 4000).map(lambda k: 10**k - 1),
    st.integers(300, 4000).map(lambda k: 1 - 10**k),
    st.sampled_from(["1", "0.5", "nan", "-inf", "1e400", "x", ""]),
    st.sampled_from([None, True, {}, []]),
)
_square = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(_cells, min_size=n, max_size=n), min_size=n, max_size=n)
)
_arrays = st.one_of(
    _square,
    st.integers(1, 4).map(lambda n: [[float(i == j) for j in range(n)] for i in range(n)]),
    st.recursive(_cells, lambda inner: st.lists(inner, max_size=4), max_leaves=12),
)
_specs = st.one_of(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["matrix", "maxplus", "shear2", "nope"]), "data": _arrays}
    ),
    st.fixed_dictionaries({"type": st.just("monomial"), "exponents": _arrays}),
    st.dictionaries(st.sampled_from(["type", "data", "exponents"]), _cells | _arrays),
    _arrays,
)
_deep = st.sampled_from([40, 3000, 100_000]).map(_nested)
_map_texts = st.one_of(
    _specs.map(json.dumps),
    _deep,
    _deep.map(lambda text: f'{{"type": "matrix", "data": {text}}}'),
    st.sampled_from(["", "{", "[1, 2", "null", '{"type": 3}']),
)
_direction_texts = st.one_of(
    _arrays.map(json.dumps), _specs.map(json.dumps), _deep, st.sampled_from(["", "[", "{}"])
)
_argvs = st.one_of(
    st.tuples(
        st.just("detect"), _map_texts, st.sampled_from(SAMPLER_MODES), st.integers(1, 50)
    ).map(lambda t: (["detect", "--map", "FILE", "--mode", t[2], "--max-iters", str(t[3])], t[1])),
    st.tuples(_map_texts, st.integers(0, 50)).map(
        lambda t: (["eigen", "--map", "FILE", "--max-iters", str(t[1])], t[0])
    ),
    st.tuples(_direction_texts, st.integers(1, 5)).map(
        lambda t: (["illuminate-verify", "-n", str(t[1]), "--directions", "FILE"], t[0])
    ),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


_DETECT = ["detect", "--map", "FILE", "--max-iters", "50"]
_VERIFY = ["illuminate-verify", "-n", "3", "--directions", "FILE"]


@given(case=_argvs)
@example(case=(_DETECT, f'{{"type": "matrix", "data": [[{HUGE}]]}}'))
@example(case=(["eigen", "--map", "FILE", "--max-iters", "50"], _nested(100_000)))
@example(case=(_VERIFY, f"[[{HUGE}, 1]]"))
@example(case=(_VERIFY, _nested(100_000)))
# the output overflows: an invalid map, and no numpy warning may escape
@example(case=(_DETECT, '{"type": "matrix", "data": [[1e308, 1e308], [1e308, 1e308]]}'))
# f(x) is finite, but a ratio f(x)_i / x_i overflows
@example(case=(_DETECT, '{"type": "matrix", "data": [[1, 1], [1e308, 1]]}'))
@example(
    case=(
        ["eigen", "--map", "FILE", "--max-iters", "1"],
        '{"type": "matrix", "data": [[0, 1e308], [0, 5e-324]]}',
    )
)
@settings(max_examples=200, deadline=None)
def test_malformed_input_is_one_json_document(fuzz_file, case):
    argv, text = case
    fuzz_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch([str(fuzz_file) if a == "FILE" else a for a in argv])
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())  # exactly one document, or this raises
    assert isinstance(doc, dict) and ("error" in doc) == (code == 1)
