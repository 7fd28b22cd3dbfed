import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import stage_work

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "derham.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cohomology_subcommand():
    out = run_cli("cohomology", "--vars", "x", "--poly", "x")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["dims"] == {"0": 1, "1": 1, "2": 0}
    assert data["b_function"] == "s"


def test_support_subcommand():
    out = run_cli("support", "--vars", "x,y", "--poly", "x",
                  "--support-poly", "y")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["dims"] == {"0": 0, "1": 0, "2": 1, "3": 1, "4": 0}
    assert data["kind"] == "support"


def test_bfunction_subcommand():
    out = run_cli("bfunction", "--vars", "x", "--module", "d1",
                  "--format", "text")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "s"


@pytest.mark.parametrize("module,b", [
    ("x*d1^2 - 3*d1^2", "s^2 - 5*s + 6"),
    ("(x - 2)*d1^2", "s^2 - 5*s + 6"),
    ("x - 2", "1"),
    ("x*d1 - 2*d1", "s - 2"),
])
def test_bfunction_of_a_module_singular_away_from_the_origin(module, b, capsys):
    # under the V-order the lead of x - 2 is the constant, so unfloored
    # division would rewrite 1 as a power series in x/2 without end
    from derham.cli import main
    assert main(["bfunction", "--vars", "x", "--module", module, "--shift", "2",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out.strip() == b


def _readme_command_lines():
    """The lines of the README's "Command line" example block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_runs(line, capsys):
    from derham.cli import main
    argv = shlex.split(line, comments=True)
    assert argv[0] == "derham"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    expected = re.search(r"#\s*prints:\s*(.*)$", line)
    if expected:
        assert out.strip() == expected.group(1).strip()


def test_localize_subcommand():
    out = run_cli("localize", "--vars", "x", "--poly", "x")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["exponent"] == -1
    assert data["relations"] == ["x1*d1 + 1"]


def test_mv_subcommand():
    out = run_cli("mv", "--vars", "x,y", "--poly", "x", "--poly", "y")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert [m["rank"] for m in data["modules"]] == [2, 1]


def test_malformed_polynomial_exit_code():
    out = run_cli("cohomology", "--vars", "x", "--poly", "x*")
    assert out.returncode == 1
    err = json.loads(out.stderr.strip().splitlines()[-1])
    assert err["kind"] == "invalid-input"


def test_bbound_exit_code():
    # a constant support polynomial makes every position exact; force a
    # failure instead through an unreachable b-degree on a real module
    out = run_cli("bfunction", "--vars", "x", "--module", "x1*d1 - x1*d1",
                  "--max-b-degree", "3")
    assert out.returncode == 2
    err = json.loads(out.stderr.strip().splitlines()[-1])
    assert err["kind"] == "b-bound-exceeded"


def test_deterministic_reports():
    args = ("cohomology", "--vars", "x,y", "--poly", "x*y")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_dump_intermediate(tmp_path):
    out = run_cli("cohomology", "--vars", "x", "--poly", "x",
                  "--dump-intermediate", str(tmp_path / "stages"))
    assert out.returncode == 0, out.stderr
    names = {p.name for p in (tmp_path / "stages").iterdir()}
    assert {"mv_complex.json", "fourier_complex.json", "strict_complex.json",
            "double_complex.json", "minimal_complex.json", "b_function.json",
            "truncated_complex.json", "report.json"} <= names
    # the report's shifts describe the minimized complex
    minimal = json.loads((tmp_path / "stages" / "minimal_complex.json").read_text())
    report = json.loads((tmp_path / "stages" / "report.json").read_text())
    assert report["schema"] == "derham.report/2"
    assert report["shifts"] == {str(minimal["lo"] + k): m["shift"]
                                for k, m in enumerate(minimal["modules"])}
    sizes = report["engine"]["gb_sizes"]
    assert sizes["minimal_ranks"] == [m["rank"] for m in minimal["modules"]]
    assert set(sizes) == {"strict_ranks", "minimal_ranks", "truncated_dims"}


def test_intermediates_are_serialized_only_when_dumped(tmp_path, monkeypatch):
    from derham import ProblemSpec, compute_derham
    from derham.presentations import ChainComplexPres
    from derham.strictify import StrictDoubleComplex
    calls = []
    for cls in (ChainComplexPres, StrictDoubleComplex):
        original = cls.to_json

        def spy(self, original=original):
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "to_json", spy)
    compute_derham(ProblemSpec(["x"], ["x"]))
    assert calls == []
    # the spies do see the dumps
    compute_derham(ProblemSpec(["x"], ["x"], dump_dir=str(tmp_path)))
    assert sorted(set(calls)) == ["ChainComplexPres", "StrictDoubleComplex"]


def test_presentation_override(tmp_path):
    pres = tmp_path / "rx.json"
    pres.write_text(json.dumps([{"poly": "x", "exponent": -1,
                                 "relations": ["x1*d1 + 1"]}]))
    out = run_cli("cohomology", "--vars", "x", "--poly", "x",
                  "--presentation", str(pres))
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["dims"] == {"0": 1, "1": 1, "2": 0}


GOOD_ENTRY = {"poly": "x", "exponent": -1, "relations": ["x1*d1 + 1"]}


def _without(key):
    return json.dumps([{k: v for k, v in GOOD_ENTRY.items() if k != key}])


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("{not json", "not JSON"),
    ("42", "object or a list"),
    (_without("poly"), "lacks poly"),
    (_without("exponent"), "lacks exponent"),
    (_without("relations"), "lacks relations"),
    (json.dumps([dict(GOOD_ENTRY, exponent=-1.5)]), "not an integer"),
    (json.dumps([dict(GOOD_ENTRY, poly=5)]), "as a string"),
    (json.dumps([dict(GOOD_ENTRY, relations=[3])]), "list of strings"),
], ids=["missing file", "invalid json", "not a list", "no poly",
        "no exponent", "no relations", "non-integer exponent",
        "non-string poly", "non-string relation"])
def test_presentation_file_errors_are_invalid_input(tmp_path, text, message):
    pres = tmp_path / "rx.json"
    if text is not None:
        pres.write_text(text)
    out = run_cli("cohomology", "--vars", "x", "--poly", "x",
                  "--presentation", str(pres))
    assert out.returncode == 1, out.stderr
    err = json.loads(out.stderr.strip().splitlines()[-1])
    assert err["kind"] == "invalid-input"
    assert message in err["error"]


def test_timings_flag():
    out = run_cli("cohomology", "--vars", "x", "--poly", "x", "--timings")
    data = json.loads(out.stdout)
    assert data["timings"] is not None
    assert "strictify" in data["timings"]
    bare = run_cli("cohomology", "--vars", "x", "--poly", "x")
    assert json.loads(bare.stdout)["timings"] is None


def test_stage_logging_env():
    out = run_cli("cohomology", "--vars", "x", "--poly", "x",
                  env_extra={"DERHAM_LOG": "info"})
    assert out.returncode == 0
    assert "stage" in out.stderr  # pipeline stages logged at info level


def test_debug_logging_reports_solver_builds_and_keeps_stdout():
    bare = run_cli("cohomology", "--vars", "x,y", "--poly", "x*y")
    debug = run_cli("cohomology", "--vars", "x,y", "--poly", "x*y",
                    env_extra={"DERHAM_LOG": "debug"})
    assert bare.returncode == debug.returncode == 0
    assert debug.stdout == bare.stdout
    assert "derham.groebner DEBUG solver: rank " in debug.stderr
    assert "derham.strictify DEBUG minimize: " in debug.stderr
    assert "solver:" not in bare.stderr
    assert "minimize" not in bare.stderr


def test_text_reports_are_deterministic():
    args = ("cohomology", "--vars", "x,y", "--poly", "x*y", "--format", "text")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_variable_collision_rejected():
    out = run_cli("cohomology", "--vars", "x,dx", "--poly", "x")
    assert out.returncode == 1


def test_duplicate_variable_names_rejected():
    out = run_cli("cohomology", "--vars", "x,x", "--poly", "x")
    assert out.returncode == 1
    assert out.stdout == ""
    err = json.loads(out.stderr.strip().splitlines()[-1])
    assert err["kind"] == "invalid-input"
    assert "declared twice" in err["error"]


@pytest.mark.parametrize("args", [
    ("cohomology", "--poly", "x"),
    ("cohomology", "--vars", "x", "--poly", "x", "--max-b-degree", "abc"),
    ("cohomology", "--vars", "x", "--poly", "x", "--max-b-degree", "-1"),
    ("bfunction", "--vars", "x", "--module", "d1", "--max-b-degree", "-1"),
    ("frobnicate", "--vars", "x"),
    (),
    ("mv", "--vars", "x", "--poly", "x", "--format", "text"),
    ("localize", "--vars", "x", "--poly", "x", "--max-b-degree", "3"),
    ("mv", "--vars", "x", "--poly", "x", "--max-b-degree", "3"),
], ids=["missing vars", "non-integer b-degree", "negative b-degree",
        "negative b-degree bfunction", "unknown subcommand", "no subcommand",
        "mv has no text format", "localize has no b-degree",
        "mv has no b-degree"])
def test_usage_errors_exit_1(args):
    # exit code 2 belongs to the b-function bound, not to argparse
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["kind"] == "invalid-input"
    assert err["stage"] is None


def test_help_exits_0():
    out = run_cli("--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: derham")
    out = run_cli("cohomology", "--help")
    assert out.returncode == 0
    assert "--max-b-degree" in out.stdout


def test_determinism_across_hash_seeds():
    a = run_cli("cohomology", "--vars", "x,y", "--poly", "x*y",
                env_extra={"PYTHONHASHSEED": "1"})
    b = run_cli("cohomology", "--vars", "x,y", "--poly", "x*y",
                env_extra={"PYTHONHASHSEED": "31337"})
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_support_determinism_across_hash_seeds():
    # its solvers take two h-saturation rounds, which keep sets of indices
    args = ("support", "--vars", "x,y", "--poly", "x", "--poly", "y",
            "--support-poly", "x - 1", "--support-poly", "y - 1")
    a = run_cli(*args, env_extra={"PYTHONHASHSEED": "1"})
    b = run_cli(*args, env_extra={"PYTHONHASHSEED": "31337"})
    assert a.returncode == b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout


def test_debug_logging_reports_spair_counts():
    args = ("cohomology", "--vars", "x,y", "--poly", "x", "--poly", "y")
    bare = run_cli(*args)
    debug = run_cli(*args, env_extra={"DERHAM_LOG": "debug"})
    assert bare.returncode == debug.returncode == 0
    # (solver builds, S-pairs reduced, S-pairs skipped) of each stage
    work = stage_work(debug.stderr.splitlines())
    assert (work["strictify"], work["b-function"]) == ((9, 13, 3), (2, 2, 0))
    assert "S-pairs" not in bare.stderr


def test_internal_error_exit_code(monkeypatch, capsys):
    # an h-saturation that never stabilizes is an InternalError: exit code
    # 3 with a named stage, not an unexpected exception
    from fractions import Fraction
    import derham.groebner as G
    from derham.cli import main

    original = G.GBEngine.buchberger

    def with_h_content(self, gens, *args, **kwargs):
        if not self.h_step:
            return original(self, gens, *args, **kwargs)
        lead = self.codec.pack(0, (0,) * (2 * self.n), 1)
        return [(lead, Fraction(1), {lead: Fraction(1)})]

    monkeypatch.setattr(G.GBEngine, "buchberger", with_h_content)
    assert main(["cohomology", "--vars", "x", "--poly", "x"]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "inconsistency"
    assert err["stage"] is not None
    assert "h-saturation" in err["error"]
