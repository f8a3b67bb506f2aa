"""Command line behavior: payload shapes, exit codes, determinism."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

from eqtwist import cli, fixtures
from eqtwist.abgroups import AbHom
from eqtwist.fixtures import fixture_path
from eqtwist.groups import FiniteGroup

from helpers import symmetric4


def fx(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_validate_accepts_the_circle(capsys):
    data = run_json(capsys, "validate", "--complex", fx("s1.json"))
    assert data["ok"] is True
    assert "complex" in data["checked"]


def test_validate_reports_the_offending_simplex(capsys):
    code, out, err = run(capsys, "validate", "--complex",
                         fx("broken_delta2.json"))
    assert code == 1
    assert err.startswith("error: ")
    assert "0-1-2" in err


def test_validate_names_the_morphism_of_a_nonnatural_twist(capsys):
    code, out, err = run(capsys, "validate",
                         "--complex", fx("refs1.json"),
                         "--twist", fx("twist_refs1_nonnatural.json"))
    assert code == 1
    assert "classifying maps disagree along e|e|t" in err


def test_validate_requires_coefficients_for_an_action(capsys):
    code, out, err = run(capsys, "validate",
                         "--complex", fx("s1.json"),
                         "--twist", fx("twist_s1_z2.json"),
                         "--action", fx("action_s1_z2_sign.json"))
    assert code == 1
    assert "coefficient action needs --coeffs" in err


def test_validate_checks_the_action_when_given(capsys):
    data = run_json(capsys, "validate",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z.json"),
                    "--twist", fx("twist_s1_z2.json"),
                    "--action", fx("action_s1_z2_sign.json"))
    assert data["ok"] is True
    assert "coefficient action" in data["checked"]


BASE_CHECKS = ["complex", "fixed point system", "coefficient system"]

# name -> (input files besides --coeffs, checks beyond the base ones)
CHECKED_LISTS = {
    "coefficients only": (["--complex", fx("s1.json")], []),
    "group twist with phi": (
        ["--complex", fx("s1.json"), "--twist", fx("twist_s1_z2.json"),
         "--action", fx("action_s1_z2_sign.json")],
        ["twisting identities", "classifying map naturality",
         "coefficient action"]),
    "edge path twist with edges": (
        ["--complex", fx("triangle.json"), "--twist", fx("twist_triangle.json"),
         "--action", fx("action_triangle.json")],
        ["edge paths", "edge holonomies"]),
}


@pytest.mark.parametrize("case", sorted(CHECKED_LISTS))
def test_validate_lists_its_checks_in_order(capsys, case):
    files, extra = CHECKED_LISTS[case]
    argv = ["validate", "--coeffs", fx("coeffs_z.json")] + files
    data = run_json(capsys, *argv)
    assert data == {"ok": True, "checked": BASE_CHECKS + extra}
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == 0
    assert out.splitlines() == ["ok"] + [f"checked: {c}"
                                         for c in BASE_CHECKS + extra]


# space -> (complex, twist, action, the error of that action without
# --coeffs)
PARITY_INPUTS = {
    "s1": ("s1.json", "twist_s1_z2.json", "action_s1_z2_sign.json",
           "a coefficient action needs --coeffs"),
    "triangle": ("triangle.json", "twist_triangle.json",
                 "action_triangle.json",
                 "edge actions need a coefficient system"),
}


@pytest.mark.parametrize("action", [False, True], ids=["bare", "action"])
@pytest.mark.parametrize("coeffs", [False, True], ids=["plain", "coeffs"])
@pytest.mark.parametrize("space", sorted(PARITY_INPUTS))
def test_validate_accepts_exactly_what_twisted_loads(capsys, space, coeffs,
                                                     action):
    complex_file, twist, action_file, no_coeffs_error = PARITY_INPUTS[space]
    argv = ["--complex", fx(complex_file), "--twist", fx(twist)]
    if action:
        argv += ["--action", fx(action_file)]
    if not coeffs:
        # twisted cannot run without coefficients
        code, out, err = run(capsys, "validate", *argv)
        if action:
            assert (code, out, err) == (1, "", f"error: {no_coeffs_error}\n")
        else:
            assert code == 0, err
        return
    argv += ["--coeffs", fx("coeffs_z.json")]
    code, _out, err = run(capsys, "validate", *argv)
    twisted_code, _out, twisted_err = run(capsys, "twisted", *argv,
                                          "--nmax", "1")
    assert (code, err) == (twisted_code, twisted_err)


def test_fixedpoints_lists_subgroups_in_order(capsys):
    data = run_json(capsys, "fixedpoints", "--complex", fx("refs1.json"))
    keys = [e["subgroup"] for e in data["subgroups"]]
    assert keys == ["e", "e,t"]
    fixed = data["subgroups"][1]
    assert fixed["cells"]["0"] == ["a", "b"]
    assert fixed["cells"]["1"] == []


@pytest.mark.parametrize("table,line", [
    ([[0, 1], [1, 0], [0, 1]], "'table' must be 2 x 2 for 2 elements"),
    ([[0, 1], [1, 0, 7]], "'table' must be 2 x 2 for 2 elements"),
    ([[0, True], [True, 0]], "'table' entries must be integers in 0..1"),
], ids=["three rows", "long row", "boolean entries"])
def test_fixedpoints_rejects_a_malformed_group_table(capsys, tmp_path, table,
                                                    line):
    with open(fx("refs1.json")) as fh:
        data = json.load(fh)
    data["group"]["table"] = table
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "fixedpoints", "--complex", str(path)) == \
        (1, "", f"error: complex 'group' {line}\n")


def test_fixedpoints_reaches_s4(capsys, tmp_path):
    # a point with S_4 acting trivially: all 30 subgroups fix it
    s4 = symmetric4()
    data = {"simplices": {"0": ["v"]}, "faces": {}, "truncation": 0,
            "group": s4.to_json(),
            "action": {g: {"v": "v"} for g in s4.names}}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data))
    entries = run_json(capsys, "fixedpoints", "--complex", str(path))[
        "subgroups"]
    assert len(entries) == 30
    ranks = [(e["order"], e["subgroup"]) for e in entries]
    assert ranks == sorted(ranks)
    assert ranks[0] == (1, "e") and ranks[-1][0] == 24
    assert all(e["cells"] == {"0": ["v"]} for e in entries)


def test_bredon_circle_over_z(capsys):
    data = run_json(capsys, "bredon",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z.json"), "--nmax", "1")
    assert data["cohomology"] == [
        {"degree": 0, "rank": 1, "torsion": []},
        {"degree": 1, "rank": 1, "torsion": []},
    ]


def test_bredon_single_degree_payload_is_flat(capsys):
    data = run_json(capsys, "bredon",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z.json"), "--degree", "1")
    assert data == {"degree": 1, "rank": 1, "torsion": []}


def test_bredon_degree_beyond_the_truncation_is_zero(capsys):
    data = run_json(capsys, "bredon",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z.json"), "--degree", "5")
    assert data == {"degree": 5, "rank": 0, "torsion": []}


def test_bredon_text_format(capsys):
    code, out, err = run(capsys, "bredon",
                         "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z.json"),
                         "--nmax", "1", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["H^0 = Z", "H^1 = Z"]


def test_bredon_requires_a_degree_request(capsys):
    code, out, err = run(capsys, "bredon",
                         "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z.json"))
    assert code == 1
    assert "either --degree or --nmax" in err


def test_twisted_sign_circle_over_z(capsys):
    data = run_json(capsys, "twisted",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z.json"),
                    "--twist", fx("twist_s1_z2.json"),
                    "--action", fx("action_s1_z2_sign.json"),
                    "--degree", "1")
    assert data == {"degree": 1, "rank": 0, "torsion": [2]}


def test_twisted_triangle_holonomy(capsys):
    data = run_json(capsys, "twisted",
                    "--complex", fx("triangle.json"),
                    "--coeffs", fx("coeffs_z.json"),
                    "--twist", fx("twist_triangle.json"),
                    "--action", fx("action_triangle.json"),
                    "--nmax", "1")
    assert data["cohomology"] == [
        {"degree": 0, "rank": 0, "torsion": []},
        {"degree": 1, "rank": 0, "torsion": [2]},
    ]


def test_twisted_names_the_morphism_of_a_nonnatural_twist(capsys):
    code, out, err = run(capsys, "twisted",
                         "--complex", fx("refs1.json"),
                         "--coeffs", fx("coeffs_z2.json"),
                         "--twist", fx("twist_refs1_nonnatural.json"),
                         "--nmax", "1")
    assert (code, out) == (1, "")
    assert err == "error: classifying maps disagree along e|e|t\n"


def test_twisted_needs_a_twist_file(capsys):
    code, out, err = run(capsys, "twisted",
                         "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z.json"), "--nmax", "1")
    assert code == 1
    assert "--twist" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("coeffs", ["z", "z2", "z4"])
@pytest.mark.parametrize("twist", ["twist_s1_z2.json", "twist_s1_z4.json"])
def test_a_group_twist_without_an_action_prints_what_bredon_prints(
        capsys, twist, coeffs, fmt):
    # with no action file the twist's group acts trivially: no twist
    argv = ["--complex", fx("s1.json"), "--coeffs", fx(f"coeffs_{coeffs}.json"),
            "--nmax", "2", "--format", fmt]
    untwisted = run(capsys, "bredon", *argv)
    assert untwisted[0] == 0
    assert run(capsys, "twisted", *argv, "--twist", fx(twist)) == untwisted


@pytest.mark.parametrize("command,missing", [
    ("bredon", "--coeffs"), ("twisted", "--coeffs"),
    ("crosscheck", "--coeffs"), ("twisted", "--twist")])
def test_argparse_refuses_a_missing_required_file(capsys, command, missing):
    files = {"--complex": fx("s1.json"), "--coeffs": fx("coeffs_z.json")}
    if command == "twisted":
        files["--twist"] = fx("twist_s1_z2.json")
    del files[missing]
    argv = [command, "--nmax", "1"] + [a for kv in files.items() for a in kv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"eqtwist {command}: error: the "
                                   f"following arguments are required: "
                                   f"{missing}")


def test_json_output_is_deterministic(capsys):
    argv = ["bredon", "--complex", fx("s1.json"),
            "--coeffs", fx("coeffs_z.json"), "--nmax", "2"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cartan_check_canonical_theory(capsys):
    data = run_json(capsys, "cartan-check",
                    "--theory", fx("theory_canonical.json"),
                    "--coeffs", fx("coeffs_z2.json"), "--bounds", "2,3")
    assert data["i_max"] == 2 and data["p_max"] == 3
    assert data["all_ok"] is True
    assert [e["axiom"] for e in data["axioms"]] == [1, 2, 3, 4, 5]
    assert all(e["ok"] for e in data["axioms"])


def test_cartan_check_over_the_complex_group(capsys):
    data = run_json(capsys, "cartan-check",
                    "--theory", fx("theory_canonical.json"),
                    "--complex", fx("refs1.json"),
                    "--coeffs", fx("coeffs_z2.json"), "--bounds", "2,2")
    assert data["all_ok"] is True


def test_cartan_check_budget(capsys):
    code, out, err = run(capsys, "cartan-check",
                         "--theory", fx("theory_canonical.json"),
                         "--coeffs", fx("coeffs_z2.json"),
                         "--bounds", "2,3", "--budget", "3")
    assert code == 2
    assert err.startswith("budget exhausted: ")


@pytest.mark.parametrize("budget,code", [("24", 2), ("25", 0)])
def test_cartan_check_budget_counts_the_built_columns(capsys, budget, code):
    assert run(capsys, "cartan-check", "--theory", fx("theory_canonical.json"),
               "--coeffs", fx("coeffs_z2.json"), "--bounds", "2,3",
               "--budget", budget)[0] == code


def test_cartan_check_refuses_a_group_and_a_complex(capsys, tmp_path):
    group = tmp_path / "c2.json"
    group.write_text(json.dumps(FiniteGroup.cyclic(2).to_json()))
    code, out, err = run(capsys, "cartan-check",
                         "--theory", fx("theory_canonical.json"),
                         "--coeffs", fx("coeffs_z2.json"),
                         "--group", str(group), "--complex", fx("refs1.json"))
    assert (code, out, err) == \
        (1, "", "error: --group and --complex exclude each other\n")


@pytest.mark.parametrize("bounds", ["0,2", "3,0"])
def test_bounds_must_be_positive_as_in_a_theory_file(capsys, bounds):
    # the same values in a theory file are cases of MALFORMED_FILES
    code, out, err = run(capsys, "cartan-check",
                         "--theory", fx("theory_canonical.json"),
                         "--coeffs", fx("coeffs_z2.json"), "--bounds", bounds)
    assert (code, out, err) == (1, "", "error: theory bounds must be positive\n")


def test_crosscheck_twisted_circle(capsys):
    data = run_json(capsys, "crosscheck",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z4.json"),
                    "--twist", fx("twist_s1_z4.json"),
                    "--action", fx("action_s1_z4_sign.json"))
    assert data["all_match"] is True
    assert data["iso"] is True
    assert data["commutes"] is True
    assert [e["match"] for e in data["degrees"]] == [True, True, True]


def test_crosscheck_accepts_a_theory_file(capsys):
    data = run_json(capsys, "crosscheck",
                    "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z2.json"),
                    "--theory", fx("theory_canonical.json"), "--nmax", "1")
    assert data["all_match"] is True


def test_crosscheck_rejects_a_truncated_theory(capsys):
    code, out, err = run(capsys, "crosscheck",
                         "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z2.json"),
                         "--theory", fx("theory_canonical.json"),
                         "--nmax", "3")
    assert code == 1
    assert "truncate" in err


def test_crosscheck_rejects_a_degree_beyond_the_truncation(capsys):
    code, out, err = run(capsys, "crosscheck",
                         "--complex", fx("triangle.json"),
                         "--coeffs", fx("coeffs_z.json"), "--nmax", "3")
    assert code == 1
    assert out == ""
    assert err == "error: --nmax exceeds the truncation 2 of the complex\n"


def test_crosscheck_defaults_nmax_to_the_truncation_when_it_is_below_two(
        capsys):
    data = run_json(capsys, "crosscheck", "--complex", fx("sphere0.json"),
                    "--coeffs", fx("coeffs_z.json"))
    assert [e["degree"] for e in data["degrees"]] == [0, 1]
    assert data["all_match"] is True


def test_an_error_inside_the_comparison_is_an_invariant_breach(
        capsys, monkeypatch):
    # only a theory whose coordinates do not project onto the
    # coefficients leaves iso and commutes null; any other error of the
    # iso step is the library's own
    def boom(self):
        raise ValueError("boom")
    monkeypatch.setattr(AbHom, "is_iso", boom)
    code, out, err = run(capsys, "crosscheck", "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z.json"), "--format", "text")
    assert (code, out, err) == (3, "", "internal invariant breach: boom\n")


def test_a_missing_input_file_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "bredon", "--complex", missing,
                         "--coeffs", fx("coeffs_z.json"), "--nmax", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert missing in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


# (raw contents of a coefficient file, the reason after its path)
UNREADABLE_FILES = {
    "not JSON": (b"constant", "Expecting value: line 1 column 1 (char 0)"),
    "not UTF-8": (b"\xff{}", "'utf-8' codec can't decode byte 0xff in "
                              "position 0: invalid start byte"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_an_unreadable_input_file_is_named(capsys, tmp_path, case):
    contents, reason = UNREADABLE_FILES[case]
    path = tmp_path / "coeffs.json"
    path.write_bytes(contents)
    assert run(capsys, "bredon", "--complex", fx("s1.json"),
               "--coeffs", str(path), "--nmax", "1") == \
        (1, "", f"error: {path}: {reason}\n")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises, and its file
    descriptor is the given one."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["bredon", "--complex", fx("refs1.json"), "--coeffs", fx("coeffs_z2.json"),
     "--nmax", "3", "--format", "text"],
    ["em-info", "--A", "Z2", "--n", "1", "--q", "3"],
], ids=["bredon", "em-info"])
def test_a_closed_stdout_ends_the_run_quietly(capsys, monkeypatch, tmp_path,
                                              argv):
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        assert cli.main(argv) == 0
        # the descriptor now writes to the null device, as the flush at
        # exit will
        os.write(fh.fileno(), b"left in the buffer")
    assert target.read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_a_pipe_with_no_reader_gets_no_traceback():
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eqtwist.cli", "em-info", "--A", "Z2",
             "--n", "1", "--q", "3"], stdout=write, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def _without_group():
    with open(fx("s1.json")) as fh:
        data = json.load(fh)
    del data["group"]
    return data


MALFORMED_COMPLEXES = {
    "a list": lambda: [1, 2],
    "no group": _without_group,
}

COMPLEX_COMMANDS = {
    "validate": ["validate"],
    "fixedpoints": ["fixedpoints"],
    "bredon": ["bredon", "--coeffs", fx("coeffs_z.json"), "--nmax", "1"],
    "twisted": ["twisted", "--coeffs", fx("coeffs_z.json"),
                "--twist", fx("twist_s1_z2.json"), "--nmax", "1"],
    "cartan-check": ["cartan-check", "--theory", fx("theory_canonical.json"),
                     "--coeffs", fx("coeffs_z2.json")],
    "crosscheck": ["crosscheck", "--coeffs", fx("coeffs_z2.json"),
                   "--twist", fx("twist_s1_z2.json")],
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_COMPLEXES))
@pytest.mark.parametrize("command", sorted(COMPLEX_COMMANDS))
def test_a_malformed_complex_is_an_input_error(capsys, tmp_path, command,
                                               shape):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(MALFORMED_COMPLEXES[shape]()))
    argv = COMPLEX_COMMANDS[command] + ["--complex", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("module, command", [
    (fixtures, ["validate"]),
    (fixtures, ["bredon", "--coeffs", fx("coeffs_z.json"), "--nmax", "1"]),
], ids=["validate", "load_setup"])
def test_a_library_error_after_parsing_is_not_an_input_error(
        capsys, monkeypatch, module, command):
    # only the parsing steps report shape errors as bad input; a TypeError
    # out of a computation on well-formed input is a bug and propagates
    def boom(gx, cat):
        raise TypeError("synthetic library bug")
    monkeypatch.setattr(module, "fixed_point_system", boom)
    with pytest.raises(TypeError, match="synthetic library bug"):
        cli.main(command + ["--complex", fx("s1.json")])


def test_em_info_orders(capsys):
    data = run_json(capsys, "em-info", "--A", "Z2", "--n", "1", "--q", "3")
    assert data["orders"] == [1, 2, 4, 8]


def test_em_info_rejects_a_malformed_group(capsys):
    code, out, err = run(capsys, "em-info", "--A", "K", "--n", "1",
                         "--q", "2")
    assert code == 1
    assert err.startswith("error: ")


def test_em_info_budget(capsys):
    code, out, err = run(capsys, "em-info", "--A", "Z2", "--n", "1",
                         "--q", "6", "--budget", "10")
    assert code == 2
    assert "generator columns" in err


@pytest.mark.parametrize("budget,code", [("14", 2), ("15", 0)])
def test_em_info_budget_counts_the_built_columns(capsys, budget, code):
    # levels 0..3 of C(Z2, 1) and C(Z2, 2): 0+1+3+6 + 0+0+1+4 = 15
    assert run(capsys, "em-info", "--A", "Z2", "--n", "1", "--q", "3",
               "--budget", budget)[0] == code


@pytest.mark.parametrize("budget,code", [("2", 2), ("3", 0)])
def test_bredon_budget_counts_the_cochain_columns(capsys, budget, code):
    assert run(capsys, "bredon", "--complex", fx("refs1.json"),
               "--coeffs", fx("coeffs_z.json"), "--nmax", "1",
               "--budget", budget)[0] == code


@pytest.mark.parametrize("argv", [
    ["--complex", fx("s1.json"), "--coeffs", fx("coeffs_z4.json"),
     "--twist", fx("twist_s1_z4.json"),
     "--action", fx("action_s1_z4_sign.json"), "--budget", "10"],
    ["--complex", fx("refs1.json"), "--coeffs", fx("coeffs_z2.json"),
     "--theory", fx("theory_canonical.json"), "--nmax", "1",
     "--budget", "8"],
], ids=["lift system", "explicit theory"])
def test_crosscheck_budget(capsys, argv):
    code, out, err = run(capsys, "crosscheck", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("budget exhausted: ")
    assert "generator columns" in err


def test_a_negative_budget_is_an_input_error(capsys):
    code, out, err = run(capsys, "bredon", "--complex", fx("refs1.json"),
                         "--coeffs", fx("coeffs_z.json"), "--nmax", "1",
                         "--budget", "-1")
    assert (code, out, err) == (1, "", "error: --budget must be nonnegative\n")


@pytest.mark.parametrize("command", [
    ["validate", "--complex", fx("s1.json")],
    ["fixedpoints", "--complex", fx("refs1.json")],
])
def test_a_zero_budget_admits_commands_that_build_no_sums(capsys, command):
    assert run(capsys, *command, "--budget", "0")[0] == 0


def test_internal_breach_exits_three(capsys, monkeypatch):
    def boom(ec):
        raise ValueError("synthetic breach")
    monkeypatch.setattr(cli, "untwisted_complex", boom)
    code, out, err = run(capsys, "bredon",
                         "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z.json"), "--nmax", "1")
    assert code == 3
    assert err.startswith("internal invariant breach: ")


@pytest.mark.parametrize("command", [
    ["cartan-check", "--coeffs", fx("coeffs_z2.json"), "--bounds", "1,1"],
    ["crosscheck", "--complex", fx("s1.json"),
     "--coeffs", fx("coeffs_z2.json"), "--nmax", "0"],
], ids=["cartan-check", "crosscheck"])
def test_a_theory_without_bounds_is_an_input_error(capsys, tmp_path,
                                                   command):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"canonical": True}))
    code, out, err = run(capsys, *command, "--theory", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: theory has no 'i_max'\n"


def _coeffs(**constant):
    return {"constant": constant}


def _twist(**data):
    base = {"pi": {"elements": ["e", "t"], "table": [[0, 1], [1, 0]]},
            "values": {"e": "t"}}
    base.update(data)
    return {k: v for k, v in base.items() if v is not None}


def _s1(**changes):
    """The circle's complex file with the given top-level keys replaced."""
    with open(fx("s1.json")) as fh:
        data = json.load(fh)
    data.update(changes)
    return data


def _refs1_action(t):
    """The reflection circle's complex file with t acting by the given
    value in place of its cell map."""
    with open(fx("refs1.json")) as fh:
        data = json.load(fh)
    data["action"]["t"] = t
    return data


# t's cell map on the reflection circle
REFS1_T = {"a": "a", "b": "b", "p": "q", "q": "p"}

# Z over the trivial group, as a "values" coefficient file
Z_VALUES = {"values": {"e": {"gens": 1}}}


def _s1_cells(**simplices):
    """The circle's complex file with the given dimension keys of
    'simplices' replaced."""
    data = _s1()
    data["simplices"] = {**data["simplices"], **simplices}
    return data


def _kappa_paths(paths):
    """The triangle's edge path twist with the given paths at e."""
    return {"kappa": {"basepoint": "v0", "paths": {"e": paths}}}


def _kappa_step(step):
    """The triangle's edge path twist, its path to v1 the one step."""
    return _kappa_paths({"v0": [], "v1": [step], "v2": [["e02", 1]]})


def _kappa_at(basepoint):
    """The triangle's edge path twist with the given basepoint."""
    return {"kappa": {"basepoint": basepoint, "paths": {"e": {
        "v0": [], "v1": [["e01", 1]], "v2": [["e02", 1]]}}}}


def _kappa(direction):
    """The triangle's edge path twist, its path to v1 stepping along e01
    in the given direction."""
    return _kappa_step(["e01", direction])


# the triangle's edge path twist with one part of the wrong shape, and
# the one error line it must give
MALFORMED_PATHS = {
    "step without a direction": (
        _kappa_step(["e01"]),
        "error: twist 'paths' step ['e01'] at 'v1' is not an "
        "[edge name, direction] pair\n"),
    "step as an object": (
        _kappa_step({"e01": 1}),
        "error: twist 'paths' step {'e01': 1} at 'v1' is not an "
        "[edge name, direction] pair\n"),
    "step as a string": (
        _kappa_step("e01"),
        "error: twist 'paths' step 'e01' at 'v1' is not an "
        "[edge name, direction] pair\n"),
    "step of three entries": (
        _kappa_step(["e01", 1, 2]),
        "error: twist 'paths' step ['e01', 1, 2] at 'v1' is not an "
        "[edge name, direction] pair\n"),
    "step with a numeric edge": (
        _kappa_step([1, 1]),
        "error: twist 'paths' step [1, 1] at 'v1' is not an "
        "[edge name, direction] pair\n"),
    "steps as a string": (
        _kappa_paths({"v0": [], "v1": "x", "v2": [["e02", 1]]}),
        "error: twist 'paths' key 'v1' at 'e' is not a list of steps\n"),
    "vertex paths as a list": (
        _kappa_paths([["v0", []]]),
        "error: twist 'paths' key 'e' is not an object from vertices to "
        "paths\n"),
    "paths as a list": (
        {"kappa": {"basepoint": "v0", "paths": [["e", {}]]}},
        "error: twist 'paths' is not an object from subgroups to vertex "
        "paths\n"),
    "step along a vertex": (
        _kappa_step(["v1", 1]),
        "error: path to 'v1' steps along 'v1', which is not an edge\n"),
    "basepoint naming nothing": (
        _kappa_at("zz"), "error: twist 'basepoint' 'zz' names no vertex\n"),
    "basepoint naming an edge": (
        _kappa_at("e01"),
        "error: twist 'basepoint' 'e01' names no vertex\n"),
    "unknown kappa key": (
        {"kappa": {**_kappa_at("v0")["kappa"], "base": "v0"}},
        "error: twist 'kappa' has an unknown key 'base'\n"),
}


# (file kind, malformed contents); each case is fed in place of one good
# file of an otherwise valid command line
MALFORMED_FILES = {
    "rels as an int": ("coeffs", _coeffs(gens=1, rels=2)),
    "no gens": ("coeffs", _coeffs(rels=[[2]])),
    "ragged rels": ("coeffs", _coeffs(gens=2, rels=[[2, 0], [0]])),
    "constant as a list": ("coeffs", {"constant": [1, [[2]]]}),
    "twist without pi": ("twist", {"values": {"e": "t"}}),
    "pi as a list": ("twist", _twist(pi=["e", "t"])),
    "values as a list": ("twist", _twist(values=["t"])),
    "values as pairs": ("twist", _twist(values=[["e", "t"]])),
    "elements as a string": ("twist", _twist(pi={"elements": "et",
                                                 "table": [[0, 1], [1, 0]]})),
    "group elements as a string": ("group", {"elements": "et",
                                             "table": [[0, 1], [1, 0]]}),
    "group as an int": ("complex", _s1(group=5)),
    "group table as an int": ("complex", _s1(group={"elements": ["e"],
                                                    "table": 5})),
    "group table as a list of ints": ("complex", _s1(group={
        "elements": ["e"], "table": [5, 5]})),
    "group table as null": ("complex", _s1(group={"elements": ["e"],
                                                  "table": None})),
    "pi table as an int": ("twist", _twist(pi={"elements": ["e", "t"],
                                               "table": 5})),
    "pi table as a list of ints": ("twist", _twist(pi={
        "elements": ["e", "t"], "table": [5, 5]})),
    "pi table as null": ("twist", _twist(pi={"elements": ["e", "t"],
                                             "table": None})),
    "group file table as an int": ("group", {"elements": ["e"],
                                             "table": 5}),
    "phi as a list": ("action", {"phi": [[-1]]}),
    "matrix as an int": ("action", {"phi": {"e": {"t": -1}}}),
    "string bounds": ("theory", {"canonical": True, "i_max": "two",
                                 "p_max": "three"}),
    "list bounds": ("theory", {"canonical": True, "i_max": [2],
                               "p_max": 2}),
    "digit string bounds": ("theory", {"canonical": True, "i_max": "2",
                                       "p_max": "3"}),
    "boolean bounds": ("theory", {"canonical": True, "i_max": True,
                                  "p_max": 2}),
    "fractional bounds": ("theory", {"canonical": True, "i_max": 2.5,
                                     "p_max": 2}),
    "zero i_max": ("theory", {"canonical": True, "i_max": 0, "p_max": 2}),
    "zero p_max": ("theory", {"canonical": True, "i_max": 3, "p_max": 0}),
    "canonical as a string": ("theory", {"canonical": "no", "i_max": 2,
                                         "p_max": 2}),
    "canonical as a number": ("theory", {"canonical": 1, "i_max": 2,
                                         "p_max": 2}),
    "negative gens": ("coeffs", _coeffs(gens=-1)),
    "constant as a one-entry list": ("coeffs", {"constant": [1]}),
    "rels as a list of ints": ("coeffs", _coeffs(gens=1, rels=[2])),
    "one rels row for two gens": ("coeffs", _coeffs(gens=2, rels=[[2]])),
    "value as a list": ("coeffs", {"values": {"e": [1]}}),
    "no values": ("coeffs", {"values": {}}),
    "truncation as a string": ("complex", _s1(truncation="3")),
    "fractional truncation": ("complex", _s1(truncation=3.0)),
    "boolean truncation": ("complex", _s1(truncation=True)),
    "negative dimension key": ("complex", _s1_cells(**{"-1": []})),
    "padded dimension key": ("complex", _s1(simplices={
        " 0": ["v"], "1": ["e"]})),
    "numeric cell name": ("complex", _s1_cells(**{"2": [7]})),
    "cells as a string": ("complex", _s1_cells(**{"2": "f"})),
    "cells above the truncation": ("complex", _s1(
        truncation=1, simplices={"0": ["v"], "1": ["e"], "2": ["f"]},
        faces={"e": ["v", "v"], "f": ["e", "e", "e"]})),
    "faces as a string": ("complex", _s1(faces={"e": "vv"})),
    "action image names no cell": ("complex",
                                   _refs1_action({**REFS1_T, "p": "zz"})),
    "action moves no cell": ("complex",
                             _refs1_action({**REFS1_T, "zz": "zz"})),
    "action leaves a cell out": ("complex", _refs1_action(
        {c: x for c, x in REFS1_T.items() if c != "p"})),
    "numeric action image": ("complex", _refs1_action({**REFS1_T, "p": 3})),
    "cell map as a list": ("complex", _refs1_action(["a"])),
    "action as a list": ("complex", _s1(action=[])),
    "pi as a string": ("twist", _twist(pi="x")),
    "phi as a string": ("action", {"phi": "x"}),
    "phi subgroup as a string": ("action", {"phi": {"e": "x"}}),
    "string phi entry": ("action", {"phi": {"e": {"t": [["x"]]}}}),
    "wide phi matrix": ("action", {"phi": {"e": {"t": [[1, 2]]}}}),
    "edges as a string": ("edge actions", {"edges": "x"}),
    "edge subgroup as a string": ("edge actions", {"edges": {"e": "x"}}),
    "string edge entry": ("edge actions", {"edges": {"e": {
        "e01": [[1]], "e02": [[1]], "e12": [["x"]]}}}),
    "wide edge matrix": ("edge actions", {"edges": {"e": {
        "e01": [[1]], "e02": [[1]], "e12": [[1, 2]]}}}),
    "string maps entry": ("coeffs", {**Z_VALUES, "maps": {"e|e|e": [["x"]]}}),
    "wide maps matrix": ("coeffs", {**Z_VALUES, "maps": {"e|e|e": [[1, 2]]}}),
    "fractional step direction": ("edge paths", _kappa(1.5)),
    "string step direction": ("edge paths", _kappa("1")),
    "boolean step direction": ("edge paths", _kappa(True)),
    "step direction 3": ("edge paths", _kappa(3)),
    "misspelt rels": ("coeffs", _coeffs(gens=1, rel=[[4]])),
    "misspelt action": ("complex", {
        ("actoin" if k == "action" else k): v
        for k, v in _refs1_action(REFS1_T).items()}),
    "unknown group key": ("complex", _s1(group={
        "elements": ["e"], "table": [[0]], "order": 1})),
    "unknown group file key": ("group", {"elements": ["e"], "table": [[0]],
                                         "name": "C1"}),
    "unknown values key": ("coeffs", {"values": {"e": {"gens": 1,
                                                       "rel": []}}}),
    "maps beside constant": ("coeffs", {**_coeffs(gens=1), "maps": {}}),
    "unknown twist key": ("twist", _twist(kappa={})),
    "unknown action key": ("action", {"phi": {}, "edges": {}}),
    "unknown edge action key": ("edge actions", {"edges": {}, "phi": {}}),
    "unknown theory key": ("theory", {"canonical": True, "i_max": 2,
                                      "p_max": 2, "q_max": 2}),
    **{case: ("edge paths", data)
       for case, (data, _line) in MALFORMED_PATHS.items()},
}

# the one error line of the cases of MALFORMED_FILES that a key names
MALFORMED_KEYS = {
    "rels as an int":
        "error: coefficient 'constant' 'rels' must be a JSON list of rows\n",
    "rels as a list of ints":
        "error: coefficient 'constant' 'rels' must be a JSON list of rows\n",
    "no gens": "error: coefficient 'constant' has no 'gens'\n",
    "negative gens": "error: coefficient 'constant' 'gens' -1 is not a "
                     "nonnegative JSON integer\n",
    "constant as a list":
        "error: coefficient 'constant' must be a JSON object\n",
    "constant as a one-entry list":
        "error: coefficient 'constant' must be a JSON object\n",
    "one rels row for two gens": "error: coefficient 'constant' 'rels' must "
                                 "have one row per generator\n",
    "value as a list":
        "error: coefficient 'values' key 'e' must be a JSON object\n",
    "no values": "error: coefficient 'values' has no 'e'\n",
    "fractional step direction":
        "error: twist 'paths' step direction 1.5 at 'v1' is not 1 or -1\n",
    "string step direction":
        "error: twist 'paths' step direction '1' at 'v1' is not 1 or -1\n",
    "boolean step direction":
        "error: twist 'paths' step direction True at 'v1' is not 1 or -1\n",
    "truncation as a string": "error: complex 'truncation' '3' is not a "
                              "nonnegative JSON integer\n",
    "fractional truncation": "error: complex 'truncation' 3.0 is not a "
                             "nonnegative JSON integer\n",
    "boolean truncation": "error: complex 'truncation' True is not a "
                          "nonnegative JSON integer\n",
    "negative dimension key":
        "error: complex 'simplices' key '-1' is not a dimension\n",
    "padded dimension key":
        "error: complex 'simplices' key ' 0' is not a dimension\n",
    "numeric cell name": "error: complex 'simplices' key '2' is not a list "
                         "of cell names\n",
    "cells as a string": "error: complex 'simplices' key '2' is not a list "
                         "of cell names\n",
    "cells above the truncation": "error: complex 'simplices' key '2' lists "
                                  "cells above the truncation 1\n",
    "faces as a string": "error: complex 'faces' key 'e' is not a list of "
                         "face references\n",
    "action image names no cell": "error: complex 'action' key 't' sends "
                                  "'p' to 'zz', which names no cell\n",
    "action moves no cell": "error: complex 'action' key 't' moves 'zz', "
                            "which names no cell\n",
    "action leaves a cell out":
        "error: complex 'action' key 't' gives no image of 'p'\n",
    "numeric action image": "error: complex 'action' key 't' sends 'p' to "
                            "3, which names no cell\n",
    "cell map as a list":
        "error: complex 'action' key 't' must be a JSON object\n",
    "action as a list": "error: complex 'action' must be a JSON object\n",
    "pi as a string": "error: twist 'pi' must be a JSON object\n",
    "group as an int": "error: complex 'group' must be a JSON object\n",
    "group table as an int":
        "error: complex 'group' 'table' must be a JSON list of rows\n",
    "group table as a list of ints":
        "error: complex 'group' 'table' must be a JSON list of rows\n",
    "group table as null":
        "error: complex 'group' 'table' must be a JSON list of rows\n",
    "pi table as an int":
        "error: twist 'pi' 'table' must be a JSON list of rows\n",
    "pi table as a list of ints":
        "error: twist 'pi' 'table' must be a JSON list of rows\n",
    "pi table as null":
        "error: twist 'pi' 'table' must be a JSON list of rows\n",
    "group file table as an int":
        "error: group 'table' must be a JSON list of rows\n",
    "pi as a list": "error: twist 'pi' must be a JSON object\n",
    "phi as a string": "error: action 'phi' must be a JSON object\n",
    "phi as a list": "error: action 'phi' must be a JSON object\n",
    "phi subgroup as a string":
        "error: action 'phi' key 'e' must be a JSON object\n",
    "matrix as an int": "error: action 'phi' key 't' at 'e' must be a JSON "
                        "list of rows\n",
    "string phi entry": "error: action 'phi' key 't' at 'e': matrix entry "
                        "(0, 0) is 'x', not an integer\n",
    "wide phi matrix": "error: action 'phi' key 't' at 'e': ncols disagrees "
                       "with row length\n",
    "edges as a string": "error: action 'edges' must be a JSON object\n",
    "edge subgroup as a string":
        "error: action 'edges' key 'e' must be a JSON object\n",
    "string edge entry": "error: action 'edges' key 'e12' at 'e': matrix "
                         "entry (0, 0) is 'x', not an integer\n",
    "wide edge matrix": "error: action 'edges' key 'e12' at 'e': ncols "
                        "disagrees with row length\n",
    "string maps entry": "error: coefficient 'maps' key 'e|e|e': matrix "
                         "entry (0, 0) is 'x', not an integer\n",
    "wide maps matrix": "error: coefficient 'maps' key 'e|e|e': ncols "
                        "disagrees with row length\n",
    "misspelt rels":
        "error: coefficient 'constant' has an unknown key 'rel'\n",
    "misspelt action": "error: complex has an unknown key 'actoin'\n",
    "unknown group key":
        "error: complex 'group' has an unknown key 'order'\n",
    "unknown group file key": "error: group has an unknown key 'name'\n",
    "unknown values key":
        "error: coefficient 'values' key 'e' has an unknown key 'rel'\n",
    "maps beside constant": "error: coefficient has an unknown key 'maps'\n",
    "unknown twist key": "error: twist has an unknown key 'kappa'\n",
    "unknown action key": "error: action has an unknown key 'edges'\n",
    "unknown edge action key": "error: action has an unknown key 'phi'\n",
    "unknown theory key": "error: theory has an unknown key 'q_max'\n",
}

FILE_COMMANDS = {
    "complex": [["bredon", "--coeffs", fx("coeffs_z.json"), "--nmax", "1"],
                ["validate"]],
    "coeffs": [["bredon", "--complex", fx("s1.json"), "--nmax", "1"]],
    "twist": [["twisted", "--complex", fx("s1.json"),
               "--coeffs", fx("coeffs_z2.json"), "--nmax", "1"]],
    "action": [["twisted", "--complex", fx("s1.json"),
                "--coeffs", fx("coeffs_z2.json"),
                "--twist", fx("twist_s1_z2.json"), "--nmax", "1"]],
    "theory": [["cartan-check", "--coeffs", fx("coeffs_z2.json"),
                "--bounds", "1,1"],
               ["crosscheck", "--complex", fx("s1.json"),
                "--coeffs", fx("coeffs_z2.json"), "--nmax", "0"]],
    "group": [["cartan-check", "--theory", fx("theory_canonical.json"),
               "--coeffs", fx("coeffs_z2.json"), "--bounds", "1,1"]],
    "edge paths": [["twisted", "--complex", fx("triangle.json"),
                    "--coeffs", fx("coeffs_z.json"),
                    "--action", fx("action_triangle.json"), "--nmax", "1"]],
    "edge actions": [["twisted", "--complex", fx("triangle.json"),
                      "--coeffs", fx("coeffs_z.json"),
                      "--twist", fx("twist_triangle.json"), "--nmax", "1"]],
}

# the flag of a file kind, where it is not the kind itself
FILE_FLAGS = {"edge paths": "twist", "edge actions": "action"}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_a_malformed_input_file_is_an_input_error(capsys, tmp_path, case):
    kind, data = MALFORMED_FILES[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    for command in FILE_COMMANDS[kind]:
        code, out, err = run(capsys, *command,
                             f"--{FILE_FLAGS.get(kind, kind)}", str(path))
        assert (code, out) == (1, ""), (command, err)
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert err == MALFORMED_KEYS.get(case, err), command


# the circle's group twist and sign action, the triangle's edge path
# twist with its edge holonomies, and the circle's complex, each with one
# name that names nothing
S1_SIGN = ["--complex", fx("s1.json"), "--coeffs", fx("coeffs_z2.json"),
           "--twist", fx("twist_s1_z2.json")]
TRIANGLE = ["--complex", fx("triangle.json"), "--coeffs", fx("coeffs_z.json")]
TRIANGLE_EDGES = {"e01": [[1]], "e02": [[1]], "e12": [[-1]]}
TRIANGLE_PATHS = {"v0": [], "v1": [["e01", 1]], "v2": [["e02", 1]]}

# (the other files, file kind, its contents, the one error line it
# must give)
UNKNOWN_NAMES = {
    "phi element": (
        S1_SIGN, "action", {"phi": {"e": {"t": [[-1]], "zz": [[5]]}}},
        "error: action 'phi' key 'zz' at 'e' names no element of pi\n"),
    "phi subgroup": (
        S1_SIGN, "action", {"phi": {"e": {"t": [[-1]]}, "bogus": {}}},
        "error: action 'phi' key 'bogus' names no subgroup\n"),
    "edge": (
        TRIANGLE + ["--twist", fx("twist_triangle.json")], "action",
        {"edges": {"e": {**TRIANGLE_EDGES, "e99": [[1]]}}},
        "error: action 'edges' key 'e99' at 'e' names no edge of that "
        "fixed complex\n"),
    "edge subgroup": (
        TRIANGLE + ["--twist", fx("twist_triangle.json")], "action",
        {"edges": {"e": TRIANGLE_EDGES, "bogus": {}}},
        "error: action 'edges' key 'bogus' names no subgroup\n"),
    "path subgroup": (
        TRIANGLE + ["--action", fx("action_triangle.json")], "twist",
        {"kappa": {"basepoint": "v0",
                   "paths": {"e": TRIANGLE_PATHS, "bogus": {}}}},
        "error: twist 'paths' key 'bogus' names no subgroup\n"),
    "path vertex": (
        TRIANGLE + ["--action", fx("action_triangle.json")], "twist",
        {"kappa": {"basepoint": "v0",
                   "paths": {"e": {**TRIANGLE_PATHS, "v9": []}}}},
        "error: twist 'paths' key 'v9' at 'e' names no vertex of that "
        "fixed complex\n"),
    "twist value cell": (
        ["--complex", fx("s1.json"), "--coeffs", fx("coeffs_z2.json")],
        "twist", _twist(values={"e": "t", "bogus": "t"}),
        "error: twist 'values' key 'bogus' names no cell of dimension "
        ">= 1\n"),
    "action element": (
        ["--coeffs", fx("coeffs_z2.json"), "--twist", fx("twist_s1_z2.json")],
        "complex", _s1(action={"e": {"e": "e", "v": "v"},
                               "zz": {"e": "e", "v": "v"}}),
        "error: complex 'action' key 'zz' names no element of the group\n"),
    "face list of a vertex": (
        ["--coeffs", fx("coeffs_z2.json"), "--twist", fx("twist_s1_z2.json")],
        "complex", _s1(faces={"e": ["v", "v"], "v": []}),
        "error: complex 'faces' key 'v' names no cell of dimension >= 1\n"),
    "face list of an unlisted cell": (
        ["--coeffs", fx("coeffs_z2.json"), "--twist", fx("twist_s1_z2.json")],
        "complex", _s1(faces={"e": ["v", "v"], "f": ["e", "e", "e"]}),
        "error: complex 'faces' key 'f' names no cell of dimension >= 1\n"),
    "twist value vertex": (
        ["--complex", fx("s1.json"), "--coeffs", fx("coeffs_z2.json")],
        "twist", _twist(values={"e": "t", "v": "e"}),
        "error: twist 'values' key 'v' names no cell of dimension >= 1\n"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_action_and_edge_path_files_name_only_what_exists(capsys, tmp_path,
                                                         case):
    others, kind, data, message = UNKNOWN_NAMES[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    for command in (["twisted", "--nmax", "1"], ["validate"]):
        assert run(capsys, *command, *others, f"--{kind}", str(path)) == \
            (1, "", message), command


@pytest.mark.parametrize("case", sorted(MALFORMED_PATHS))
def test_a_malformed_edge_path_is_named_by_its_key(capsys, tmp_path, case):
    data, message = MALFORMED_PATHS[case]
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(data))
    for command in (["twisted", "--nmax", "1"], ["validate"]):
        assert run(capsys, *command, *TRIANGLE,
                   "--action", fx("action_triangle.json"),
                   "--twist", str(path)) == (1, "", message), command


# (file kind, contents with one non-integer entry, that entry as the
# error names it); JSON numbers and strings are never rounded to an int
NON_INTEGER_FILES = {
    "fractional relation": ("coeffs", _coeffs(gens=1, rels=[[2.5]]), "2.5"),
    "string relation": ("coeffs", _coeffs(gens=1, rels=[["2"]]), "'2'"),
    "boolean relation": ("coeffs", _coeffs(gens=1, rels=[[True]]), "True"),
    "fractional gens": ("coeffs", _coeffs(gens=1.7), "1.7"),
    "float action matrix": ("action", {"phi": {"e": {"t": [[-1.0]]}}},
                            "-1.0"),
}

NON_INTEGER_COMMANDS = {
    "coeffs": ["bredon", "--complex", fx("s1.json"), "--nmax", "2"],
    "action": ["twisted", "--complex", fx("s1.json"),
               "--coeffs", fx("coeffs_z.json"),
               "--twist", fx("twist_s1_z2.json"), "--nmax", "2"],
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_FILES))
def test_a_non_integer_entry_is_refused_by_name(capsys, tmp_path, case):
    kind, data, entry = NON_INTEGER_FILES[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *NON_INTEGER_COMMANDS[kind],
                         f"--{kind}", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert entry in err


def test_successive_calls_print_what_each_prints_alone(capsys):
    calls = [["bredon", "--complex", fx("s1.json"),
              "--coeffs", fx("coeffs_z2.json"), "--nmax", "1",
              "--format", "text"],
             ["em-info", "--A", "Z2", "--n", "1", "--q", "2"],
             ["validate", "--complex", fx("broken_delta2.json"),
              "--format", "text"],
             ["fixedpoints", "--complex", fx("s1.json"), "--format", "json"]]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert [run(capsys, *argv) for argv in reversed(calls)] == alone[::-1]


# a "values" coefficient file over C_2, refs1's group: Z/2 at both
# orbits, restricted by the identity
C2_VALUES = {"values": {"e": {"gens": 1, "rels": [[2]]},
                        "e,t": {"gens": 1, "rels": [[2]]}},
             "maps": {"e|e,t|e": [[1]], "e|e|t": [[1]]}}

# (change to C2_VALUES, the one error line it must give)
BAD_KEYS = {
    "unknown subgroup": (
        {"values": {**C2_VALUES["values"], "bogus": {"gens": 1}}},
        "error: coefficient 'values' key 'bogus' names no subgroup\n"),
    "unparsed morphism": (
        {"maps": {**C2_VALUES["maps"], "typo": [[1]]}},
        "error: coefficient 'maps' key 'typo' names no morphism\n"),
    "no morphism G/G -> G/e": (
        {"maps": {**C2_VALUES["maps"], "e,t|e|e": [[1]]}},
        "error: coefficient 'maps' key 'e,t|e|e' names no morphism\n"),
    "maps as a list": (
        {"maps": []},
        "error: coefficient 'maps' must be a JSON object\n"),
    "values as a list": (
        {"values": []},
        "error: coefficient 'values' must be a JSON object\n"),
    "no value at the fixed orbit": (
        {"values": {"e": C2_VALUES["values"]["e"]}},
        "error: coefficient 'values' has no 'e,t'\n"),
    "two matrices for one morphism": (
        {"maps": {**C2_VALUES["maps"], "e|e,t|t": [[0]]}},
        "error: coefficient 'maps' keys 'e|e,t|e' and 'e|e,t|t' give the "
        "morphism e|e,t|e two matrices\n"),
}


def _c2_commands(tmp_path, coeffs):
    group = tmp_path / "c2.json"
    group.write_text(json.dumps(FiniteGroup.cyclic(2).to_json()))
    return [["cartan-check", "--theory", fx("theory_canonical.json"),
             "--group", str(group), "--coeffs", coeffs, "--bounds", "1,1"],
            ["bredon", "--complex", fx("refs1.json"), "--coeffs", coeffs,
             "--nmax", "1"]]


@pytest.mark.parametrize("case", sorted(BAD_KEYS))
def test_a_coefficient_file_names_only_subgroups_and_morphisms(
        capsys, tmp_path, case):
    change, message = BAD_KEYS[case]
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({**C2_VALUES, **change}))
    for command in _c2_commands(tmp_path, str(coeffs)):
        assert run(capsys, *command) == (1, "", message), command


def test_a_coefficient_file_may_name_a_morphism_by_any_coset_member(
        capsys, tmp_path):
    # e|e,t|t is the morphism e|e,t|e; naming it so changes nothing
    outputs = []
    for maps in (C2_VALUES["maps"], {"e|e,t|t": [[1]], "e|e|t": [[1]]},
                 {**C2_VALUES["maps"], "e|e,t|t": [[1]]}):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({**C2_VALUES, "maps": maps}))
        outputs.append([run(capsys, *command)
                        for command in _c2_commands(tmp_path, str(coeffs))])
    assert outputs[0] == outputs[1] == outputs[2]
    assert [code for code, _out, _err in outputs[0]] == [0, 0]
