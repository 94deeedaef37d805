"""End-to-end command tests through the click runner.

Frozen outputs come from the hand-checked state values and the oracle
sweep; determinism is asserted byte for byte, and every exact string in
the JSON is reparsed and compared against its float rendering.
"""
import importlib.util
import json
import math
import os
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hecke.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "cli_contract", ROOT / "ci" / "cli_contract.py")
cli_contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_contract)


def run_ok(*args, env=None):
    runner = CliRunner()
    res = runner.invoke(main, list(args), env=env)
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def run_fail(*args, env=None):
    runner = CliRunner()
    res = runner.invoke(main, list(args), env=env)
    assert res.exit_code != 0
    return res


def test_field_dump():
    data = run_ok("field", "--field", "d1")
    assert data["discriminant"] == -4
    assert data["delta"] == "2*w"
    assert data["units"] == ["1", "-1", "w", "-w"]
    assert not data["rational"]
    dataq = run_ok("field", "--field", "Q")
    assert dataq["rational"] and dataq["units"] == ["1", "-1"]


def test_kms_symmetric_frozen():
    data = run_ok("kms", "--field", "Q", "--beta", "2", "--r", "(1)/(2)")
    assert data["exact"] == "-1/2"
    assert data["numeric"] == -0.5
    data = run_ok("kms", "--field", "d1", "--beta", "2", "--r", "(1)/(2)")
    assert data["exact"] == "-1/8"
    assert abs(data["numeric"] - float(Fraction(data["exact"]))) < 1e-12


def test_kms_extreme_ground_state():
    data = run_ok("kms", "--field", "d1", "--extreme", "--level", "5",
                  "--w", "1", "--beta", "inf", "--r", "(1)/(5)")
    assert data["cyclotomic"]["m"] == 5
    assert data["cyclotomic"]["coeffs"] == ["1/4", "0", "-1/4", "-1/4"]
    want = (2 + 2 * math.cos(2 * math.pi / 5)) / 4
    assert abs(data["numeric"][0] - want) < 1e-12
    assert abs(data["numeric"][1]) < 1e-12


def test_kms_extreme_finite_beta():
    data = run_ok("kms", "--field", "d1", "--extreme", "--level", "5",
                  "--w", "1", "--beta", "2", "--bound", "20000",
                  "--r", "(1)/(5)")
    assert data["err"] < 1e-3
    assert isinstance(data["numeric"], list) and len(data["numeric"]) == 2


def test_mul_command():
    data = run_ok("mul", "--field", "Q", "theta(1/2)", "theta(1/2)")
    assert data["terms"] == [{
        "a": "1", "b": "1",
        "coeff": {"exact": "1", "numeric": 1.0}, "r": "0"}]
    data = run_ok("mul", "--field", "d1", "theta(1/2)", "theta(1/2)")
    assert len(data["terms"]) == 2
    for term in data["terms"]:
        assert term["coeff"]["exact"] == "1/2"
        assert abs(term["coeff"]["numeric"]
                   - float(Fraction(term["coeff"]["exact"]))) < 1e-12
    # composite expressions multiply left to right
    data = run_ok("mul", "--field", "Q", "mu(2) theta(1/2)", "mustar(2)")
    assert data["terms"] == [{
        "a": "1", "b": "1",
        "coeff": {"exact": "1", "numeric": 1.0}, "r": "1/4"}]


def test_pair_command():
    data = run_ok("pair", "--field", "Q", "--level", "5", "--w", "1",
                  "--r", "(1)/(5)")
    assert data["exponent"] == "1/5"
    assert data["order"] == 5
    assert abs(data["numeric"][0] - math.cos(2 * math.pi / 5)) < 1e-12
    assert abs(data["numeric"][1] - math.sin(2 * math.pi / 5)) < 1e-12


def test_zeta_command():
    data = run_ok("zeta", "--field", "d1", "--beta", "2", "--tol", "1e-6")
    assert abs(data["value"] - 1.5067030) < 1e-6
    assert data["err"] < 1e-6


def test_verify_command_clean():
    data = run_ok("verify", "--field", "d1", "--level", "3")
    assert data["failures"] == []
    assert data["checked"] == data["monomials"] ** 2


def test_galois_compare_witness_and_determinism():
    args = ["galois-compare", "--field", "d1", "--level", "5", "--w", "1",
            "--j", "3", "--r", "(1)/(5)"]
    runner = CliRunner()
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output  # byte-identical
    data = json.loads(first.output)
    assert data["equal"] is False
    geo = (2 + 2 * math.cos(6 * math.pi / 5)) / 4
    ari = (2 + 2 * math.cos(8 * math.pi / 5)) / 4
    assert abs(data["geometric"]["numeric"][0] - geo) < 1e-12
    assert abs(data["arithmetic"]["numeric"][0] - ari) < 1e-12


def test_galois_compare_rational_always_equal():
    data = run_ok("galois-compare", "--field", "Q", "--level", "5",
                  "--w", "2", "--j", "3", "--r", "(2)/(5)")
    assert data["equal"] is True


def test_regularity_command():
    data = run_ok("regularity", "--field", "d1", "--level", "5")
    assert data["all_ok"] is True
    assert data["group_order"] == 4 == data["extreme_classes"]


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "hecke.cfg"
    cfg.write_text("field_tag = d1\n# comment line\nbeta = 2\n")
    data = run_ok("kms", "--config", str(cfg), "--r", "(1)/(2)")
    assert data["exact"] == "-1/8"  # field came from the config
    data = run_ok("kms", "--config", str(cfg), "--field", "Q",
                  "--r", "(1)/(2)")
    assert data["exact"] == "-1/2"  # explicit flag wins
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    res = run_fail("kms", "--config", str(bad), "--r", "(1)/(2)")
    assert res.exit_code == 2
    # a level from the file is checked as one from the command line
    for level in ("0", "abc"):
        cfg.write_text(f"level = {level}\n")
        res = run_fail("verify", "--config", str(cfg))
        assert res.exit_code == 2 and "Traceback" not in res.output, level


def test_config_values_checked_like_flags(tmp_path):
    # a value from the file passes through its option's type, so it is
    # refused with exit 2 exactly where the same flag would be
    cfg = tmp_path / "hecke.cfg"
    cases = [
        (["zeta"], b"beta = abc\n"),
        (["kms", "--extreme", "--level", "5", "--r", "(1)/(5)"],
         b"bound = abc\n"),
        (["kms", "--r", "(1)/(2)"], b"extreme = maybe\n"),
        (["kms", "--r", "(1)/(2)"], b"config = other.cfg\n"),
        (["kms", "--r", "(1)/(2)"], b"beta 2\n"),
        (["field"], b"field_tag = d1\xff\n"),
    ]
    runner = CliRunner()
    for args, text in cases:
        cfg.write_bytes(text)
        res = runner.invoke(main, [*args, "--config", str(cfg)])
        assert res.exit_code == 2, (args, text, res.output)
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), (args, text)
    res = runner.invoke(main, ["field", "--config", str(tmp_path)])
    assert res.exit_code == 2 and "directory" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    # required options may come from the file alone; a dash in a key
    # reads as an underscore, and the flag still wins over the file
    cfg.write_text("level = 5\nr-text = (1)/(5)  # comment\nw_text = 2\n")
    assert run_ok("pair", "--config", str(cfg))["exponent"] == "2/5"
    assert run_ok("pair", "--config", str(cfg), "--w", "1")["exponent"] \
        == "1/5"
    cfg.write_text("level = 5\nr_text = (1)/(5)\nw_text = 2\nextreme = yes\n")
    data = run_ok("kms", "--config", str(cfg), "--field", "d1",
                  "--beta", "inf")
    assert data["cyclotomic"]["m"] == 5 and data["w"] == "2"


def test_level_cap_env():
    res = run_fail("verify", "--field", "Q", "--level", "8",
                   env={"HECKE_LEVEL_MAX": "5"})
    assert res.exit_code == 2
    # the level group and the finite-beta residue sums enumerate all N(c)
    # residues, so the level norm is capped as for regularity
    for args in (["galois-compare", "--field", "Q", "--level", "11",
                  "--j", "2", "--r", "(1)/(11)"],
                 ["galois-compare", "--field", "d1", "--level", "5",
                  "--j", "2", "--r", "(1)/(5)"],
                 ["kms", "--field", "Q", "--extreme", "--level", "11",
                  "--bound", "5", "--r", "(1)/(11)"]):
        res = run_fail(*args, env={"HECKE_LEVEL_MAX": "10"})
        assert res.exit_code == 2 and "HECKE_LEVEL_MAX" in res.output, args
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), args
    data = run_ok("verify", "--field", "Q", "--level", "3",
                  env={"HECKE_LEVEL_MAX": "5"})
    assert data["failures"] == []
    # with HECKE_LEVEL_MAX unset each command has a default cap, named in
    # the message; a set cap governs instead of it.  Each call but
    # regularity's is just over its cap and cheap, so a missing guard
    # shows as exit 0.  N(101) = 10201 in Q(sqrt(-163)), N(41) = 1681.
    for args, cap, env_cap in (
            (["verify", "--field", "d163", "--level", "7"], "6", "10"),
            (["kms", "--field", "Q", "--extreme", "--level", "1",
              "--bound", "1000001", "--r", "(1)/(1)"], "1000000", "2000000"),
            (["kms", "--field", "Q", "--extreme", "--level", "1000003",
              "--bound", "5", "--r", "(1)/(1000003)"], "1000000", "2000000"),
            (["galois-compare", "--field", "d163", "--level", "101",
              "--j", "2", "--r", "(1)/(101)"], "10000", "20000"),
            (["kms", "--field", "d163", "--beta", "inf", "--extreme",
              "--level", "101", "--r", "(1)/(101)"], "10000", "20000"),
            (["regularity", "--field", "d163", "--level", "41"], "200",
             None)):
        res = run_fail(*args, env={"HECKE_LEVEL_MAX": None})
        assert res.exit_code == 2 and "HECKE_LEVEL_MAX" in res.output, args
        assert f"exceeds the cap {cap};" in res.output, args
        capped = run_fail(*args, env={"HECKE_LEVEL_MAX": str(int(cap) - 1)})
        assert capped.exit_code == 2, args
        assert f"the cap {int(cap) - 1};" in capped.output, args
        if env_cap is not None:
            run_ok(*args, env={"HECKE_LEVEL_MAX": env_cap})


def test_usage_and_domain_errors():
    assert run_fail("kms", "--field", "zz", "--r", "(1)/(2)").exit_code == 2
    assert run_fail("kms", "--field", "Q", "--beta", "inf",
                    "--r", "(1)/(2)").exit_code == 2
    assert run_fail("kms", "--field", "Q", "--beta", "2",
                    "--r", "(1)/(0)").exit_code == 2
    assert run_fail("mul", "--field", "Q", "theta(1/2)",
                    "bogus(3)").exit_code == 2
    # domain precondition: w must be invertible at the level
    res = run_fail("pair", "--field", "Q", "--level", "4", "--w", "2",
                   "--r", "(1)/(4)")
    assert res.exit_code == 1
    assert "unit" in res.output


def test_kms_symmetric_at_strong_pseudoprimes():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
    # bases 2..37; both primes are inert in d43, so N(b) = psi_12^2 there
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    r = f"(1)/({psi12})"
    data = run_ok("kms", "--field", "q", "--beta", "2", "--r", r)
    assert data["exact"] == f"1/{psi12}"
    data = run_ok("kms", "--field", "d43", "--beta", "2", "--r", r)
    assert data["exact"] == ("1/1015479289490989527985589812758741821832"
                             "65186521")
    # psi_13 passes all 13 witnesses: its primality is not proven
    res = CliRunner().invoke(main, ["kms", "--field", "q", "--beta", "2",
                                    "--r", f"(1)/({psi13})"])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and str(psi13) in res.output


def test_value_error_in_verify_exits_1(monkeypatch):
    import hecke.cli as cli

    def fail(*_args):
        raise ValueError("domain failure")

    monkeypatch.setattr(cli, "verify_equivalence", fail)
    res = CliRunner().invoke(main, ["verify", "--level", "2"])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error: domain failure" in res.output


def test_nonzero_exit_on_unsound_regularity_never_triggers_here():
    # all supported levels are regular; exercise the passing path only
    data = run_ok("regularity", "--field", "d3", "--level", "2")
    assert data["group_order"] == 1


def test_readme_examples_byte_for_byte():
    # every `$ hecke ...` example in README.md prints the JSON line shown
    # under it; an elided value ({...}) pins only the keys shown beside it
    lines = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = [(line[len("$ hecke "):], lines[i + 1])
                for i, line in enumerate(lines) if line.startswith("$ hecke ")]
    assert len(examples) == 11
    runner = CliRunner()
    for cmd, want in examples:
        res = runner.invoke(main, shlex.split(cmd))
        assert res.exit_code == 0, (cmd, res.output)
        if "{...}" not in want:
            assert res.stdout == want + "\n", cmd
            continue
        shown, got = json.loads(want.replace("{...}", "null")), \
            json.loads(res.stdout)
        assert got.keys() == shown.keys(), cmd
        assert {k: got[k] for k, v in shown.items() if v is not None} == \
            {k: v for k, v in shown.items() if v is not None}, cmd


def test_exit_codes_without_traceback():
    # exit 2 for malformed input, 1 for a domain failure, 0 for a large
    # but finite value, never an uncaught exception
    cases = [
        (["kms", "--beta", "-3", "--r", "(1)/(2)"], 1),
        (["kms", "--beta", "0", "--r", "(1)/(2)"], 1),
        (["kms", "--beta", "abc", "--r", "(1)/(2)"], 2),
        (["kms", "--beta", "abc", "--extreme", "--level", "5",
          "--r", "(1)/(5)"], 2),
        (["mul", "--field", "Q", "mu(0)", "id"], 1),
        (["zeta", "--beta", "1.0000001"], 1),
        (["zeta", "--tol", "0"], 1),
        (["kms", "--beta", "20000", "--r", "(1)/(2)"], 1),
        (["kms", "--beta", "2000.5", "--r", "(1)/(2)"], 0),
        (["kms", "--field", "d1", "--beta", "2000.5", "--r", "(1)/(2)"], 0),
        # a 400-digit integer beta, past the range of a float
        (["kms", "--beta", "1" + "0" * 399, "--r", "(1)/(2)"], 1),
        (["kms", "--beta", "1" + "0" * 399, "--r", "0"], 0),
        # a sweep that would check no pair is refused, not passed
        (["verify", "--level", "0"], 2),
        (["verify", "--level", "-3"], 2),
        # beta outside (1, inf) has no Euler product and no finite cutoff
        (["zeta", "--beta", "inf"], 1),
        (["zeta", "--beta", "nan"], 1),
        (["kms", "--extreme", "--level", "5", "--bound", "10", "--beta",
          "nan", "--r", "(1)/(5)"], 1),
        # a zero denominator anywhere in element text is malformed input
        (["pair", "--field", "q", "--level", "1/0", "--r", "0"], 2),
        (["pair", "--field", "q", "--level", "5", "--r", "(1)/(1/0)"], 2),
        (["mul", "--field", "q", "theta(1/0)", "id"], 2),
        (["galois-compare", "--field", "d1", "--level", "5", "--j", "3/0*w",
          "--r", "(1)/(5)"], 2),
    ]
    runner = CliRunner()
    for args, code in cases:
        res = runner.invoke(main, args)
        assert res.exit_code == code, (args, res.output)
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), args
        if "nan" in args or args[:3] == ["zeta", "--beta", "inf"]:
            assert "1 < beta < inf" in res.output, args
    # an exact value too long to print names the limit it exceeds
    res = runner.invoke(main, ["kms", "--beta", "20000", "--r", "(1)/(2)"])
    assert str(sys.get_int_max_str_digits()) in res.output


# -- fuzzing: random flags and config files through the runner -------------

# each option's values as (well-formed, malformed or over the level cap of
# 30 set below); finite betas stay at 2 or more and zeta always gets a
# coarse tol, so no call needs the large prime tables
_FIELDS = (["Q", "d1", "d3"], ["zz"])
_LEVELS = (["1", "2", "5", "1+1*w"], ["0", "abc", "40", "1/0"])
_RS = (["(1)/(2)", "(1)/(5)", "0", "1/2"], ["(1)/(0)", "bogus", "1/0"])
_WS = (["1", "2", "3"], ["abc", "1/0"])
_COMMANDS = {
    "field": {"field_tag": _FIELDS},
    "mul": {"field_tag": _FIELDS},
    "kms": {"field_tag": _FIELDS,
            "beta": (["2", "3", "2.5", "inf"], ["1", "0", "-1", "abc"]),
            "r_text": _RS, "extreme": (["true", "false"], ["maybe"]),
            "level": _LEVELS, "w_text": _WS,
            "bound": (["10", "20"], ["abc", "-5", "100"])},
    "zeta": {"field_tag": _FIELDS, "beta": (["2", "3"], ["1", "0.5", "abc"]),
             "tol": (["1e-2", "1e-3"], ["0", "abc"])},
    "pair": {"field_tag": _FIELDS, "level": _LEVELS, "w_text": _WS,
             "r_text": _RS},
    "verify": {"field_tag": _FIELDS,
               "level": (["1", "2", "3"], ["0", "-1", "abc", "99"])},
    "galois-compare": {"field_tag": _FIELDS, "level": _LEVELS, "w_text": _WS,
                       "j_text": (["1", "2", "3"], ["0", "abc", "1/0"]),
                       "r_text": _RS},
    "regularity": {"field_tag": _FIELDS, "level": _LEVELS},
}
_FLAGS = {"field_tag": "--field", "r_text": "--r", "w_text": "--w",
          "j_text": "--j"}
_ALGEBRA = (["theta(1/2)", "mu(2)", "mustar(3)", "id"],
            ["mu(0)", "bogus(1)", "theta(1/0)"])
_JUNK = (["# a comment", ""], ["no_such_key = 1", "garbage", "config = x"])


def _pick(draw, values):
    # about one value in six is malformed; hypothesis favours the bounds
    # of an integer range, so the rare case sits inside it
    good, bad = values
    return draw(st.sampled_from(bad if draw(st.integers(0, 5)) == 3
                                else good))


@st.composite
def _invocations(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    args, lines = [name], []
    for key, values in _COMMANDS[name].items():
        where = draw(st.sampled_from(
            ["flag", "file", "both"] if key == "tol"
            else ["flag", "file", "both", "flag", "file", "none"]))
        if where in ("flag", "both"):
            val = _pick(draw, values)
            if key != "extreme":
                args += [_FLAGS.get(key, "--" + key), val]
            elif val == "true":
                args.append("--extreme")
        if where in ("file", "both"):
            fkey = draw(st.sampled_from([key, key.replace("_", "-")]))
            lines.append(f"{fkey} = {_pick(draw, values)}")
    if name == "mul":
        args += [_pick(draw, _ALGEBRA)
                 for _ in range(draw(st.sampled_from([2, 2, 2, 1])))]
    lines += [_pick(draw, _JUNK) for _ in range(draw(st.integers(0, 2)))]
    text = "\n".join(draw(st.permutations(lines))).encode()
    if draw(st.integers(0, 19)) == 7:  # a file that is not UTF-8
        text += b"\xff"
    return args, (text if lines or draw(st.booleans()) else None)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_invocations())
def test_fuzz_exit_codes_and_json(invocation):
    args, text = invocation
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_bytes(text)
            args = [*args, "--config", str(cfg)]
        res = runner.invoke(main, args, env={"HECKE_LEVEL_MAX": "30"})
    assert res.exit_code in (0, 1, 2), (args, text, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (args, text, res.exception)
    if res.exit_code == 0:
        json.loads(res.stdout)


@pytest.mark.parametrize("row", cli_contract.ROWS, ids=lambda row: row.name)
def test_cli_contract_row(row):
    # the rows CI runs against the installed console script, here run
    # through `python -m hecke.cli` on the source tree
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    why = cli_contract.run_row(row, [sys.executable, "-m", "hecke.cli"], env)
    assert why is None, why
