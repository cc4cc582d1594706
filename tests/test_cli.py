"""The command-line surface: exit codes, JSON output, environment fuel."""

import json
from pathlib import Path

import pytest

from effreal.effhol import check as eff_check
from effreal.surface import jsonio
from effreal.surface.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_hol_ok(capsys):
    code, out, _ = run(capsys, "check-hol", str(CORPUS / "hol_basic.hol"))
    assert code == 0
    assert "ok   k-combinator" in out


def test_check_effhol_ok(capsys):
    code, out, _ = run(capsys, "check-effhol", str(CORPUS / "effhol_basic.eff"))
    assert code == 0
    assert "ok   modality-intro" in out


def test_check_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hol"
    bad.write_text("(hol-derivation oops (id (sequent () (hyps) bot)))")
    code, out, _ = run(capsys, "check-hol", str(bad))
    assert code == 1
    assert "FAIL oops" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "translate", str(CORPUS / "hol_basic.hol"), "--prop", "nope")
    assert code == 2


def test_json_output(capsys):
    code, out, _ = run(
        capsys, "--json", "translate", str(CORPUS / "hol_basic.hol"), "--prop", "pA"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"type", "spec"}


def test_extract_json_contains_derivation(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "extract",
        str(CORPUS / "hol_basic.hol"),
        "--derivation",
        "i-combinator",
        "--derive",
    )
    assert code == 0
    data = json.loads(out)
    assert data["derivation"]["schema"] == "effreal/derivation/1"
    eff_check(jsonio.eff_from_json(data["derivation"]))


def test_normalize_strategies_and_fuel_env(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "normalize", str(CORPUS / "programs.eff"), "--term", "cbn-only",
        "--strategy", "base",
    )
    assert code == 0
    assert "(0 step(s))" in out  # call-by-value blocks at the root
    monkeypatch.setenv("EFFHOL_FUEL", "0")
    code, _, err = run(
        capsys, "normalize", str(CORPUS / "programs.eff"), "--term", "bind-chain",
        "--strategy", "base",
    )
    assert code == 1
    assert "0 steps" in err


_NORMALIZE = ("normalize", str(CORPUS / "programs.eff"), "--term", "bind-chain")
_EF_CHECK = ("ef-check", str(CORPUS / "ef_samples.ef"))


@pytest.mark.parametrize("argv", [_NORMALIZE, _EF_CHECK], ids=["normalize", "ef-check"])
@pytest.mark.parametrize(
    "flag, env",
    [("-1", None), ("abc", None), ("1.5", None), (None, "abc"), (None, "-3"), (None, "")],
)
def test_bad_fuel_is_a_usage_error(capsys, monkeypatch, argv, flag, env):
    """A negative or non-integer fuel, from ``--fuel`` or ``EFFHOL_FUEL``,
    exits 2 with one line on stderr before any reduction runs."""
    if env is not None:
        monkeypatch.setenv("EFFHOL_FUEL", env)
    code, out, err = run(capsys, *argv, *(("--fuel", flag) if flag else ()))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "non-negative integer" in err
    # the flag wins over the environment
    monkeypatch.setenv("EFFHOL_FUEL", "abc")
    assert run(capsys, *argv, "--fuel", "10000")[0] == 0


def test_instantiate_file_instance(capsys):
    code, out, _ = run(
        capsys,
        "instantiate",
        str(CORPUS / "programs.eff"),
        "--instance",
        str(CORPUS / "instance_cont.inst"),
    )
    assert code == 0
    assert "program poly-id" in out


def test_ef_check(capsys):
    code, out, _ = run(capsys, "ef-check", str(CORPUS / "ef_samples.ef"))
    assert code == 0
    assert "clause universal-implication" in out


def test_check_laws(capsys):
    code, out, _ = run(capsys, "check-laws", "--instance", "id", "--samples", "3")
    assert code == 0
    assert "ModI: 3/3" in out


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("samples", ["-1", "0"])
def test_check_laws_without_samples_is_a_usage_error(capsys, samples, json_flag):
    """Fewer than one sample per law would check nothing: exit 2 with one
    line on stderr."""
    code, out, err = run(capsys, *json_flag, "check-laws", "--instance", "id", "--samples", samples)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "positive integer" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_extract_under_an_ambient_file(capsys, json_flag):
    """The spec declarations of ``--ambient`` become hypotheses of the
    replayed triple."""
    code, out, _ = run(
        capsys,
        *json_flag,
        "extract",
        str(CORPUS / "hol_basic.hol"),
        "--derivation",
        "s-combinator",
        "--ambient",
        str(CORPUS / "effhol_basic.eff"),
        "--derive",
    )
    assert code == 0
    if json_flag:
        eff_check(jsonio.eff_from_json(json.loads(out)["derivation"]))
    else:
        assert out.startswith("realizer:\n")
