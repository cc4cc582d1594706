"""The command-line surface: exit codes, JSON output, environment fuel,
and the pinned output of every corpus invocation."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from effreal.effhol import check as eff_check
from effreal.surface import jsonio
from effreal.surface.cli import main
from effreal.surface.elaborate import parse_document
from tests.test_invariants import layout_garbage
from tests.test_surface import MISPLACED, STRAY_SECTIONS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


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
    """A name missing from the document is a usage error in every
    subcommand that looks one up."""
    cases = [
        (("translate", "hol_basic.hol", "--prop"), "proposition"),
        (("extract", "hol_basic.hol", "--derivation"), "derivation"),
        (("normalize", "programs.eff", "--term"), "program"),
        (("erase", "programs.eff", "--term"), "program"),
    ]
    for (command, file, option), noun in cases:
        assert run(capsys, command, str(CORPUS / file), option, "nope") == (
            2, "", f"no {noun} named 'nope'\n"
        )


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


def test_normalize_strategies_and_fuel_env(capsys):
    code, out, _ = run(
        capsys, "normalize", str(CORPUS / "programs.eff"), "--term", "cbn-only",
        "--strategy", "base",
    )
    assert code == 0
    assert "(0 step(s))" in out  # call-by-value blocks at the root
    code, _, err = run(
        capsys, "normalize", str(CORPUS / "programs.eff"), "--term", "bind-chain",
        "--strategy", "base", "--fuel", "0",
    )
    assert code == 1
    assert "0 steps" in err


_NORMALIZE = ("normalize", str(CORPUS / "programs.eff"), "--term", "bind-chain")
_EF_CHECK = ("ef-check", str(CORPUS / "ef_samples.ef"))


@pytest.mark.parametrize("argv", [_NORMALIZE, _EF_CHECK], ids=["normalize", "ef-check"])
# case ids stay "<flag>-None-<command>", so that results tracked by test id still match
@pytest.mark.parametrize("flag", ["-1", "abc", "1.5"], ids="{}-None".format)
def test_bad_fuel_is_a_usage_error(capsys, argv, flag):
    """A negative or non-integer ``--fuel`` exits 2 with one line on stderr
    before any reduction runs."""
    code, out, err = run(capsys, *argv, "--fuel", flag)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "non-negative integer" in err


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


@pytest.mark.parametrize("param", sorted(MISPLACED))
def test_misplaced_instance_parameter_is_a_usage_error(capsys, tmp_path, param):
    """An instance file with ``rest`` or ``body`` outside every program
    binder of its template is rejected when it loads: exit 2 with the
    message on stderr, nothing on stdout."""
    text, message = MISPLACED[param]
    bad = tmp_path / "bad.inst"
    bad.write_text(text)
    argv = ("instantiate", str(CORPUS / "programs.eff"), "--instance", str(bad))
    assert run(capsys, *argv) == (2, "", message + "\n")


@pytest.mark.parametrize("command", ["instantiate", "check-laws"])
@pytest.mark.parametrize("case", sorted(STRAY_SECTIONS))
def test_stray_instance_section_is_a_usage_error(capsys, tmp_path, case, command):
    """An instance file with an unknown or a repeated section is rejected
    when it loads: exit 2 with the located message on stderr, nothing on
    stdout."""
    text, message = STRAY_SECTIONS[case]
    bad = tmp_path / "bad.inst"
    bad.write_text(text)
    argv = (str(CORPUS / "programs.eff"),) if command == "instantiate" else ()
    assert run(capsys, command, *argv, "--instance", str(bad)) == (2, "", message + "\n")


@pytest.mark.parametrize("command", ["instantiate", "check-laws"])
def test_unusable_instance_file_is_a_usage_error(capsys, tmp_path, command):
    """An ``--instance`` path that does not exist, or a file that declares
    no instance: exit 2 with the reason on stderr, nothing on stdout."""
    missing, empty = tmp_path / "missing.inst", tmp_path / "empty.inst"
    empty.write_text("")
    argv = (str(CORPUS / "programs.eff"),) if command == "instantiate" else ()
    for path, message in (
        (missing, f"[Errno 2] No such file or directory: {str(missing)!r}"),
        (empty, f"no instance declaration in {str(empty)!r}"),
    ):
        assert run(capsys, command, *argv, "--instance", str(path)) == (2, "", message + "\n")


def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    """A document, ``--instance`` or ``--ambient`` file that does not
    decode as UTF-8: exit 2 with one line on stderr, nothing on stdout."""
    bad = tmp_path / "bad.hol"
    bad.write_bytes(b"\xff\xfe(prop")
    message = f"{str(bad)!r} is not UTF-8 text: invalid start byte at byte 0\n"
    hol = str(CORPUS / "hol_basic.hol")
    for argv in (
        ("check-hol", str(bad)),
        ("instantiate", str(CORPUS / "programs.eff"), "--instance", str(bad)),
        ("check-laws", "--instance", str(bad)),
        ("extract", hol, "--derivation", "k-combinator", "--ambient", str(bad)),
    ):
        assert run(capsys, *argv) == (2, "", message), argv


def test_a_name_declared_twice_keeps_the_syntax_error_exit_codes(capsys, tmp_path):
    """A repeated declaration is a located syntax error: exit 1 in the
    document argument, 2 in an ``--instance`` file."""
    text = (CORPUS / "hol_basic.hol").read_text()
    line = text.count("\n") + 1
    bad = tmp_path / "bad.hol"
    bad.write_text(text + "(hol-derivation i-combinator (id (sequent () (hyps bot) bot)))")
    assert run(capsys, "check-hol", str(bad)) == (
        1, "", f"{line}:1: hol-derivation 'i-combinator' is declared twice\n"
    )
    text = (CORPUS / "instance_cont.inst").read_text()
    line = text.count("\n") + 1
    bad = tmp_path / "bad.inst"
    bad.write_text(text + "(instance cont-file (strategy cbn))")
    assert run(capsys, "check-laws", "--instance", str(bad)) == (
        2, "", f"{line}:1: instance 'cont-file' is declared twice\n"
    )


# A modality rule whose goal is no modality: the instance templates would
# read parts the goal does not have.
_UNCHECKED = {
    "bad-mon": (
        "(mon (sequent (kinds) (indices) (types) (hyps top-spec) top-spec)"
        " (id (sequent (kinds) (indices) (types) (hyps top-spec) top-spec))"
        " (id (sequent (kinds) (indices) (types) (hyps top-spec) top-spec)))",
        "Mon: goal is not a modality",
    ),
    "bad-mod-e": (
        "(mod-e (sequent (kinds) (indices) (types) (hyps top-spec) top-spec)"
        " (id (sequent (kinds) (indices) (types) (hyps top-spec) top-spec)))",
        "ModE: goal is not a modality over a bind",
    ),
}


@pytest.mark.parametrize("instance", ["id", "cont"])
@pytest.mark.parametrize("name", sorted(_UNCHECKED))
def test_instantiate_reports_a_derivation_that_does_not_check(tmp_path, capsys, name, instance):
    text, msg = _UNCHECKED[name]
    f = tmp_path / "bad.eff"
    f.write_text(f"(eff-derivation {name} {text})")
    assert run(capsys, "instantiate", str(f), "--instance", instance) == (
        1, f"derivation {name}: FAILED: [at root] {msg}\n", ""
    )


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


# Derivations the source checker accepts although a premise lists its
# hypotheses in another order than its parent, or twice, or discharges
# one that is already assumed.
REORDERED = """
(hol-derivation swapped
  (imp-i (sequent ((u0 *) (u1 *)) (hyps) (imp (member0 u1) (imp (member0 u0) (member0 u1))))
    (imp-i (sequent ((u0 *) (u1 *)) (hyps (member0 u1)) (imp (member0 u0) (member0 u1)))
      (id (sequent ((u0 *) (u1 *)) (hyps (member0 u0) (member0 u1)) (member0 u1))))))
(hol-derivation redischarged
  (imp-i (sequent ((u0 *)) (hyps (member0 u0)) (imp (member0 u0) (member0 u0)))
    (id (sequent ((u0 *)) (hyps (member0 u0)) (member0 u0)))))
(hol-derivation repeated
  (imp-i (sequent ((u0 *) (u1 *)) (hyps (member0 u1)) (imp (member0 u0) (member0 u1)))
    (id (sequent ((u0 *) (u1 *)) (hyps (member0 u1) (member0 u1) (member0 u0)) (member0 u1)))))
"""


REORDERED_REALIZERS = {
    "swapped": "(ret (lam (x0 X1) (ret (lam (x1 X0) (ret x0)))))",
    "redischarged": "(ret (lam (x1 X0) (ret x0)))",
    "repeated": "(ret (lam (x1 X0) (ret x0)))",
}


@pytest.mark.parametrize("derive", [(), ("--derive",)], ids=["plain", "derive"])
@pytest.mark.parametrize("name", REORDERED_REALIZERS)
def test_extract_reads_hypotheses_in_the_order_they_are_discharged(tmp_path, capsys, name, derive):
    """An ``Id`` leaf takes the variable of the first occurrence of its
    goal among the root's hypotheses and the antecedents discharged on the
    way down, whatever its own sequent lists."""
    path = tmp_path / "reordered.hol"
    path.write_text(REORDERED)
    assert run(capsys, "check-hol", str(path))[0] == 0
    code, out, err = run(capsys, "extract", str(path), "--derivation", name, *derive)
    assert (code, err) == (0, "")
    assert out.startswith(f"realizer:\n  {REORDERED_REALIZERS[name]}\n")
    assert out.endswith("(derivation replayed and re-checked)\n") == bool(derive)


@pytest.mark.parametrize("derive", [(), ("--derive",)], ids=["plain", "derive"])
def test_extract_rejects_an_ill_formed_ambient(tmp_path, capsys, derive):
    """A hypothesis of the ambient that is not well formed makes the
    triple ill formed: extraction fails instead of printing it."""
    amb = tmp_path / "bad.eff"
    amb.write_text("(spec bad (member0 (ret (lam (x bot-type) x)) (compr0 (z bot-type) bot-spec)))")
    code, out, err = run(
        capsys, "extract", str(CORPUS / "hol_basic.hol"), "--derivation", "k-combinator",
        "--ambient", str(amb), *derive,
    )
    assert (code, out) == (1, "")
    assert err.startswith("extraction failed: base membership needs index ")


@pytest.mark.parametrize("derive", [(), ("--derive",)], ids=["plain", "derive"])
def test_an_ambient_file_that_does_not_read_is_a_usage_error(tmp_path, capsys, derive):
    """A reader error in an ``--ambient`` file is a usage error, as in an
    ``--instance`` file: exit 2 with the located message on stderr."""
    amb = tmp_path / "bad.eff"
    amb.write_text("(spec bad (top-spec")
    assert run(
        capsys, "extract", str(CORPUS / "hol_basic.hol"), "--derivation", "k-combinator",
        "--ambient", str(amb), *derive,
    ) == (2, "", "1:11: unclosed '('\n")


@pytest.mark.parametrize(
    "declaration",
    ["(type t (M (fun bot-type bot-type)))", "(program q (lam (x (M bot-type)) x))"],
    ids=["type", "program"],
)
def test_instantiate_rejects_an_impure_image(tmp_path, capsys, declaration):
    """An instance whose computation type is still ``M`` leaves a type or
    a program impure: exit 1, with nothing printed for it."""
    inst = tmp_path / "impure.inst"
    text = (CORPUS / "instance_cont.inst").read_text()
    inst.write_text(text.replace("(comp (T) (neg (neg T)))", "(comp (T) (M T))"))
    doc = tmp_path / "doc.eff"
    doc.write_text(declaration)
    assert run(capsys, "instantiate", str(doc), "--instance", str(inst)) == (
        1, "", "impure construct in instance image\n"
    )


def _corpus_groups():
    """Every subcommand on every corpus file it reads, as (label, names):
    the label is an argv in which ``*`` stands for each name in turn."""
    docs = {f.name: parse_document(f.read_text(encoding="utf-8")) for f in CORPUS.iterdir()}
    hol = docs["hol_basic.hol"]
    amb = " --ambient corpus/effhol_basic.eff"
    groups = [("check-hol corpus/hol_basic.hol", [""]), ("translate corpus/hol_basic.hol --prop *", hol.props)]
    for flags in ("", " --derive", amb, " --derive" + amb):
        groups.append(("extract corpus/hol_basic.hol --derivation *" + flags, hol.hol_derivations))
    for f in ("effhol_basic.eff", "programs.eff"):
        progs = docs[f].programs
        groups.append((f"check-effhol corpus/{f}", [""]))
        for inst in ("id", "cont", "corpus/instance_cont.inst"):
            groups.append((f"instantiate corpus/{f} --instance {inst}", [""]))
        for strategy in ("base", "cbn", "full"):
            groups.append((f"normalize corpus/{f} --term * --strategy {strategy}", progs))
        groups.append((f"erase corpus/{f} --term *", progs))
    groups.append(("ef-check corpus/ef_samples.ef", [""]))
    for inst in ("id", "cont", "corpus/instance_cont.inst"):
        groups.append((f"check-laws --instance {inst} --samples 5", [""]))
    return groups


# The first 16 hex digits of a SHA-256 over the exit code, stdout and
# stderr of each invocation of a group, plain and under --json.
CORPUS_CLI_DIGESTS = {
    'check-hol corpus/hol_basic.hol': '3f0ea1dae057985a',
    '--json check-hol corpus/hol_basic.hol': '4225877c2bf8be72',
    'translate corpus/hol_basic.hol --prop *': '15dabdd91a183c89',
    '--json translate corpus/hol_basic.hol --prop *': '2dad1fbb39e741f7',
    'extract corpus/hol_basic.hol --derivation *': 'cf3eec93195fe401',
    '--json extract corpus/hol_basic.hol --derivation *': '642c174ece4178dd',
    'extract corpus/hol_basic.hol --derivation * --derive': 'ae8925ff363e1ab8',
    '--json extract corpus/hol_basic.hol --derivation * --derive': 'af44c6097b5a55cf',
    'extract corpus/hol_basic.hol --derivation * --ambient corpus/effhol_basic.eff': '424de98c69f71dc5',
    '--json extract corpus/hol_basic.hol --derivation * --ambient corpus/effhol_basic.eff': '3a1377ab46752b73',
    'extract corpus/hol_basic.hol --derivation * --derive --ambient corpus/effhol_basic.eff': '632eed3e2903ee2c',
    '--json extract corpus/hol_basic.hol --derivation * --derive --ambient corpus/effhol_basic.eff': 'd14031bba711ca2e',
    'check-effhol corpus/effhol_basic.eff': '569698d26989db70',
    '--json check-effhol corpus/effhol_basic.eff': 'b8195f8c4396ec30',
    'instantiate corpus/effhol_basic.eff --instance id': '817af5278b56249c',
    '--json instantiate corpus/effhol_basic.eff --instance id': '45c8362cbd22e0df',
    'instantiate corpus/effhol_basic.eff --instance cont': '1ceeb5a4fae61c41',
    '--json instantiate corpus/effhol_basic.eff --instance cont': 'ca2569f979971d68',
    'instantiate corpus/effhol_basic.eff --instance corpus/instance_cont.inst': 'fce060a1053d3651',
    '--json instantiate corpus/effhol_basic.eff --instance corpus/instance_cont.inst': '77ae379696e7dbd5',
    'normalize corpus/effhol_basic.eff --term * --strategy base': '02786783ef4d2bfc',
    '--json normalize corpus/effhol_basic.eff --term * --strategy base': '5cb2847b18e9d2bd',
    'normalize corpus/effhol_basic.eff --term * --strategy cbn': '02786783ef4d2bfc',
    '--json normalize corpus/effhol_basic.eff --term * --strategy cbn': '5cb2847b18e9d2bd',
    'normalize corpus/effhol_basic.eff --term * --strategy full': '02786783ef4d2bfc',
    '--json normalize corpus/effhol_basic.eff --term * --strategy full': '5cb2847b18e9d2bd',
    'erase corpus/effhol_basic.eff --term *': 'aa3b78a0790f27ef',
    '--json erase corpus/effhol_basic.eff --term *': 'd04322d5976950ac',
    'check-effhol corpus/programs.eff': '4644e1df7e888d84',
    '--json check-effhol corpus/programs.eff': '6b874247a0ede34c',
    'instantiate corpus/programs.eff --instance id': '03e22b1de5ada652',
    '--json instantiate corpus/programs.eff --instance id': 'f054cc81e8ac7d71',
    'instantiate corpus/programs.eff --instance cont': '81d2fb6d8abc65df',
    '--json instantiate corpus/programs.eff --instance cont': '0c4a85aa418d8c73',
    'instantiate corpus/programs.eff --instance corpus/instance_cont.inst': '81d2fb6d8abc65df',
    '--json instantiate corpus/programs.eff --instance corpus/instance_cont.inst': '93c34476c0868597',
    'normalize corpus/programs.eff --term * --strategy base': '5c12f04a1451750e',
    '--json normalize corpus/programs.eff --term * --strategy base': '8d4b599677961664',
    'normalize corpus/programs.eff --term * --strategy cbn': 'a7c1490673ecf017',
    '--json normalize corpus/programs.eff --term * --strategy cbn': '3d420ac44d65a0ea',
    'normalize corpus/programs.eff --term * --strategy full': 'a7c1490673ecf017',
    '--json normalize corpus/programs.eff --term * --strategy full': '3d420ac44d65a0ea',
    'erase corpus/programs.eff --term *': '9129f130c5fd1586',
    '--json erase corpus/programs.eff --term *': 'a161e944eefc3275',
    'ef-check corpus/ef_samples.ef': '1867d8ec84d6f57d',
    '--json ef-check corpus/ef_samples.ef': '87ff50564c487b07',
    'check-laws --instance id --samples 5': '435d1a29170b6f01',
    '--json check-laws --instance id --samples 5': '2eb34df21b038914',
    'check-laws --instance cont --samples 5': '435d1a29170b6f01',
    '--json check-laws --instance cont --samples 5': '83ac98779c1d2f48',
    'check-laws --instance corpus/instance_cont.inst --samples 5': 'f51031d0447797c0',
    '--json check-laws --instance corpus/instance_cont.inst --samples 5': 'ac50dec5e72dc16b',
}


def test_corpus_cli_output_is_pinned(capsys, monkeypatch):
    """Every corpus invocation prints what it printed when pinned."""
    monkeypatch.chdir(ROOT)
    got = {}
    for label, names in _corpus_groups():
        for mode in ("", "--json "):
            h = hashlib.sha256()
            for name in names:
                code, out, err = run(capsys, *(mode + label.replace("*", name)).split())
                h.update(f"{code}\0{out}\0{err}\0".encode())
            got[mode + label] = h.hexdigest()[:16]
    assert got == CORPUS_CLI_DIGESTS


# Runs each argv of a JSON list through ``main`` in one process and prints
# the exit code and stdout of each, as JSON.
_RUN_ALL = """
import contextlib, io, json, sys
from effreal.surface.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _run_all(python: str, argvs: list) -> list:
    r = subprocess.run(
        [python, "-c", _RUN_ALL, json.dumps(argvs)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_other_interpreters_print_the_same_corpus_output(python):
    """``check-hol``, ``extract --derive`` and ``instantiate`` on the corpus
    give the same exit codes and stdout under every other CPython on PATH
    (``requires-python`` is >=3.10) as under the running one, and a fresh
    process of it leaves no class or node of the package to the cyclic
    collector; an interpreter that is absent, or that is the running one,
    is skipped."""
    exe = shutil.which(python)
    probe = exe and subprocess.run(
        [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60,
    )
    if not probe or probe.returncode != 0 or not probe.stdout.startswith("cpython "):
        pytest.skip(f"no working {python} on PATH")
    if probe.stdout.split()[1:] == [str(v) for v in sys.version_info[:2]]:
        pytest.skip(f"{python} is the running interpreter")
    argvs = [
        (label.replace("*", name)).split()
        for label, names in _corpus_groups()
        if label.startswith(("check-hol", "instantiate"))
        or label == "extract corpus/hol_basic.hol --derivation * --derive"
        for name in names
    ]
    assert len(argvs) > 10
    assert _run_all(exe, argvs) == _run_all(sys.executable, argvs)
    assert layout_garbage(exe)[1] == []


def test_a_shadowing_binder_is_one_located_warning_line(capsys, tmp_path):
    """A binder that shadows an outer one is reported on one stderr line at
    its own position, in the reader's error format, before a reader error
    later in the file; the exit codes are those without it, and the
    caller's warning settings are left as they were."""
    import warnings

    shadow = "(prop p (forall (u *) (forall (u *) (member0 u))))\n"
    warning = "1:32: warning: binder 'u' shadows an outer binder; resolving to the nearest\n"
    ok, bad = tmp_path / "ok.hol", tmp_path / "bad.hol"
    ok.write_text(shadow)
    bad.write_text(shadow + "(prop q bot))\n")
    before = (warnings.showwarning, list(warnings.filters))
    assert run(capsys, "check-hol", str(ok)) == (0, "no derivations\n", warning)
    assert run(capsys, "check-hol", str(bad)) == (1, "", warning + "2:13: unbalanced ')'\n")
    assert (warnings.showwarning, list(warnings.filters)) == before


def test_every_shadowing_binder_warns_even_at_one_position(capsys, tmp_path):
    """Two shadowing binders at the same line and column of two files of
    one command give two warning lines, not one."""
    doc, ambient = tmp_path / "a.hol", tmp_path / "a.eff"
    doc.write_text(
        "(prop p    (forall (u *) (forall (u *) (member0 u))))\n"
        "(hol-derivation d\n"
        "  (imp-i (sequent () (hyps) (imp bot bot)) (id (sequent () (hyps bot) bot))))\n"
    )
    ambient.write_text("(spec s (allp (u bot-type) (allp (u bot-type) top-spec)))\n")
    warning = "1:35: warning: binder 'u' shadows an outer binder; resolving to the nearest\n"
    code, _, err = run(capsys, "extract", str(doc), "--derivation", "d", "--ambient", str(ambient))
    assert (code, err) == (0, warning * 2)


def test_a_shadowing_instance_template_warns_once(capsys, tmp_path):
    """A template whose binder shadows warns when its file loads, and not
    again each time instantiation elaborates it."""
    text = (CORPUS / "instance_cont.inst").read_text()
    ret = "(ret (T p) (lam (k (neg T)) (app k p)))"
    assert text.count(ret) == 1
    shadow = tmp_path / "shadow.inst"
    shadow.write_text(
        text.replace(ret, "(ret (T p) (lam (k (neg T)) (app (lam (k (neg T)) (app k p)) k)))")
    )
    line = text[: text.index(ret)].count("\n") + 1
    warning = f"{line}:42: warning: binder 'k' shadows an outer binder; resolving to the nearest\n"
    # instantiating programs.eff elaborates the template again at each return
    argv = ("instantiate", str(CORPUS / "programs.eff"), "--instance", str(shadow))
    assert run(capsys, *argv)[::2] == (0, warning)
