"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 usage error.  ``--json`` selects
machine output; ``--fuel`` overrides the default reduction fuel.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import partial

from ..errors import KernelError, ShadowWarning
from ..hol import check as hol_check
from ..effhol import check as eff_check, type_of
from ..effhol.reduction import DEFAULT_FUEL, Strategy, multi_step
from ..frame import ef_law_suite, erase, evidence_check
from ..instances import (
    assert_pure,
    check_instance_laws,
    continuation_instance,
    identity_instance,
    instantiate,
    instantiate_derivation,
)
from ..translation import EMPTY_AMBIENT, Ambient, extract_realizer, translate_prop
from . import jsonio, printer as pr
from .elaborate import parse_document


class _UsageError(Exception):
    """A bad argument found after parsing; the CLI exits with 2."""


def _fuel(args) -> int:
    """The reduction fuel: ``--fuel``, else ``DEFAULT_FUEL``."""
    if args.fuel is None:
        return DEFAULT_FUEL
    try:
        fuel = int(args.fuel)
    except ValueError:
        pass
    else:
        if fuel >= 0:
            return fuel
    raise _UsageError(f"--fuel must be a non-negative integer, got {args.fuel!r}")


def _load(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_document(text)


def _option_file(path: str):
    """The document named by an option; one that does not load is a usage error."""
    try:
        return _load(path)
    except KernelError as exc:
        raise _UsageError(str(exc)) from exc


def _named(table: dict, noun: str, name: str):
    """``table[name]``; a missing name is a usage error."""
    if name not in table:
        raise _UsageError(f"no {noun} named {name!r}")
    return table[name]


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(jsonio.dumps(payload))
    else:
        print(human)


def cmd_check(args, store: str, check, show) -> int:
    """Check every derivation of the document table ``store`` with
    ``check``, printing each conclusion with ``show``."""
    doc = _load(args.file)
    results = {}
    ok = True
    for name, d in getattr(doc, store).items():
        try:
            results[name] = {"ok": True, "conclusion": show(check(d))}
        except KernelError as exc:
            ok = False
            results[name] = {"ok": False, "error": str(exc)}
    human = "\n".join(
        f"{'ok  ' if r['ok'] else 'FAIL'} {n}" + ("" if r["ok"] else f": {r['error']}")
        for n, r in results.items()
    )
    _emit(args, {"results": results}, human or "no derivations")
    return 0 if ok else 1


def cmd_translate(args) -> int:
    out = translate_prop((), _named(_load(args.file).props, "proposition", args.prop))
    payload = {
        "type": pr.print_type(out.type),
        "spec": pr.print_spec(out.spec, 0, 1, 0),
    }
    human = (
        f"realizer type:\n  {payload['type']}\n"
        f"realizer specification (x0 the realizer):\n  {payload['spec']}"
    )
    _emit(args, payload, human)
    return 0


def cmd_extract(args) -> int:
    d = _named(_load(args.file).hol_derivations, "derivation", args.derivation)
    ambient = EMPTY_AMBIENT
    if args.ambient:  # an ambient file contributes extra hypotheses as named specs
        ambient = Ambient(hyps=tuple(_option_file(args.ambient).specs.values()))
    try:
        res = extract_realizer(d, ambient, derive=args.derive)
    except KernelError as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return 1
    seq = res.goal_triple
    kd = len(seq.ctxs.kinds)
    pd = len(seq.ctxs.types)
    rtype = type_of(seq.ctxs.kinds, seq.ctxs.types, res.realizer)
    payload = {
        "realizer": pr.print_program(res.realizer, kd, pd),
        "type": pr.print_type(rtype, kd),
        "triple": pr.print_eff_sequent(seq),
    }
    if res.derivation is not None:
        payload["derivation"] = jsonio.eff_to_json(res.derivation)
        eff_check(res.derivation)
    human = (
        f"realizer:\n  {payload['realizer']}\n"
        f"type:\n  {payload['type']}\n"
        f"triple:\n  {payload['triple']}"
        + ("\n(derivation replayed and re-checked)" if res.derivation else "")
    )
    _emit(args, payload, human)
    return 0


def _instance(spec: str):
    """``id``, ``cont``, or a file's first instance (a bad file is a usage error)."""
    if spec == "id":
        return identity_instance()
    if spec == "cont":
        return continuation_instance()
    doc = _option_file(spec)
    if not doc.instances:
        raise _UsageError(f"no instance declaration in {spec!r}")
    return next(iter(doc.instances.values()))


def cmd_instantiate(args) -> int:
    doc = _load(args.file)
    inst = _instance(args.instance)
    results = {}
    ok = True
    for noun, table, show in (
        ("type", doc.types, pr.print_type),
        ("program", doc.programs, pr.print_program),
        ("spec", doc.specs, pr.print_spec),
    ):
        for name, x in table.items():
            got = instantiate(x, inst)
            assert_pure(got)
            results[f"{noun} {name}"] = show(got)
    for name, d in doc.eff_derivations.items():
        try:
            eff_check(d)  # the instance templates read only checked derivations
            d2 = instantiate_derivation(d, inst)
            eff_check(d2)
            results[f"derivation {name}"] = "re-checked"
        except KernelError as exc:
            ok = False
            results[f"derivation {name}"] = f"FAILED: {exc}"
    human = "\n".join(f"{k}: {v}" for k, v in results.items())
    _emit(args, {"instance": inst.name, "results": results}, human or "nothing to do")
    return 0 if ok else 1


def cmd_normalize(args) -> int:
    fuel = _fuel(args)
    prog = _named(_load(args.file).programs, "program", args.term)
    result, steps = multi_step(prog, args.strategy, fuel)
    payload = {"result": pr.print_program(result), "steps": steps}
    _emit(args, payload, f"{payload['result']}\n({steps} step(s))")
    return 0


def cmd_erase(args) -> int:
    t = erase(_named(_load(args.file).programs, "program", args.term))
    payload = {"erased": pr.print_untyped(t)}
    _emit(args, payload, payload["erased"])
    return 0


def cmd_ef_check(args) -> int:
    fuel = _fuel(args)
    doc = _load(args.file)
    samples = tuple(doc.ef_props.values())
    report = ef_law_suite(samples, fuel)
    asserts = {}
    ok = report.ok
    for name, p1, ev, p2 in doc.ef_asserts:
        r = evidence_check(p1, ev, p2, fuel)
        asserts[name] = r
        ok = ok and r is True
    payload = {
        "clauses": {k: v for k, v in report.clauses.items()},
        "asserts": asserts,
    }
    mark = {True: "ok  ", False: "FAIL", None: "??  "}  # None: fuel ran out
    lines = [f"{mark[v]} clause {k}" for k, v in report.clauses.items()]
    lines += [f"{mark[v]} assert {k}" for k, v in asserts.items()]
    _emit(args, payload, "\n".join(lines) or "no samples")
    return 0 if ok else 1


def cmd_check_laws(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be a positive integer, got {args.samples}")
    inst = _instance(args.instance)
    report = check_instance_laws(inst, samples_per_law=args.samples, seed=args.seed)
    payload = {
        "instance": report.instance,
        "results": {k: list(v) for k, v in report.results.items()},
        "failures": report.failures[:10],
    }
    human = "\n".join(
        f"{law}: {passed}/{total}" for law, (passed, total) in report.results.items()
    )
    _emit(args, payload, human)
    return 0 if report.ok else 1


def _show_warning(message, *_) -> None:
    """Print a warning as one stderr line, a located one in the format of
    the reader's errors: ``LINE:COL: warning: MESSAGE``."""
    where = f"{message.line}:{message.col}: " if isinstance(message, ShadowWarning) else ""
    print(f"{where}warning: {getattr(message, 'text', message)}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="effreal",
        description="check, translate, extract, instantiate and run the toolchain",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hol", help="check every logic derivation in FILE")
    p.add_argument("file")
    p.set_defaults(fn=partial(
        cmd_check, store="hol_derivations", check=hol_check, show=pr.print_hol_sequent
    ))

    p = sub.add_parser("check-effhol", help="check every program-logic derivation in FILE")
    p.add_argument("file")
    p.set_defaults(fn=partial(
        cmd_check, store="eff_derivations", check=eff_check, show=pr.print_eff_sequent
    ))

    p = sub.add_parser("translate", help="translate a named proposition")
    p.add_argument("file")
    p.add_argument("--prop", required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("extract", help="extract the realizer of a named derivation")
    p.add_argument("file")
    p.add_argument("--derivation", required=True)
    p.add_argument("--ambient", help="file whose spec declarations become assumptions")
    p.add_argument("--derive", action="store_true", help="also replay the triple derivation")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("instantiate", help="interpret declarations under a pure instance")
    p.add_argument("file")
    p.add_argument("--instance", required=True, help="id, cont, or an instance file")
    p.set_defaults(fn=cmd_instantiate)

    p = sub.add_parser("normalize", help="reduce a named program")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--fuel")
    p.add_argument("--strategy", default="base", choices=[s.value for s in Strategy])
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("erase", help="erase a named program to the untyped calculus")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("ef-check", help="run the evidenced-frame law suite on FILE")
    p.add_argument("file")
    p.add_argument("--fuel")
    p.set_defaults(fn=cmd_ef_check)

    p = sub.add_parser("check-laws", help="replay the modality laws for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_laws)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", ShadowWarning)  # one line per binder, even at one position
            warnings.showwarning = _show_warning
            return args.fn(args)
    except KernelError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except RecursionError:
        print("input is nested too deeply", file=sys.stderr)
        return 1
    except (OSError, _UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
