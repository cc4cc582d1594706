"""The items of each workload, run one after another in a worker process.

An item calls into the program's layers through the tracer, compares each
verdict with its known answer and returns the list of differences (empty
when the item passes).  Every call into the program goes through
``T.call`` with a ``<layer>.<stage>`` span name; the layers are the
package's modules: surface, hol, translation, effhol, instances, frame.
Known answers are parsed before timing starts; computed ones come with the
inputs, so an item calls the program only for the work it measures.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from effreal.effhol import Comp, check as eff_check, type_of
from effreal.effhol.forgetful import forget_derivation
from effreal.effhol.reduction import Strategy, multi_step
from effreal.errors import KernelError, TemplateMissing
from effreal.frame import (
    ULam,
    URet,
    ef_law_suite,
    erase,
    evidence_check,
    is_uvalue,
    make_prop,
    untyped_normalize,
    ushift,
)
from effreal.hol import check as hol_check
from effreal.instances import instantiate_derivation, instantiate_prog
from effreal.surface import (
    jsonio,
    parse_document,
    print_eff_sequent,
    print_program,
    print_type,
)
from effreal.translation import extract_realizer, translate_prop

import answers

FUEL = 10_000
TAGS = ("id", "cont")  # span tags of the two shipped instances, in set-up order


def derivation_nodes(d) -> int:
    """Rule applications in a derivation of either calculus."""
    return 1 + sum(derivation_nodes(p) for p in d.premises)


_FIELDS: dict[type, tuple[str, ...]] = {}


def _children(x):
    names = _FIELDS.get(type(x))
    if names is None:
        names = _FIELDS[type(x)] = tuple(f.name for f in dataclasses.fields(x))
    for name in names:
        v = getattr(x, name)
        if dataclasses.is_dataclass(v):
            yield v


def term_nodes(x) -> int:
    """Syntax nodes of a term, type, proposition or untyped term."""
    return 1 + sum(term_nodes(c) for c in _children(x))


class Context:
    """What the items of one pass share: the instances and parsed inputs."""

    def __init__(self, root: Path, instances):
        self.root = root
        self.instances = tuple(zip(TAGS, instances))
        self.texts: dict[str, str] = {}
        self.answers: dict = {}


def _print_extraction(res) -> str:
    seq = res.goal_triple
    kd, pd = len(seq.ctxs.kinds), len(seq.ctxs.types)
    rtype = type_of(seq.ctxs.kinds, seq.ctxs.types, res.realizer)
    return "\n".join(
        (print_program(res.realizer, kd, pd), print_type(rtype, kd), print_eff_sequent(seq))
    )


def _print_json(d) -> str:
    return jsonio.dumps(jsonio.eff_to_json(d))


def _extract(T, d, expected: str, rtype, fails: list):
    """`extract --derive`, falling back to plain extraction on
    TemplateMissing when the answer allows it; the realizer must have type
    ``rtype``.  Returns the result."""
    T.count("translation.derive.attempted")
    try:
        res = T.call("translation.extract", extract_realizer, d, derive=True)
        T.count("translation.derive.replayed")
    except TemplateMissing:
        if expected != "replay-or-missing":
            fails.append("replay raised TemplateMissing")
        res = T.call("translation.extract", extract_realizer, d)
    seq = res.goal_triple
    got = T.call("effhol.type_of", type_of, seq.ctxs.kinds, seq.ctxs.types, res.realizer)
    if got != rtype:
        fails.append("realizer type is not M(trtype(goal))")
    return res


def _replayed(T, res, instances) -> None:
    """Check the replayed triple, forget it back to the logic and check
    that, instantiate and re-check, and print the outputs."""
    D = res.derivation
    if T.on:
        T.count("effhol.check.nodes", derivation_nodes(D))
    T.call("effhol.check", eff_check, D)
    H = T.call("effhol.forget", forget_derivation, D)
    if T.on:
        T.count("hol.check.nodes", derivation_nodes(H))
    T.call("hol.check", hol_check, H)
    for tag, inst in instances:
        D2 = T.call(f"instances.{tag}", instantiate_derivation, D, inst)
        if T.on:
            T.count(f"instances.{tag}.nodes_in", derivation_nodes(D))
            T.count(f"instances.{tag}.nodes_out", derivation_nodes(D2))
        T.call(f"effhol.recheck_{tag}", eff_check, D2)
    T.call("surface.print", _print_extraction, res)
    T.call("surface.json", _print_json, D)


def _toolchain(T, d, expected: str, rtype, instances):
    """Check a logic derivation; when it checks, extract with --derive and
    take the replayed triple through the rest of the toolchain.  Returns
    the differences from the answer and the extraction result, if any."""
    if T.on:
        T.count("hol.check.nodes", derivation_nodes(d))
    try:
        T.call("hol.check", hol_check, d)
    except KernelError:
        return ([] if expected == "reject" else ["rejected, expected acceptance"]), None
    if expected == "reject":
        return ["accepted, expected rejection"], None
    fails: list[str] = []
    res = _extract(T, d, expected, rtype, fails)
    if res.derivation is not None:
        _replayed(T, res, instances)
    return fails, res


# Corpus items are the invocations users make: each parses its file, as
# every CLI run does, and reaches one verdict.


def _parse(T, ctx: Context, file: str, fails: list):
    doc = T.call("surface.parse", parse_document, ctx.texts[file])
    if [list(x) for x in doc.order] != [list(x) for x in answers.DECLARATIONS[file]]:
        fails.append(f"declarations of {file} differ")
    return doc


def extract_item(T, ctx: Context, file: str, name: str, expected: str) -> list[str]:
    """One logic derivation through the whole toolchain, as `extract
    --derive` followed by instantiation, re-checking and erasure."""
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    rtype = ctx.answers[f"{name}.realizer"]
    more, res = _toolchain(T, doc.hol_derivations[name], expected, rtype, ctx.instances)
    if res is not None:
        T.call("frame.erase", erase, res.realizer)
    return fails + more


def translate_item(T, ctx: Context, file: str, name: str, expected) -> list[str]:
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    out = T.call("translation.translate", translate_prop, (), doc.props[name])
    T.call("surface.print", print_type, out.type)
    return fails + ([] if out.type == expected else ["realizer type differs from the README"])


def reject_item(T, ctx: Context, file: str, names) -> list[str]:
    """`check-hol` on a file whose every derivation is wrong."""
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    for name in names:
        fails += _toolchain(T, doc.hol_derivations[name], "reject", None, ())[0]
    return fails


def eff_check_item(T, ctx: Context, file: str, names) -> list[str]:
    """`check-effhol`: every program-logic derivation checks."""
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    for name in names:
        d = doc.eff_derivations[name]
        if T.on:
            T.count("effhol.check.nodes", derivation_nodes(d))
        T.call("effhol.check", eff_check, d)
    return fails


def eff_instance_item(T, ctx: Context, file: str, tag: str, names) -> list[str]:
    """`instantiate --instance TAG`: every derivation re-checks."""
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    inst = dict(ctx.instances)[tag]
    for name in names:
        d = doc.eff_derivations[name]
        d2 = T.call(f"instances.{tag}", instantiate_derivation, d, inst)
        if T.on:
            T.count(f"instances.{tag}.nodes_in", derivation_nodes(d))
            T.count(f"instances.{tag}.nodes_out", derivation_nodes(d2))
        T.call(f"effhol.recheck_{tag}", eff_check, d2)
    return fails


def corpus_program_item(T, ctx: Context, file: str, name: str, expected: dict) -> list[str]:
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    return fails + program_item(T, ctx, doc.programs[name], expected)


def program_item(T, ctx: Context, p, expected: dict) -> list[str]:
    """Reduce under every strategy, type, instantiate and reduce under both
    instances, erase, normalize untyped, and run the frame laws on the
    erased value.  ``expected`` gives the program's type as generated or
    written and its type under each instance; for corpus programs also the
    normal form and step count per strategy and the erasure."""
    fails: list[str] = []
    ty = expected["type"]
    if T.call("effhol.type_of", type_of, (), (), p) != ty:
        fails.append("type differs from the known type")
    for strategy in Strategy:
        nf, steps = T.call("effhol.reduce", multi_step, p, strategy, FUEL)
        T.count("effhol.reduce.steps", steps)
        if T.call("effhol.type_of", type_of, (), (), nf) != ty:
            fails.append(f"subject reduction fails under {strategy.value}")
        if strategy.value in expected and (nf, steps) != expected[strategy.value]:
            fails.append(f"normal form under {strategy.value}")
    for tag, inst in ctx.instances:
        q = T.call("instances.prog", instantiate_prog, p, inst)
        if T.on:
            T.count("instances.prog.nodes_in", term_nodes(p))
            T.count("instances.prog.nodes_out", term_nodes(q))
        tq = T.call("effhol.type_of", type_of, (), (), q)
        if tq != expected[tag]:
            fails.append(f"type under {tag} differs")
        r, steps = T.call("effhol.reduce", multi_step, q, inst.strategy, FUEL)
        T.count("effhol.reduce.steps", steps)
        if T.call("effhol.type_of", type_of, (), (), r) != tq:
            fails.append(f"subject reduction fails under {tag}")
    u = T.call("frame.erase", erase, p)
    if "erased" in expected and u != expected["erased"]:
        fails.append("erasure differs")
    n = T.call("frame.normalize", untyped_normalize, u, FUEL)
    # a closed value: the normal form, the value it returns, or a thunk of it
    if is_uvalue(n):
        v = n
    elif isinstance(n, URet) and is_uvalue(n.inner):
        v = n.inner
    else:
        v = ULam(ushift(n, 1))
    if T.on:
        T.count("frame.erase.nodes", term_nodes(u))
    report = T.call("frame.laws", ef_law_suite, (make_prop(v),), FUEL)
    if not report.ok:
        fails.append(f"frame laws {report.clauses}")
    return fails


def frame_item(T, ctx: Context, file: str, expected) -> list[str]:
    """`ef-check`: the five clauses and every assert hold."""
    fails: list[str] = []
    doc = _parse(T, ctx, file, fails)
    report = T.call("frame.laws", ef_law_suite, tuple(doc.ef_props.values()), FUEL)
    clauses, asserts = expected
    if report.clauses != {c: True for c in clauses}:
        fails.append(f"clauses {report.clauses}")
    for name, p1, ev, p2 in doc.ef_asserts:
        if T.call("frame.evidence", evidence_check, p1, ev, p2, FUEL) is not asserts[name]:
            fails.append(f"assert {name}")
    return fails


def instance_file_item(T, ctx: Context, file: str, programs_file: str) -> list[str]:
    """The declarative continuation instance interprets every program of
    programs.eff exactly as the built-in one does (README)."""
    fails: list[str] = []
    inst = next(iter(_parse(T, ctx, file, fails).instances.values()))
    for name, p in _parse(T, ctx, programs_file, fails).programs.items():
        got = T.call("instances.prog", instantiate_prog, p, inst)
        if got != ctx.answers["cont-file"][name]:
            fails.append(f"{name} differs from the built-in instance")
    return fails


def chain_item(T, ctx: Context, item: dict, expected: str) -> list[str]:
    """A printed derivation, run as `effreal extract --derive` runs it."""
    doc = T.call("surface.parse", parse_document, item["text"])
    rtype = ctx.answers[item["name"]]
    fails, _ = _toolchain(T, doc.hol_derivations[item["name"]], expected, rtype, ())
    return fails


# Building the item list of each workload from its generated inputs.


def _parse_answers(ctx: Context, inputs: dict) -> None:
    """Parse the hand-written answers and those that came with the inputs
    once, before timing."""
    progs = answers.PROGRAMS
    text = [f"(type peirce-type {answers.PEIRCE_TYPE})"]
    for name, a in progs.items():
        text += [f"(type {name}.type {a['type']})", f"(type {name}.id {a['id']})"]
        text += [f"(type {name}.cont {a['cont']})", f"(ef-evidence {name}.erased {a['erased']})"]
        text += [f"(program {name}.{s} {a[s][0]})" for s in ("base", "cbn", "full")]
    text += [f"(type {n}.realizer {t})" for n, t in inputs["realizer_types"].items()]
    text += [f"(program {n}.cont-file {p})" for n, p in inputs["cont_programs"].items()]
    doc = parse_document("\n".join(text))
    ctx.answers["peirce"] = doc.types["peirce-type"]
    for name in inputs["realizer_types"]:
        ctx.answers[f"{name}.realizer"] = doc.types[f"{name}.realizer"]
    ctx.answers["cont-file"] = {n: doc.programs[f"{n}.cont-file"] for n in inputs["cont_programs"]}
    for name, a in progs.items():
        ctx.answers[name] = {
            "type": doc.types[f"{name}.type"],
            "id": doc.types[f"{name}.id"],
            "cont": doc.types[f"{name}.cont"],
            "erased": doc.ef_evidence[f"{name}.erased"],
            **{s: (doc.programs[f"{name}.{s}"], a[s][1]) for s in ("base", "cbn", "full")},
        }


HOL, EFF, PROGS = "corpus/hol_basic.hol", "corpus/effhol_basic.eff", "corpus/programs.eff"
EF, INST, INVALID = "corpus/ef_samples.ef", "corpus/instance_cont.inst", "perfbench/data/invalid.hol"


def corpus_items(ctx: Context, inputs: dict):
    _parse_answers(ctx, inputs)
    ctx.texts = {f: (ctx.root / f).read_text(encoding="utf-8") for f in answers.DECLARATIONS}
    make = {
        "extract": lambda n: (extract_item, (HOL, n, answers.HOL[n])),
        "translate": lambda n: (translate_item, (HOL, n, ctx.answers[n])),
        "check-hol": lambda n: (reject_item, (INVALID, answers.INVALID)),
        "check-effhol": lambda n: (eff_check_item, (EFF, answers.EFF)),
        "instantiate": lambda n: (eff_instance_item, (EFF, n, answers.EFF)),
        "program": lambda n: (corpus_program_item, (PROGS, n, ctx.answers[n])),
        "ef-check": lambda n: (frame_item, (EF, (answers.EF_CLAUSES, answers.EF_ASSERTS))),
        "instance-file": lambda n: (instance_file_item, (INST, PROGS)),
    }
    items = [(f"{kind}:{name}", *make[kind](name)) for kind, name in inputs["items"]]
    # the wrong answer: a derivation that checks, claimed to be rejected
    wrong = ("extract:i-combinator", extract_item, (HOL, "i-combinator", "reject"))
    return items, wrong


def chains_items(ctx: Context, inputs: dict):
    doc = parse_document(
        "\n".join(f"(type {it['name']} {it['realizer_type']})" for it in inputs["items"])
    )
    ctx.answers.update(doc.types)
    items = [(it["name"], chain_item, (it, "accept")) for it in inputs["items"]]
    first = inputs["items"][0]
    return items, (first["name"], chain_item, (first, "reject"))


def programs_items(ctx: Context, inputs: dict):
    doc = parse_document(inputs["text"])
    expected = {
        name: {"type": doc.types[name], "id": doc.types[f"{name}.id"],
               "cont": doc.types[f"{name}.cont"]}
        for name in inputs["names"]
    }
    items = [
        (name, program_item, (doc.programs[name], expected[name])) for name in inputs["names"]
    ]
    name = inputs["names"][0]
    wrong = {**expected[name], "type": Comp(expected[name]["type"])}
    return items, (name, program_item, (doc.programs[name], wrong))


WORKLOADS = {"corpus": corpus_items, "chains": chains_items, "programs": programs_items}
