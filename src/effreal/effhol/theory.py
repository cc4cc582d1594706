"""Sequents, derivations and the deductive theory checker.

Derivation nodes carry their claimed conclusion sequent and explicit
witnesses, so checking is search-free.  The checker compares formulas up
to conversion (normal forms), which soundly absorbs the conversion rule;
an explicit Conv node is still accepted.  Well-formedness of the whole
sequent is enforced once at the root.

``EFF_PREMISES`` holds each rule's premise count, checked once per node
before the rule's own checks.  ``extend`` puts contexts and hypotheses
under one more binder, for the checker and for every derivation builder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import IllTyped, ReductionMismatch, RuleMismatch
from .._astnode import shift, subst
from .conversion import normalize
from .reduction import Strategy, count_steps
from .syntax import (
    EXPR,
    PROG,
    TYPE,
    After,
    Bind,
    Comp,
    Compr,
    ComprBase,
    EffContexts,
    EffExpr,
    EffProgram,
    EffSpec,
    EffType,
    Ret,
    SForallExpr,
    SForallProg,
    SForallType,
    SImp,
    SMem,
    SMemBase,
)
from .typing import index_of, index_wf, kind_of, spec_wf, type_of


@dataclass(frozen=True, slots=True)
class EffSequent:
    ctxs: EffContexts
    hyps: tuple[EffSpec, ...]
    goal: EffSpec


# Each rule's premise count.
EFF_PREMISES = {
    "Id": 0, "Conv": 1, "ImpI": 1, "ImpE": 2,
    "UniProgI": 1, "UniProgE": 1, "UniExpI": 1, "UniExpE": 1, "UniTypeI": 1, "UniTypeE": 1,
    "ModI": 1, "ModE": 1, "Mon": 2, "MemI": 1, "MemE": 1, "Mem0I": 1, "Mem0E": 1,
    "AntiRed": 1,
}

# The context of each namespace's binders.
CONTEXT = {TYPE: "kinds", EXPR: "indices", PROG: "types"}

# Each universal introduction: its goal class, noun, namespace and the
# goal's binder annotation.
_UNI_I = {
    "UniProgI": (SForallProg, "a program universal", PROG, "binder_type"),
    "UniExpI": (SForallExpr, "an expression universal", EXPR, "binder_index"),
    "UniTypeI": (SForallType, "a type universal", TYPE, "binder_kind"),
}
# Each universal elimination: its introduction, its witness field, and what
# the witness's judgment computes.
_UNI_E = {
    "UniProgE": ("UniProgI", "witness_prog", "type"),
    "UniExpE": ("UniExpI", "witness_expr", "index"),
    "UniTypeE": ("UniTypeI", "witness_type", "kind"),
}


@dataclass(frozen=True)
class EffDerivation:
    rule: str
    conclusion: EffSequent
    premises: tuple["EffDerivation", ...] = ()
    witness_prog: EffProgram | None = None
    witness_expr: EffExpr | None = None
    witness_type: EffType | None = None
    # Anti-reduction evidence: ``hole_spec`` has the reduced program's
    # position as program variable 0; the context variables start at 1.
    hole_spec: EffSpec | None = None
    hole_type: EffType | None = None
    prog_before: EffProgram | None = None
    prog_after: EffProgram | None = None
    steps: int = 0
    strategy: Strategy = Strategy.BASE


def sequent_wf(seq: EffSequent, path=None, memo=None) -> None:
    k, i, t = seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types
    for s in i:
        index_wf(k, s, path, memo)
    for ty in t:
        kind_of(k, ty, path, memo)
    for h in seq.hyps:
        spec_wf(k, i, t, h, path, memo)
    spec_wf(k, i, t, seq.goal, path, memo)


def _hypset(hyps) -> frozenset:
    return frozenset(normalize(h) for h in hyps)


def _same_ctxs(a: EffContexts, b: EffContexts) -> bool:
    return (
        a.kinds == b.kinds
        and tuple(map(normalize, a.indices)) == tuple(map(normalize, b.indices))
        and tuple(map(normalize, a.types)) == tuple(map(normalize, b.types))
    )


def _same_frame(d: EffDerivation, p: EffSequent, path) -> None:
    c = d.conclusion
    if not _same_ctxs(p.ctxs, c.ctxs):
        raise RuleMismatch(f"{d.rule}: premise contexts differ from conclusion", path)
    if _hypset(p.hyps) != _hypset(c.hyps):
        raise RuleMismatch(f"{d.rule}: premise hypotheses differ from conclusion", path)


def extend(ctxs: EffContexts, hyps: tuple, ns, entry):
    """``ctxs`` with one more innermost ``ns`` binder annotated ``entry``, and
    ``hyps`` shifted past it; a kind binder shifts the index and type
    entries too."""

    def up(x):
        return shift(x, ns)

    if ns is TYPE:
        ctxs = EffContexts(ctxs.kinds, tuple(map(up, ctxs.indices)), tuple(map(up, ctxs.types)))
    ctxs = replace(ctxs, **{CONTEXT[ns]: getattr(ctxs, CONTEXT[ns]) + (entry,)})
    return ctxs, tuple(map(up, hyps))


def check(d: EffDerivation) -> EffSequent:
    """Verify ``d`` node by node; returns the (claimed, now verified) root sequent.
    Every judgment of the check shares one typing table (see ``typing``)."""
    memo: dict = {}
    sequent_wf(d.conclusion, (), memo)
    _check(d, (), memo)
    return d.conclusion


def _check(d: EffDerivation, path: tuple[int, ...], memo: dict) -> None:
    c = d.conclusion
    ctxs = c.ctxs
    goal = normalize(c.goal)
    n = EFF_PREMISES.get(d.rule) if isinstance(d.rule, str) else None
    if n is None:
        raise RuleMismatch(f"unknown rule {d.rule!r}", path)
    if len(d.premises) != n:
        raise RuleMismatch(f"{d.rule} expects {n} premise(s), got {len(d.premises)}", path)

    match d.rule:
        case "Id":
            if goal not in _hypset(c.hyps):
                raise RuleMismatch("Id: goal is not among the hypotheses", path)

        case "Conv":
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            if normalize(p.conclusion.goal) != goal:
                raise RuleMismatch("Conv: premise is not convertible to the goal", path)

        case "ImpI":
            if not isinstance(goal, SImp):
                raise RuleMismatch("ImpI: goal is not an implication", path)
            (p,) = d.premises
            pc = p.conclusion
            if not _same_ctxs(pc.ctxs, ctxs):
                raise RuleMismatch("ImpI: premise contexts differ", path)
            if _hypset(pc.hyps) != _hypset(c.hyps) | {normalize(goal.lhs)}:
                raise RuleMismatch("ImpI: premise hypotheses are not the discharged set", path)
            if normalize(pc.goal) != normalize(goal.rhs):
                raise RuleMismatch("ImpI: premise goal is not the consequent", path)

        case "ImpE":
            fn, arg = d.premises
            _same_frame(d, fn.conclusion, path)
            _same_frame(d, arg.conclusion, path)
            g = normalize(fn.conclusion.goal)
            if not isinstance(g, SImp):
                raise RuleMismatch("ImpE: first premise is not an implication", path)
            if normalize(arg.conclusion.goal) != g.lhs:
                raise RuleMismatch("ImpE: argument premise does not match antecedent", path)
            if g.rhs != goal:
                raise RuleMismatch("ImpE: conclusion does not match consequent", path)

        case "UniProgI" | "UniExpI" | "UniTypeI":
            cls, noun, ns, annotation = _UNI_I[d.rule]
            if not isinstance(goal, cls):
                raise RuleMismatch(f"{d.rule}: goal is not {noun}", path)
            pc = d.premises[0].conclusion
            want, hyps = extend(ctxs, c.hyps, ns, getattr(goal, annotation))
            if not _same_ctxs(pc.ctxs, want):
                raise RuleMismatch(f"{d.rule}: premise context is not the extension", path)
            if _hypset(pc.hyps) != _hypset(hyps):
                raise RuleMismatch(f"{d.rule}: premise hypotheses are not the shifted set", path)
            if normalize(pc.goal) != normalize(goal.body):
                raise RuleMismatch(f"{d.rule}: premise goal is not the body", path)

        case "UniProgE" | "UniExpE" | "UniTypeE":
            intro, field, what = _UNI_E[d.rule]
            cls, noun, ns, annotation = _UNI_I[intro]
            w = getattr(d, field)
            if w is None:
                raise RuleMismatch(f"{d.rule}: missing {ns.name} witness", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not isinstance(g, cls):
                raise RuleMismatch(f"{d.rule}: premise is not {noun}", path)
            if ns is PROG:
                got = type_of(ctxs.kinds, ctxs.types, w, path, memo)
            elif ns is EXPR:
                got = index_of(ctxs.kinds, ctxs.indices, ctxs.types, w, path, memo)
            else:
                got = kind_of(ctxs.kinds, w, path, memo)
            # ``g`` is normal, so its annotation is too
            want = getattr(g, annotation)
            if got != want:
                raise IllTyped(f"{d.rule}: witness has {what} {got!r}, expected {want!r}", path)
            if normalize(subst(g.body, ns, 0, w)) != goal:
                raise RuleMismatch(f"{d.rule}: conclusion is not the instantiated body", path)

        case "ModI":
            if not (isinstance(goal, After) and isinstance(goal.prog, Ret)):
                raise RuleMismatch("ModI: goal is not a modality over a return", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            want = subst(goal.body, PROG, 0, goal.prog.inner)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("ModI: premise is not the substituted body", path)

        case "ModE":
            if not (isinstance(goal, After) and isinstance(goal.prog, Bind)):
                raise RuleMismatch("ModE: goal is not a modality over a bind", path)
            b = goal.prog
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            inner = After(b.rest, goal.binder_type, shift(goal.body, PROG, 1, 1))
            want = After(b.first, b.binder_type, inner)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("ModE: premise is not the nested modality", path)

        case "Mon":
            if not isinstance(goal, After):
                raise RuleMismatch("Mon: goal is not a modality", path)
            ent, mod = d.premises
            _same_frame(d, mod.conclusion, path)
            g2 = normalize(mod.conclusion.goal)
            if not isinstance(g2, After):
                raise RuleMismatch("Mon: second premise is not a modality", path)
            if g2.prog != goal.prog or g2.binder_type != goal.binder_type:
                raise RuleMismatch("Mon: modality premise runs a different computation", path)
            ec = ent.conclusion
            want, hyps = extend(ctxs, c.hyps, PROG, goal.binder_type)
            if not _same_ctxs(ec.ctxs, want):
                raise RuleMismatch("Mon: entailment premise context is not the extension", path)
            if _hypset(ec.hyps) != _hypset(hyps) | {g2.body}:
                raise RuleMismatch("Mon: entailment hypotheses are not the shifted set", path)
            if normalize(ec.goal) != normalize(goal.body):
                raise RuleMismatch("Mon: entailment goal is not the modality body", path)

        case "MemI":
            if not (isinstance(goal, SMem) and isinstance(goal.fn, Compr)):
                raise RuleMismatch("MemI: goal is not membership in a comprehension", path)
            comp = goal.fn
            tp = type_of(ctxs.kinds, ctxs.types, goal.prog, path, memo)
            if tp != normalize(comp.binder_type):
                raise IllTyped(f"MemI: member has type {tp!r}, expected {comp.binder_type!r}", path)
            sa = index_of(ctxs.kinds, ctxs.indices, ctxs.types, goal.arg, path, memo)
            if sa != normalize(comp.binder_index):
                raise IllTyped(
                    f"MemI: argument has index {sa!r}, expected {comp.binder_index!r}", path
                )
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            want = subst(subst(comp.body, PROG, 0, goal.prog), EXPR, 0, goal.arg)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("MemI: premise is not the substituted body", path)

        case "MemE":
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not (isinstance(g, SMem) and isinstance(g.fn, Compr)):
                raise RuleMismatch("MemE: premise is not membership in a comprehension", path)
            want = subst(subst(g.fn.body, PROG, 0, g.prog), EXPR, 0, g.arg)
            if normalize(want) != goal:
                raise RuleMismatch("MemE: conclusion is not the substituted body", path)

        case "Mem0I":
            if not (isinstance(goal, SMemBase) and isinstance(goal.fn, ComprBase)):
                raise RuleMismatch("Mem0I: goal is not base membership in a comprehension", path)
            comp = goal.fn
            tp = type_of(ctxs.kinds, ctxs.types, goal.prog, path, memo)
            if tp != normalize(comp.binder_type):
                raise IllTyped(f"Mem0I: member has type {tp!r}, expected {comp.binder_type!r}", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            want = subst(comp.body, PROG, 0, goal.prog)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("Mem0I: premise is not the substituted body", path)

        case "Mem0E":
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not (isinstance(g, SMemBase) and isinstance(g.fn, ComprBase)):
                raise RuleMismatch("Mem0E: premise is not base membership in a comprehension", path)
            want = subst(g.fn.body, PROG, 0, g.prog)
            if normalize(want) != goal:
                raise RuleMismatch("Mem0E: conclusion is not the substituted body", path)

        case "AntiRed":
            if d.hole_spec is None or d.prog_before is None or d.prog_after is None:
                raise RuleMismatch("AntiRed: missing reduction witnesses", path)
            if d.hole_type is None:
                raise RuleMismatch("AntiRed: missing binder type", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            before = subst(d.hole_spec, PROG, 0, d.prog_before)
            after = subst(d.hole_spec, PROG, 0, d.prog_after)
            if normalize(before) != goal:
                raise RuleMismatch("AntiRed: conclusion is not the pre-reduction form", path)
            if normalize(after) != normalize(p.conclusion.goal):
                raise RuleMismatch("AntiRed: premise is not the post-reduction form", path)
            t1 = type_of(ctxs.kinds, ctxs.types, d.prog_before, path, memo)
            t2 = type_of(ctxs.kinds, ctxs.types, d.prog_after, path, memo)
            want_t = normalize(d.hole_type)
            if t1 != want_t or t2 != want_t:
                raise IllTyped("AntiRed: reduction does not preserve the declared type", path)
            if count_steps(d.prog_before, d.prog_after, d.strategy, d.steps) is None:
                raise ReductionMismatch(
                    f"AntiRed: claimed reduction does not hold within {d.steps} steps", path
                )

    for i, p in enumerate(d.premises):
        _check(p, path + (i,), memo)


def make_triple(
    ctxs: EffContexts,
    hyps: tuple[EffSpec, ...],
    binder_type: EffType,
    prog: EffProgram,
    body: EffSpec,
) -> EffSequent:
    """The Hoare-style triple: hyps entail ``after prog (x:binder_type) body``."""
    tp = type_of(ctxs.kinds, ctxs.types, prog)
    if tp != normalize(Comp(binder_type)):
        raise IllTyped(f"triple program has type {tp!r}, expected M {binder_type!r}")
    return EffSequent(ctxs, hyps, After(prog, binder_type, body))
