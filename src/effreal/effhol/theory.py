"""Sequents, derivations and the deductive theory checker.

Derivation nodes carry their claimed conclusion sequent and explicit
witnesses, so checking is search-free.  The checker compares formulas up
to conversion (normal forms), which soundly absorbs the conversion rule;
an explicit Conv node is still accepted.  Well-formedness of the whole
sequent is enforced once at the root.

``EFF_PREMISES`` gives each rule one entry per premise: SAME if it shares
the conclusion's frame (contexts and hypotheses), OPENED if the rule opens
one.  ``premise_frame`` computes each premise's frame from the conclusion,
with ``extend`` where a binder opens; a node's premise count and then every
premise's frame are checked before the rule's own checks.  ``check`` walks
the nodes from an explicit stack, and ``_check`` checks one node against
its premises' claims.
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
from .typing import index_of, index_wf, kind_of, shift_ctx, spec_wf, type_of


@dataclass(frozen=True, slots=True)
class EffSequent:
    ctxs: EffContexts
    hyps: tuple[EffSpec, ...]
    goal: EffSpec


# Each rule's premises, one entry each: SAME if the premise shares the
# conclusion's contexts and hypotheses, OPENED if it is checked in the
# frame ``premise_frame`` opens for it.
SAME, OPENED = True, False
EFF_PREMISES = {
    "Id": (), "Conv": (SAME,), "ImpI": (OPENED,), "ImpE": (SAME, SAME),
    "UniProgI": (OPENED,), "UniProgE": (SAME,), "UniExpI": (OPENED,), "UniExpE": (SAME,),
    "UniTypeI": (OPENED,), "UniTypeE": (SAME,), "ModI": (SAME,), "ModE": (SAME,),
    "Mon": (OPENED, SAME), "MemI": (SAME,), "MemE": (SAME,), "Mem0I": (SAME,), "Mem0E": (SAME,),
    "AntiRed": (SAME,),
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
# Each universal elimination: its introduction, and what the witness's
# judgment computes.
_UNI_E = {
    "UniProgE": ("UniProgI", "type"), "UniExpE": ("UniExpI", "index"), "UniTypeE": ("UniTypeI", "kind"),
}
# Each membership rule: its membership and comprehension classes, noun,
# and whether it introduces the membership (as its goal) or eliminates it
# (from its premise).
_MEM = {
    "MemI": (SMem, Compr, "membership", True),
    "MemE": (SMem, Compr, "membership", False),
    "Mem0I": (SMemBase, ComprBase, "base membership", True),
    "Mem0E": (SMemBase, ComprBase, "base membership", False),
}


@dataclass(frozen=True, eq=False, repr=False)
class EffDerivation:
    rule: str
    conclusion: EffSequent
    premises: tuple["EffDerivation", ...] = ()
    # A universal elimination's witness: a program, expression or type.
    witness: EffProgram | EffExpr | EffType | None = None
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


def _ctxkey(ctxs: EffContexts) -> tuple:
    return ctxs.kinds, tuple(map(normalize, ctxs.indices)), tuple(map(normalize, ctxs.types))


def extend(ctxs: EffContexts, hyps: tuple, ns, entry):
    """``ctxs`` with one more innermost ``ns`` binder annotated ``entry``, and
    ``hyps`` shifted past it; a kind binder shifts the index and type
    entries too."""
    if ns is TYPE:
        ctxs = EffContexts(ctxs.kinds, shift_ctx(ctxs.indices), shift_ctx(ctxs.types))
    ctxs = replace(ctxs, **{CONTEXT[ns]: getattr(ctxs, CONTEXT[ns]) + (entry,)})
    return ctxs, tuple(shift(h, ns) for h in hyps)


def premise_frame(d: EffDerivation, i: int, path=None) -> tuple[EffContexts, tuple[EffSpec, ...]]:
    """The contexts and hypotheses, in order, of premise ``i`` of ``d``: ImpI
    assumes the antecedent last, a universal introduction opens the
    universal's binder, Mon's first premise opens the result binder and
    assumes the modality premise's body last, and every SAME premise keeps
    the conclusion's own."""
    c = d.conclusion
    if EFF_PREMISES[d.rule][i] is SAME:
        return c.ctxs, c.hyps
    goal = normalize(c.goal)
    match d.rule:
        case "ImpI":
            if not isinstance(goal, SImp):
                raise RuleMismatch("ImpI: goal is not an implication", path)
            return c.ctxs, c.hyps + (goal.lhs,)
        case "Mon":
            if not isinstance(goal, After):
                raise RuleMismatch("Mon: goal is not a modality", path)
            g2 = normalize(d.premises[1].conclusion.goal)
            if not isinstance(g2, After):
                raise RuleMismatch("Mon: second premise is not a modality", path)
            ctxs, hyps = extend(c.ctxs, c.hyps, PROG, goal.binder_type)
            return ctxs, hyps + (g2.body,)
    cls, noun, ns, annotation = _UNI_I[d.rule]
    if not isinstance(goal, cls):
        raise RuleMismatch(f"{d.rule}: goal is not {noun}", path)
    return extend(c.ctxs, c.hyps, ns, getattr(goal, annotation))


def check(d: EffDerivation) -> EffSequent:
    """Verify ``d`` node by node, in pre-order from an explicit stack;
    returns the (claimed, now verified) root sequent.  Every judgment of
    the check shares one typing table (see ``typing``)."""
    memo: dict = {}
    sequent_wf(d.conclusion, (), memo)
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        _check(node, path, memo)
        stack.extend((node.premises[i], path + (i,)) for i in reversed(range(len(node.premises))))
    return d.conclusion


def _check(d: EffDerivation, path: tuple[int, ...], memo: dict) -> None:
    """Check the one rule application at ``d`` against its premises' claims."""
    c = d.conclusion
    ctxs = c.ctxs
    goal = normalize(c.goal)
    frames = EFF_PREMISES.get(d.rule) if isinstance(d.rule, str) else None
    if frames is None:
        raise RuleMismatch(f"unknown rule {d.rule!r}", path)
    if len(d.premises) != len(frames):
        raise RuleMismatch(f"{d.rule} expects {len(frames)} premise(s), got {len(d.premises)}", path)
    for i, (same, p) in enumerate(zip(frames, d.premises)):
        want_ctxs, want_hyps = premise_frame(d, i, path)
        whose = "conclusion" if same else "the opened frame"
        if _ctxkey(p.conclusion.ctxs) != _ctxkey(want_ctxs):
            raise RuleMismatch(f"{d.rule}: premise contexts differ from {whose}", path)
        if _hypset(p.conclusion.hyps) != _hypset(want_hyps):
            raise RuleMismatch(f"{d.rule}: premise hypotheses differ from {whose}", path)

    match d.rule:
        case "Id":
            if goal not in _hypset(c.hyps):
                raise RuleMismatch("Id: goal is not among the hypotheses", path)

        case "Conv":
            if normalize(d.premises[0].conclusion.goal) != goal:
                raise RuleMismatch("Conv: premise is not convertible to the goal", path)

        case "ImpI":
            if normalize(d.premises[0].conclusion.goal) != normalize(goal.rhs):
                raise RuleMismatch("ImpI: premise goal is not the consequent", path)

        case "ImpE":
            fn, arg = d.premises
            g = normalize(fn.conclusion.goal)
            if not isinstance(g, SImp):
                raise RuleMismatch("ImpE: first premise is not an implication", path)
            if normalize(arg.conclusion.goal) != g.lhs:
                raise RuleMismatch("ImpE: argument premise does not match antecedent", path)
            if g.rhs != goal:
                raise RuleMismatch("ImpE: conclusion does not match consequent", path)

        case "UniProgI" | "UniExpI" | "UniTypeI":
            if normalize(d.premises[0].conclusion.goal) != normalize(goal.body):
                raise RuleMismatch(f"{d.rule}: premise goal is not the body", path)

        case "UniProgE" | "UniExpE" | "UniTypeE":
            intro, what = _UNI_E[d.rule]
            cls, noun, ns, annotation = _UNI_I[intro]
            w = d.witness
            if w is None:
                raise RuleMismatch(f"{d.rule}: missing {ns.name} witness", path)
            g = normalize(d.premises[0].conclusion.goal)
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
            want = subst(goal.body, PROG, 0, goal.prog.inner)
            if normalize(d.premises[0].conclusion.goal) != normalize(want):
                raise RuleMismatch("ModI: premise is not the substituted body", path)

        case "ModE":
            if not (isinstance(goal, After) and isinstance(goal.prog, Bind)):
                raise RuleMismatch("ModE: goal is not a modality over a bind", path)
            b = goal.prog
            inner = After(b.rest, goal.binder_type, shift(goal.body, PROG, 1, 1))
            want = After(b.first, b.binder_type, inner)
            if normalize(d.premises[0].conclusion.goal) != normalize(want):
                raise RuleMismatch("ModE: premise is not the nested modality", path)

        case "Mon":
            ent, mod = d.premises
            g2 = normalize(mod.conclusion.goal)
            if g2.prog != goal.prog or g2.binder_type != goal.binder_type:
                raise RuleMismatch("Mon: modality premise runs a different computation", path)
            if normalize(ent.conclusion.goal) != normalize(goal.body):
                raise RuleMismatch("Mon: entailment goal is not the modality body", path)

        case "MemI" | "MemE" | "Mem0I" | "Mem0E":
            cls, fn_cls, noun, intro = _MEM[d.rule]
            prem = d.premises[0].conclusion.goal
            m = goal if intro else normalize(prem)
            if not (isinstance(m, cls) and isinstance(m.fn, fn_cls)):
                where = "goal" if intro else "premise"
                raise RuleMismatch(f"{d.rule}: {where} is not {noun} in a comprehension", path)
            comp = m.fn
            if intro:
                tp = type_of(ctxs.kinds, ctxs.types, m.prog, path, memo)
                if tp != normalize(comp.binder_type):
                    raise IllTyped(f"{d.rule}: member has type {tp!r}, expected {comp.binder_type!r}", path)
                if cls is SMem:
                    sa = index_of(ctxs.kinds, ctxs.indices, ctxs.types, m.arg, path, memo)
                    if sa != normalize(comp.binder_index):
                        raise IllTyped(
                            f"{d.rule}: argument has index {sa!r}, expected {comp.binder_index!r}", path
                        )
            want = subst(comp.body, PROG, 0, m.prog)
            if cls is SMem:
                want = subst(want, EXPR, 0, m.arg)
            if normalize(want) != (normalize(prem) if intro else goal):
                where = "premise" if intro else "conclusion"
                raise RuleMismatch(f"{d.rule}: {where} is not the substituted body", path)

        case "AntiRed":
            if any(w is None for w in (d.hole_spec, d.hole_type, d.prog_before, d.prog_after)):
                raise RuleMismatch("AntiRed: missing reduction witnesses", path)
            if type(d.steps) is not int or d.steps < 0 or not isinstance(d.strategy, Strategy):
                raise RuleMismatch(f"AntiRed: bad step count {d.steps!r} or strategy {d.strategy!r}", path)
            before = subst(d.hole_spec, PROG, 0, d.prog_before)
            after = subst(d.hole_spec, PROG, 0, d.prog_after)
            if normalize(before) != goal:
                raise RuleMismatch("AntiRed: conclusion is not the pre-reduction form", path)
            if normalize(after) != normalize(d.premises[0].conclusion.goal):
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

