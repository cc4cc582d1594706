"""Sequents, derivations and the deductive theory checker.

Derivation nodes carry their claimed conclusion sequent and explicit
witnesses, so checking is search-free.  The checker compares formulas up
to conversion (normal forms), which soundly absorbs the conversion rule;
an explicit Conv node is still accepted.  Well-formedness of the whole
sequent is enforced once at the root.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Rule tags.
EFF_RULES = frozenset({
    "UniProgI", "UniProgE", "UniExpI", "UniExpE", "UniTypeI", "UniTypeE",
    "ImpI", "ImpE", "ModI", "ModE", "Mon", "MemI", "MemE", "Mem0I", "Mem0E",
    "Id", "Conv", "AntiRed",
})


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


def sequent_wf(seq: EffSequent, path=None) -> None:
    k, i, t = seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types
    for s in i:
        index_wf(k, s, path)
    for ty in t:
        kind_of(k, ty, path)
    for h in seq.hyps:
        spec_wf(k, i, t, h, path)
    spec_wf(k, i, t, seq.goal, path)


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


def _expect(d: EffDerivation, n: int, path) -> None:
    if len(d.premises) != n:
        raise RuleMismatch(f"{d.rule} expects {n} premise(s), got {len(d.premises)}", path)


def check(d: EffDerivation) -> EffSequent:
    """Verify ``d`` node by node; returns the (claimed, now verified) root sequent."""
    sequent_wf(d.conclusion, ())
    _check(d, ())
    return d.conclusion


def _check(d: EffDerivation, path: tuple[int, ...]) -> None:
    c = d.conclusion
    ctxs = c.ctxs
    goal = normalize(c.goal)

    match d.rule:
        case "Id":
            _expect(d, 0, path)
            if goal not in _hypset(c.hyps):
                raise RuleMismatch("Id: goal is not among the hypotheses", path)

        case "Conv":
            _expect(d, 1, path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            if normalize(p.conclusion.goal) != goal:
                raise RuleMismatch("Conv: premise is not convertible to the goal", path)

        case "ImpI":
            _expect(d, 1, path)
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
            _expect(d, 2, path)
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

        case "UniProgI":
            _expect(d, 1, path)
            if not isinstance(goal, SForallProg):
                raise RuleMismatch("UniProgI: goal is not a program universal", path)
            (p,) = d.premises
            pc = p.conclusion
            want = EffContexts(ctxs.kinds, ctxs.indices, ctxs.types + (goal.binder_type,))
            if not _same_ctxs(pc.ctxs, want):
                raise RuleMismatch("UniProgI: premise context is not the extension", path)
            if _hypset(pc.hyps) != frozenset(
                normalize(shift(h, PROG)) for h in c.hyps
            ):
                raise RuleMismatch("UniProgI: premise hypotheses are not the shifted set", path)
            if normalize(pc.goal) != normalize(goal.body):
                raise RuleMismatch("UniProgI: premise goal is not the body", path)

        case "UniExpI":
            _expect(d, 1, path)
            if not isinstance(goal, SForallExpr):
                raise RuleMismatch("UniExpI: goal is not an expression universal", path)
            (p,) = d.premises
            pc = p.conclusion
            want = EffContexts(ctxs.kinds, ctxs.indices + (goal.binder_index,), ctxs.types)
            if not _same_ctxs(pc.ctxs, want):
                raise RuleMismatch("UniExpI: premise context is not the extension", path)
            if _hypset(pc.hyps) != frozenset(
                normalize(shift(h, EXPR)) for h in c.hyps
            ):
                raise RuleMismatch("UniExpI: premise hypotheses are not the shifted set", path)
            if normalize(pc.goal) != normalize(goal.body):
                raise RuleMismatch("UniExpI: premise goal is not the body", path)

        case "UniTypeI":
            _expect(d, 1, path)
            if not isinstance(goal, SForallType):
                raise RuleMismatch("UniTypeI: goal is not a type universal", path)
            (p,) = d.premises
            pc = p.conclusion
            want = EffContexts(
                ctxs.kinds + (goal.binder_kind,),
                shift_ctx(ctxs.indices),
                shift_ctx(ctxs.types),
            )
            if not _same_ctxs(pc.ctxs, want):
                raise RuleMismatch("UniTypeI: premise context is not the extension", path)
            if _hypset(pc.hyps) != frozenset(
                normalize(shift(h, TYPE)) for h in c.hyps
            ):
                raise RuleMismatch("UniTypeI: premise hypotheses are not the shifted set", path)
            if normalize(pc.goal) != normalize(goal.body):
                raise RuleMismatch("UniTypeI: premise goal is not the body", path)

        case "UniProgE":
            _expect(d, 1, path)
            w = d.witness_prog
            if w is None:
                raise RuleMismatch("UniProgE: missing program witness", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not isinstance(g, SForallProg):
                raise RuleMismatch("UniProgE: premise is not a program universal", path)
            tw = type_of(ctxs.kinds, ctxs.types, w, path)
            if tw != normalize(g.binder_type):
                raise IllTyped(
                    f"UniProgE: witness has type {tw!r}, expected {g.binder_type!r}", path
                )
            if normalize(subst(g.body, PROG, 0, w)) != goal:
                raise RuleMismatch("UniProgE: conclusion is not the instantiated body", path)

        case "UniExpE":
            _expect(d, 1, path)
            w = d.witness_expr
            if w is None:
                raise RuleMismatch("UniExpE: missing expression witness", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not isinstance(g, SForallExpr):
                raise RuleMismatch("UniExpE: premise is not an expression universal", path)
            sw = index_of(ctxs.kinds, ctxs.indices, ctxs.types, w, path)
            if sw != normalize(g.binder_index):
                raise IllTyped(
                    f"UniExpE: witness has index {sw!r}, expected {g.binder_index!r}", path
                )
            if normalize(subst(g.body, EXPR, 0, w)) != goal:
                raise RuleMismatch("UniExpE: conclusion is not the instantiated body", path)

        case "UniTypeE":
            _expect(d, 1, path)
            w = d.witness_type
            if w is None:
                raise RuleMismatch("UniTypeE: missing type witness", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not isinstance(g, SForallType):
                raise RuleMismatch("UniTypeE: premise is not a type universal", path)
            kw = kind_of(ctxs.kinds, w, path)
            if kw != g.binder_kind:
                raise IllTyped(
                    f"UniTypeE: witness has kind {kw!r}, expected {g.binder_kind!r}", path
                )
            if normalize(subst(g.body, TYPE, 0, w)) != goal:
                raise RuleMismatch("UniTypeE: conclusion is not the instantiated body", path)

        case "ModI":
            _expect(d, 1, path)
            if not (isinstance(goal, After) and isinstance(goal.prog, Ret)):
                raise RuleMismatch("ModI: goal is not a modality over a return", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            want = subst(goal.body, PROG, 0, goal.prog.inner)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("ModI: premise is not the substituted body", path)

        case "ModE":
            _expect(d, 1, path)
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
            _expect(d, 2, path)
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
            want = EffContexts(ctxs.kinds, ctxs.indices, ctxs.types + (goal.binder_type,))
            if not _same_ctxs(ec.ctxs, want):
                raise RuleMismatch("Mon: entailment premise context is not the extension", path)
            shifted = frozenset(normalize(shift(h, PROG)) for h in c.hyps)
            if _hypset(ec.hyps) != shifted | {g2.body}:
                raise RuleMismatch("Mon: entailment hypotheses are not the shifted set", path)
            if normalize(ec.goal) != normalize(goal.body):
                raise RuleMismatch("Mon: entailment goal is not the modality body", path)

        case "MemI":
            _expect(d, 1, path)
            if not (isinstance(goal, SMem) and isinstance(goal.fn, Compr)):
                raise RuleMismatch("MemI: goal is not membership in a comprehension", path)
            comp = goal.fn
            tp = type_of(ctxs.kinds, ctxs.types, goal.prog, path)
            if tp != normalize(comp.binder_type):
                raise IllTyped(f"MemI: member has type {tp!r}, expected {comp.binder_type!r}", path)
            sa = index_of(ctxs.kinds, ctxs.indices, ctxs.types, goal.arg, path)
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
            _expect(d, 1, path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not (isinstance(g, SMem) and isinstance(g.fn, Compr)):
                raise RuleMismatch("MemE: premise is not membership in a comprehension", path)
            want = subst(subst(g.fn.body, PROG, 0, g.prog), EXPR, 0, g.arg)
            if normalize(want) != goal:
                raise RuleMismatch("MemE: conclusion is not the substituted body", path)

        case "Mem0I":
            _expect(d, 1, path)
            if not (isinstance(goal, SMemBase) and isinstance(goal.fn, ComprBase)):
                raise RuleMismatch("Mem0I: goal is not base membership in a comprehension", path)
            comp = goal.fn
            tp = type_of(ctxs.kinds, ctxs.types, goal.prog, path)
            if tp != normalize(comp.binder_type):
                raise IllTyped(f"Mem0I: member has type {tp!r}, expected {comp.binder_type!r}", path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            want = subst(comp.body, PROG, 0, goal.prog)
            if normalize(p.conclusion.goal) != normalize(want):
                raise RuleMismatch("Mem0I: premise is not the substituted body", path)

        case "Mem0E":
            _expect(d, 1, path)
            (p,) = d.premises
            _same_frame(d, p.conclusion, path)
            g = normalize(p.conclusion.goal)
            if not (isinstance(g, SMemBase) and isinstance(g.fn, ComprBase)):
                raise RuleMismatch("Mem0E: premise is not base membership in a comprehension", path)
            want = subst(g.fn.body, PROG, 0, g.prog)
            if normalize(want) != goal:
                raise RuleMismatch("Mem0E: conclusion is not the substituted body", path)

        case "AntiRed":
            _expect(d, 1, path)
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
            t1 = type_of(ctxs.kinds, ctxs.types, d.prog_before, path)
            t2 = type_of(ctxs.kinds, ctxs.types, d.prog_after, path)
            want_t = normalize(d.hole_type)
            if t1 != want_t or t2 != want_t:
                raise IllTyped("AntiRed: reduction does not preserve the declared type", path)
            if count_steps(d.prog_before, d.prog_after, d.strategy, d.steps) is None:
                raise ReductionMismatch(
                    f"AntiRed: claimed reduction does not hold within {d.steps} steps", path
                )

        case _:
            raise RuleMismatch(f"unknown rule {d.rule!r}", path)

    for i, p in enumerate(d.premises):
        _check(p, path + (i,))


def make_triple(
    ctxs: EffContexts,
    hyps: tuple[EffSpec, ...],
    binder_type: EffType,
    prog: EffProgram,
    body: EffSpec,
) -> EffSequent:
    """The Hoare-style triple: hyps entail ``after prog (x:binder_type) body``."""
    tp = type_of(ctxs.kinds, ctxs.types, prog)
    from .syntax import Comp

    if tp != normalize(Comp(binder_type)):
        raise IllTyped(f"triple program has type {tp!r}, expected M {binder_type!r}")
    return EffSequent(ctxs, hyps, After(prog, binder_type, body))
