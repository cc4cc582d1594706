"""One builder per rule of the program logic, for the code that writes
derivations (the soundness replay and the instance templates).

Each builder computes the part of the conclusion its rule fixes from the
premises and witnesses: an introduction or ``Id`` takes the conclusion's
contexts and hypotheses, an elimination concludes in its first premise's
frame, ``mon`` and ``bind`` in their modality premise's.  The caller builds
each premise in the frame ``theory.premise_frame`` computes for it: with
``extend`` where the rule opens a binder, and its assumption appended last.
Nothing here is trusted: ``theory.check`` re-checks every node.
"""

from __future__ import annotations

from .._astnode import shift, subst
from .reduction import STRATEGIES, root_step
from .syntax import PROG, After, Bind, SImp
from .theory import _UNI_E, _UNI_I, CONTEXT, EffDerivation, EffSequent


def hyp(ctxs, hyps, h) -> EffDerivation:
    """Id: ``h``, one of ``hyps``."""
    return EffDerivation("Id", EffSequent(ctxs, hyps, h))


def imp_intro(ctxs, hyps, lhs, d) -> EffDerivation:
    """ImpI: ``lhs`` implies the goal of ``d``, which assumes ``hyps`` and ``lhs``."""
    return EffDerivation("ImpI", EffSequent(ctxs, hyps, SImp(lhs, d.conclusion.goal)), (d,))


def imp_elim(fn, arg) -> EffDerivation:
    """ImpE: the consequent of the implication ``fn`` proves, given ``arg``."""
    c = fn.conclusion
    return EffDerivation("ImpE", EffSequent(c.ctxs, c.hyps, c.goal.rhs), (fn, arg))


def uni_intro(ctxs, hyps, rule, d) -> EffDerivation:
    """A universal introduction ``rule`` over the innermost binder of its
    namespace in the contexts of ``d``."""
    cls, _, ns, _ = _UNI_I[rule]
    entry = getattr(d.conclusion.ctxs, CONTEXT[ns])[-1]
    return EffDerivation(rule, EffSequent(ctxs, hyps, cls(entry, d.conclusion.goal)), (d,))


def uni_elim(rule, d, w) -> EffDerivation:
    """A universal elimination ``rule``: the body of the universal ``d``
    proves, at the witness ``w``."""
    intro, _ = _UNI_E[rule]
    c = d.conclusion
    at = subst(c.goal.body, _UNI_I[intro][2], 0, w)
    return EffDerivation(rule, EffSequent(c.ctxs, c.hyps, at), (d,), witness=w)


def mon(ent, mod) -> EffDerivation:
    """Mon: the modality ``mod`` proves, with its body replaced by the goal
    of ``ent``, which assumes that body under the result's binder."""
    c = mod.conclusion
    goal = After(c.goal.prog, c.goal.binder_type, ent.conclusion.goal)
    return EffDerivation("Mon", EffSequent(c.ctxs, c.hyps, goal), (ent, mod))


def bind(ent, mod) -> EffDerivation:
    """ModE over ``mon(ent, mod)``, Evaluation Logic's rule for bind:
    ``mod`` runs the first computation, ``ent`` proves the modality of the
    rest under its result, and their bind satisfies the rest's body."""
    m = mon(ent, mod)
    c = m.conclusion
    first, rest = c.goal, c.goal.body
    # ModE's premise sees the body past the first result, variable 1
    body = shift(rest.body, PROG, -1, 2)
    goal = After(Bind(first.binder_type, first.prog, rest.prog), rest.binder_type, body)
    return EffDerivation("ModE", EffSequent(c.ctxs, c.hyps, goal), (m,))


def anti_red(ctxs, hyps, hole, hole_type, before, strategy, d) -> EffDerivation:
    """AntiRed by one root step of ``strategy``: ``hole`` at ``before``,
    from ``d`` proving it at the reduct."""
    after = root_step(before, cbv=STRATEGIES[strategy][0])
    return EffDerivation(
        "AntiRed",
        EffSequent(ctxs, hyps, subst(hole, PROG, 0, before)),
        (d,),
        hole_spec=hole,
        hole_type=hole_type,
        prog_before=before,
        prog_after=after,
        steps=1,
        strategy=strategy,
    )


def cut(ctxs, hyps, d, facts) -> EffDerivation:
    """The goal of ``d``, which assumes ``hyps`` and then the goals of
    ``facts``, from ``hyps`` alone: ImpI discharges each goal, ImpE
    applies the result to each fact in turn."""
    goals = tuple(f.conclusion.goal for f in facts)
    for i in reversed(range(len(goals))):
        d = imp_intro(ctxs, hyps + goals[:i], goals[i], d)
    for f in facts:
        d = imp_elim(d, f)
    return d
