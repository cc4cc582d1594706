"""Erasure of all program, type and kind structure, back into the logic.

Indices become sorts, expressions become terms, specifications become
propositions; the modality and the program/type quantifiers vanish.
Expression variables map to term variables at the same position, so the
translated index context is the sort context.

Each erasure is a class table read by one map, ``erase_by``: a node
class rebuilds as a target class from the erasures of some fields, in
order, or collapses onto the erasure of one field, or, if a variable,
keeps its index.  ``_FORGET`` is ``forget``'s table; ``frame._ERASE``,
the type erasure of programs, is the other.

Derivations translate rule by rule: nodes whose conclusion loses its
structure (program/type quantifiers, modality rules, conversion,
anti-reduction) collapse onto their translated premise; Mon becomes a cut,
encoded as ImpI followed by ImpE.

Each top-level call keeps one memo table from a node to its erasure;
``forget_derivation`` shares one across every sequent of the
derivation, so a hypothesis is erased once however many nodes carry it.
The node alone is an exact key: the erasure reads no context, and nodes
are hash-consed.  One table serves indices, expressions and
specifications because they are distinct node classes.
"""

from __future__ import annotations

from ..errors import RuleMismatch
from ..hol import checker as hol_checker
from ..hol import syntax as hol
from ..walk import walk
from . import syntax as e
from .theory import EffDerivation, EffSequent

# Each class: its target class (None to collapse onto the one field) and
# the fields whose erasures are the target's arguments; a variable keeps
# its index.
_FORGET = {
    e.RefBase: (hol.Base, ()),
    e.Ref: (hol.Pred, ("arg",)),
    e.IForall: (None, ("body",)),
    e.EVar: (hol.Var, ("index",)),
    e.Compr: (hol.Compr, ("binder_index", "body")),
    e.ComprBase: (hol.ComprBase, ("body",)),
    e.EForall: (None, ("body",)),
    e.EApp: (None, ("fn",)),
    # element = the expression argument, set = the refining expression; this
    # is the orientation accepted by the logic's membership typing (see
    # README for the appendix discrepancy).
    e.SMem: (hol.Mem, ("arg", "fn")),
    e.SMemBase: (hol.MemBase, ("fn",)),
    e.SImp: (hol.Imp, ("lhs", "rhs")),
    e.After: (None, ("body",)),
    e.SForallType: (None, ("body",)),
    e.SForallProg: (None, ("body",)),
    e.SForallExpr: (hol.Forall, ("binder_index", "body")),
}


def erase_by(table: dict, x, memo: dict):
    """The erasure of ``x`` by the class table ``table``, kept in ``memo``.
    It takes one stack frame per level: the arguments are built in a loop."""
    out = memo.get(x)
    if out is None:
        target, fields = table[type(x)]
        if target is None:
            out = erase_by(table, getattr(x, fields[0]), memo)
        elif x._var is not None:
            out = target(x.index)
        else:
            args = []
            for f in fields:
                args.append(erase_by(table, getattr(x, f), memo))
            out = target(*args)
        memo[x] = out
    return out


def forget(x: e.EffIndex | e.EffExpr | e.EffSpec, memo: dict | None = None):
    """The sort, term or proposition of the logic that the index,
    expression or specification ``x`` erases to."""
    return erase_by(_FORGET, x, {} if memo is None else memo)


def forget_sequent(seq: EffSequent, memo: dict | None = None) -> hol_checker.Sequent:
    memo = {} if memo is None else memo
    ctx = tuple(forget(s, memo) for s in seq.ctxs.indices)
    hyps = tuple(forget(h, memo) for h in seq.hyps)
    return hol_checker.Sequent(ctx, hyps, forget(seq.goal, memo))


# The expression quantifier's rules become the logic's quantifier rules;
# the other propositional and membership rules keep their names.
_RENAMED = {"UniExpI": "UniI", "UniExpE": "UniE"}


def forget_derivation(d: EffDerivation) -> hol_checker.HolDerivation:
    return walk(_forget_derivation, d, {})


def _forget_derivation(d: EffDerivation, memo: dict):
    match d.rule:
        case "Id" | "ImpI" | "ImpE" | "UniExpI" | "UniExpE" | "MemI" | "MemE" | "Mem0I" | "Mem0E":
            premises = []
            for p in d.premises:
                premises.append((yield p, memo))
            return hol_checker.HolDerivation(
                _RENAMED.get(d.rule, d.rule),
                forget_sequent(d.conclusion, memo),
                tuple(premises),
                witness=forget(d.witness, memo) if d.rule == "UniExpE" else None,
            )
        case "UniProgI" | "UniProgE" | "UniTypeI" | "UniTypeE" | "ModI" | "ModE" | "Conv" | "AntiRed":
            # The conclusion's extra structure vanishes; reuse the premise.
            return (yield d.premises[0], memo)
        case "Mon":
            # after-p bodies lose the modality, so Mon is a cut:
            # from (Phi, phi1 => phi2) and (Phi => phi1) conclude (Phi => phi2).
            ent, mod = d.premises
            seq = forget_sequent(d.conclusion, memo)
            dent = yield ent, memo
            dmod = yield mod, memo
            phi1 = dmod.conclusion.goal
            imp = hol_checker.HolDerivation(
                "ImpI",
                hol_checker.Sequent(seq.ctx, seq.hyps, hol.Imp(phi1, seq.goal)),
                (dent,),
            )
            return hol_checker.HolDerivation("ImpE", seq, (imp, dmod))
    raise RuleMismatch(f"unknown rule {d.rule!r} in forgetful translation")
