"""Erasure of all program, type and kind structure, back into the logic.

Indices become sorts, expressions become terms, specifications become
propositions; the modality and the program/type quantifiers vanish.
Expression variables map to term variables at the same position, so the
translated index context is the sort context.

Derivations translate rule by rule: nodes whose conclusion loses its
structure (program/type quantifiers, modality rules, conversion,
anti-reduction) collapse onto their translated premise; Mon becomes a cut,
encoded as ImpI followed by ImpE.
"""

from __future__ import annotations

from ..errors import RuleMismatch
from ..hol import checker as hol_checker
from ..hol import syntax as hol
from .syntax import (
    After,
    Compr,
    ComprBase,
    EApp,
    EffExpr,
    EffIndex,
    EffSpec,
    EForall,
    EVar,
    IForall,
    Ref,
    RefBase,
    SForallExpr,
    SForallProg,
    SForallType,
    SImp,
    SMem,
    SMemBase,
)
from .theory import EffDerivation, EffSequent


def forget_index(s: EffIndex) -> hol.Sort:
    match s:
        case RefBase(_):
            return hol.STAR
        case Ref(_, arg):
            return hol.Pred(forget_index(arg))
        case IForall(_, body):
            return forget_index(body)
    raise TypeError(f"unexpected index {s!r}")


def forget_expr(e: EffExpr) -> hol.HolTerm:
    match e:
        case EVar(k):
            return hol.Var(k)
        case Compr(_, idx, body):
            return hol.Compr(forget_index(idx), forget_spec(body))
        case ComprBase(_, body):
            return hol.ComprBase(forget_spec(body))
        case EForall(_, body):
            return forget_expr(body)
        case EApp(fn, _):
            return forget_expr(fn)
    raise TypeError(f"unexpected expression {e!r}")


def forget_spec(f: EffSpec) -> hol.HolProp:
    match f:
        case SMem(_, fn, arg):
            # element = the expression argument, set = the refining
            # expression; this is the orientation accepted by the logic's
            # membership typing (see README for the appendix discrepancy).
            return hol.Mem(forget_expr(arg), forget_expr(fn))
        case SMemBase(_, fn):
            return hol.MemBase(forget_expr(fn))
        case SImp(a, b):
            return hol.Imp(forget_spec(a), forget_spec(b))
        case After(_, _, body):
            return forget_spec(body)
        case SForallType(_, body):
            return forget_spec(body)
        case SForallProg(_, body):
            return forget_spec(body)
        case SForallExpr(idx, body):
            return hol.Forall(forget_index(idx), forget_spec(body))
    raise TypeError(f"unexpected specification {f!r}")


def forget_sequent(seq: EffSequent) -> hol_checker.Sequent:
    ctx = tuple(forget_index(s) for s in seq.ctxs.indices)
    return hol_checker.Sequent(
        ctx, tuple(forget_spec(h) for h in seq.hyps), forget_spec(seq.goal)
    )


# The expression quantifier's rules become the logic's quantifier rules;
# the other propositional and membership rules keep their names.
_RENAMED = {"UniExpI": "UniI", "UniExpE": "UniE"}


def forget_derivation(d: EffDerivation) -> hol_checker.HolDerivation:
    match d.rule:
        case "Id" | "ImpI" | "ImpE" | "UniExpI" | "UniExpE" | "MemI" | "MemE" | "Mem0I" | "Mem0E":
            return hol_checker.HolDerivation(
                _RENAMED.get(d.rule, d.rule),
                forget_sequent(d.conclusion),
                tuple(forget_derivation(p) for p in d.premises),
                witness=forget_expr(d.witness_expr) if d.rule == "UniExpE" else None,
            )
        case "UniProgI" | "UniProgE" | "UniTypeI" | "UniTypeE" | "ModI" | "ModE" | "Conv" | "AntiRed":
            # The conclusion's extra structure vanishes; reuse the premise.
            return forget_derivation(d.premises[0])
        case "Mon":
            # after-p bodies lose the modality, so Mon is a cut:
            # from (Phi, phi1 => phi2) and (Phi => phi1) conclude (Phi => phi2).
            ent, mod = d.premises
            seq = forget_sequent(d.conclusion)
            dent = forget_derivation(ent)
            dmod = forget_derivation(mod)
            phi1 = dmod.conclusion.goal
            imp = hol_checker.HolDerivation(
                "ImpI",
                hol_checker.Sequent(seq.ctx, seq.hyps, hol.Imp(phi1, seq.goal)),
                (dent,),
            )
            return hol_checker.HolDerivation("ImpE", seq, (imp, dmod))
    raise RuleMismatch(f"unknown rule {d.rule!r} in forgetful translation")
