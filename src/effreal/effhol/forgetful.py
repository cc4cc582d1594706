"""Erasure of all program, type and kind structure, back into the logic.

Indices become sorts, expressions become terms, specifications become
propositions; the modality and the program/type quantifiers vanish.
Expression variables map to term variables at the same position, so the
translated index context is the sort context.

Derivations translate rule by rule: nodes whose conclusion loses its
structure (program/type quantifiers, modality rules, conversion,
anti-reduction) collapse onto their translated premise; Mon becomes a cut,
encoded as ImpI followed by ImpE.

Each ``forget_derivation`` call keeps one table from an index, expression
or specification to its erasure, shared by every sequent of the
derivation, so a hypothesis is erased once however many nodes carry it.
The node alone is an exact key: the erasure reads no context, and nodes
are hash-consed.  The three maps share the table because indices,
expressions and specifications are distinct node classes.
"""

from __future__ import annotations

from ..errors import RuleMismatch
from ..hol import checker as hol_checker
from ..hol import syntax as hol
from ..walk import walk
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


def forget_index(s: EffIndex, memo: dict | None = None) -> hol.Sort:
    if memo is None:
        memo = {}
    out = memo.get(s)
    if out is None:
        match s:
            case RefBase(_):
                out = hol.STAR
            case Ref(_, arg):
                out = hol.Pred(forget_index(arg, memo))
            case IForall(_, body):
                out = forget_index(body, memo)
            case _:
                raise TypeError(f"unexpected index {s!r}")
        memo[s] = out
    return out


def forget_expr(e: EffExpr, memo: dict | None = None) -> hol.HolTerm:
    if memo is None:
        memo = {}
    out = memo.get(e)
    if out is None:
        match e:
            case EVar(k):
                out = hol.Var(k)
            case Compr(_, idx, body):
                out = hol.Compr(forget_index(idx, memo), forget_spec(body, memo))
            case ComprBase(_, body):
                out = hol.ComprBase(forget_spec(body, memo))
            case EForall(_, body):
                out = forget_expr(body, memo)
            case EApp(fn, _):
                out = forget_expr(fn, memo)
            case _:
                raise TypeError(f"unexpected expression {e!r}")
        memo[e] = out
    return out


def forget_spec(f: EffSpec, memo: dict | None = None) -> hol.HolProp:
    if memo is None:
        memo = {}
    out = memo.get(f)
    if out is None:
        match f:
            case SMem(_, fn, arg):
                # element = the expression argument, set = the refining
                # expression; this is the orientation accepted by the logic's
                # membership typing (see README for the appendix discrepancy).
                out = hol.Mem(forget_expr(arg, memo), forget_expr(fn, memo))
            case SMemBase(_, fn):
                out = hol.MemBase(forget_expr(fn, memo))
            case SImp(a, b):
                out = hol.Imp(forget_spec(a, memo), forget_spec(b, memo))
            case After(_, _, body):
                out = forget_spec(body, memo)
            case SForallType(_, body):
                out = forget_spec(body, memo)
            case SForallProg(_, body):
                out = forget_spec(body, memo)
            case SForallExpr(idx, body):
                out = hol.Forall(forget_index(idx, memo), forget_spec(body, memo))
            case _:
                raise TypeError(f"unexpected specification {f!r}")
        memo[f] = out
    return out


def forget_sequent(seq: EffSequent, memo: dict | None = None) -> hol_checker.Sequent:
    if memo is None:
        memo = {}
    ctx = tuple(forget_index(s, memo) for s in seq.ctxs.indices)
    return hol_checker.Sequent(
        ctx, tuple(forget_spec(h, memo) for h in seq.hyps), forget_spec(seq.goal, memo)
    )


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
                witness=forget_expr(d.witness, memo) if d.rule == "UniExpE" else None,
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
