"""Seeded random generators for logic objects and well-typed programs.

Used by the property-based parts of the test suite.  HOL terms and
propositions are generated sort-directed; programs are generated bottom-up
so they are well-typed by construction (applications are built as redexes,
which keeps the generator total and makes the output rich in beta-redexes
for subject-reduction testing).
"""

from __future__ import annotations

import random

from .hol import checker as hc
from .hol import syntax as h
from .effhol import syntax as e
from .effhol.typing import KindCtx, TypeCtx, shift_ctx, type_of


def random_sort(rng: random.Random, depth: int = 2) -> h.Sort:
    if depth <= 0 or rng.random() < 0.6:
        return h.STAR
    return h.Pred(random_sort(rng, depth - 1))


def random_hol_term(
    rng: random.Random, ctx: hc.SortContext, sort: h.Sort, size: int
) -> h.HolTerm:
    """A term of the requested sort, by construction."""
    candidates = [i for i, s in enumerate(reversed(ctx)) if s == sort]
    if size <= 0:
        if candidates:
            return h.Var(rng.choice(candidates))
        if isinstance(sort, h.Pred):
            return h.Compr(sort.inner, h.FALSUM)
        return h.ComprBase(h.FALSUM)
    if isinstance(sort, h.Pred):
        if candidates and rng.random() < 0.3:
            return h.Var(rng.choice(candidates))
        return h.Compr(sort.inner, random_hol_prop(rng, ctx + (sort.inner,), size - 1))
    if candidates and rng.random() < 0.5:
        return h.Var(rng.choice(candidates))
    return h.ComprBase(random_hol_prop(rng, ctx, size - 1))


def random_hol_prop(rng: random.Random, ctx: hc.SortContext, size: int) -> h.HolProp:
    if size <= 0:
        return h.MemBase(random_hol_term(rng, ctx, h.STAR, 0))
    pick = rng.random()
    if pick < 0.3:
        s = random_sort(rng)
        el = random_hol_term(rng, ctx, s, size - 1)
        st = random_hol_term(rng, ctx, h.Pred(s), size - 1)
        return h.Mem(el, st)
    if pick < 0.5:
        return h.MemBase(random_hol_term(rng, ctx, h.STAR, size - 1))
    if pick < 0.75:
        return h.Imp(
            random_hol_prop(rng, ctx, size - 1), random_hol_prop(rng, ctx, size - 1)
        )
    s = random_sort(rng)
    return h.Forall(s, random_hol_prop(rng, ctx + (s,), size - 1))


def random_kind(rng: random.Random, depth: int = 2) -> e.Kind:
    if depth <= 0 or rng.random() < 0.6:
        return e.KSTAR
    return e.KCon(random_kind(rng, depth - 1))


def random_type(rng: random.Random, kctx: KindCtx, kind: e.Kind, size: int) -> e.EffType:
    """A type of the requested kind, by construction."""
    candidates = [i for i, k in enumerate(reversed(kctx)) if k == kind]
    if size <= 0:
        if candidates:
            return e.TVar(rng.choice(candidates))
        if isinstance(kind, e.KCon):
            return e.TAbs(kind.inner, random_type(rng, kctx + (kind.inner,), e.KSTAR, 0))
        return e.TForall(e.KSTAR, e.TVar(0))
    if isinstance(kind, e.KCon):
        if candidates and rng.random() < 0.4:
            return e.TVar(rng.choice(candidates))
        return e.TAbs(kind.inner, random_type(rng, kctx + (kind.inner,), e.KSTAR, size - 1))
    pick = rng.random()
    if candidates and pick < 0.25:
        return e.TVar(rng.choice(candidates))
    if pick < 0.45:
        return e.Fun(
            random_type(rng, kctx, e.KSTAR, size - 1),
            random_type(rng, kctx, e.KSTAR, size - 1),
        )
    if pick < 0.6:
        k = random_kind(rng)
        return e.TForall(k, random_type(rng, kctx + (k,), e.KSTAR, size - 1))
    if pick < 0.75:
        return e.Comp(random_type(rng, kctx, e.KSTAR, size - 1))
    k = random_kind(rng, 1)
    fn = random_type(rng, kctx, e.KCon(k), size - 1)
    arg = random_type(rng, kctx, k, size - 1)
    return e.TApp(fn, arg)


def random_typed_program(
    rng: random.Random, kctx: KindCtx, tctx: TypeCtx, size: int
) -> e.EffProgram:
    """A well-typed program, built bottom-up.

    Applications are always redexes (the function part is a literal
    abstraction over the argument's computed type), so no inhabitation
    search is ever needed.
    """
    if size <= 0:
        if tctx and rng.random() < 0.8:
            return e.PVar(rng.randrange(len(tctx)))
        return e.TyAbs(e.KSTAR, e.Abs(e.TVar(0), e.PVar(0)))

    pick = rng.random()
    if tctx and pick < 0.15:
        return e.PVar(rng.randrange(len(tctx)))
    if pick < 0.3:
        dom = random_type(rng, kctx, e.KSTAR, 2)
        return e.Abs(dom, random_typed_program(rng, kctx, tctx + (dom,), size - 1))
    if pick < 0.4:
        k = random_kind(rng, 1)
        return e.TyAbs(
            k, random_typed_program(rng, kctx + (k,), shift_ctx(tctx), size - 1)
        )
    if pick < 0.55:
        return e.Ret(random_typed_program(rng, kctx, tctx, size - 1))
    if pick < 0.7:
        arg = random_typed_program(rng, kctx, tctx, size - 2)
        dom = type_of(kctx, tctx, arg)
        body = random_typed_program(rng, kctx, tctx + (dom,), size - 2)
        return e.App(e.Abs(dom, body), arg)
    if pick < 0.85:
        k = random_kind(rng, 1)
        body = random_typed_program(rng, kctx + (k,), shift_ctx(tctx), size - 2)
        return e.TyApp(e.TyAbs(k, body), random_type(rng, kctx, k, 1))
    inner = random_typed_program(rng, kctx, tctx, size - 2)
    mid = type_of(kctx, tctx, inner)
    rest = random_computation(rng, kctx, tctx + (mid,), size - 2)
    return e.Bind(mid, e.Ret(inner), rest)


def random_computation(
    rng: random.Random, kctx: KindCtx, tctx: TypeCtx, size: int
) -> e.EffProgram:
    """A program of computation type, by construction."""
    if size > 1 and rng.random() < 0.3:
        inner = random_typed_program(rng, kctx, tctx, size - 2)
        mid = type_of(kctx, tctx, inner)
        rest = random_computation(rng, kctx, tctx + (mid,), size - 2)
        return e.Bind(mid, e.Ret(inner), rest)
    return e.Ret(random_typed_program(rng, kctx, tctx, size - 1))


def random_closed_program(rng: random.Random, size: int = 5) -> tuple[e.EffProgram, e.EffType]:
    prog = random_typed_program(rng, (), (), size)
    return prog, type_of((), (), prog)


def random_spec(rng: random.Random, kctx: KindCtx, tctx: TypeCtx, size: int) -> e.EffSpec:
    """A well-formed specification (no expression variables), by construction."""
    if size <= 0:
        return e.BOT_SPEC if rng.random() < 0.5 else e.TOP_SPEC
    pick = rng.random()
    if tctx and pick < 0.3:
        i = rng.randrange(len(tctx))
        carrier = tctx[len(tctx) - 1 - i]
        body = random_spec(rng, kctx, tctx + (carrier,), size - 1)
        return e.SMemBase(e.PVar(i), e.ComprBase(carrier, body))
    if pick < 0.5:
        return e.SImp(
            random_spec(rng, kctx, tctx, size - 1),
            random_spec(rng, kctx, tctx, size - 1),
        )
    if pick < 0.65:
        ty = random_type(rng, kctx, e.KSTAR, 2)
        return e.SForallProg(ty, random_spec(rng, kctx, tctx + (ty,), size - 1))
    if pick < 0.8:
        p = random_typed_program(rng, kctx, tctx, size - 1)
        ty = type_of(kctx, tctx, p)
        return e.After(e.Ret(p), ty, random_spec(rng, kctx, tctx + (ty,), size - 1))
    ty = random_type(rng, kctx, e.KSTAR, 2)
    return e.SForallExpr(
        e.RefBase(ty),
        e.SForallProg(ty, e.SMemBase(e.PVar(0), e.EVar(0))),
    )
