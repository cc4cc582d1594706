"""EffHOL kinding/typing, substitution properties, reduction, conversion."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from effreal._astnode import map_children
from effreal.effhol import (
    Abs,
    After,
    App,
    Bind,
    BOT_SPEC,
    BOT_TYPE,
    Comp,
    Compr,
    ComprBase,
    EApp,
    EForall,
    EVar,
    Fun,
    IForall,
    KSTAR,
    PVar,
    RefBase,
    Ret,
    SForallProg,
    SImp,
    SMem,
    SMemBase,
    Strategy,
    TAbs,
    TApp,
    TForall,
    TOP_SPEC,
    TVar,
    TyAbs,
    TyApp,
    EXPR,
    PROG,
    TYPE,
    count_steps,
    index_of,
    kind_of,
    multi_step,
    normalize,
    shift,
    spec_wf,
    step,
    subst,
    type_of,
)
from effreal.effhol.conversion import normalize_type
from effreal.effhol.reduction import root_step
from effreal.errors import (
    FuelExhausted,
    SpecIllFormed,
    TypeMismatch,
    UnboundTypeVariable,
)
from effreal.frame import UNTYPED, ULam, UApp, UVar, erase
from effreal.generators import (
    random_closed_program,
    random_hol_prop,
    random_sort,
    random_type,
    random_typed_program,
)
from effreal.translation import trspec
from tests.test_hol import check_bounds

POLY_ID_TYPE = TForall(KSTAR, Fun(TVar(0), Comp(TVar(0))))
POLY_ID = TyAbs(KSTAR, Abs(TVar(0), Ret(PVar(0))))


def test_kind_of_polymorphic_kleisli_identity():
    assert kind_of((), POLY_ID_TYPE) == KSTAR


def test_kind_of_application_shape():
    assert kind_of((KSTAR,), TApp(TAbs(KSTAR, TVar(0)), TVar(0))) == KSTAR


def test_kind_of_unbound():
    with pytest.raises(UnboundTypeVariable):
        kind_of((), TApp(TVar(0), TVar(1)))


def test_type_of_polymorphic_kleisli_identity():
    assert type_of((), (), POLY_ID) == POLY_ID_TYPE


def test_type_of_bind_of_ret():
    v = Abs(BOT_TYPE, PVar(0))
    tv = type_of((), (), v)
    p = Bind(tv, Ret(v), Ret(PVar(0)))
    assert type_of((), (), p) == Comp(tv)


def test_type_of_conversion_absorbed():
    # annotation with a type-level redex: (\X.X) bot  ==  bot
    redex = TApp(TAbs(KSTAR, TVar(0)), BOT_TYPE)
    p = Abs(redex, PVar(0))
    assert type_of((), (), p) == Fun(BOT_TYPE, BOT_TYPE)


def test_type_mismatch():
    f = Abs(BOT_TYPE, PVar(0))
    with pytest.raises(TypeMismatch):
        type_of((), (), App(f, f))


def test_index_of_base_comprehension():
    tau = BOT_TYPE
    e = ComprBase(tau, TOP_SPEC)
    assert index_of((), (), (), e) == RefBase(tau)


def test_index_of_forall():
    e = EForall(KSTAR, ComprBase(TVar(0), BOT_SPEC))
    assert index_of((), (), (), e) == IForall(KSTAR, RefBase(TVar(0)))


def test_index_of_eapp_mismatch():
    e = ComprBase(BOT_TYPE, TOP_SPEC)
    from effreal.errors import IndexMismatch

    with pytest.raises(IndexMismatch):
        index_of((), (), (), EApp(e, BOT_TYPE))


def test_spec_wf_after():
    v = Abs(BOT_TYPE, PVar(0))
    tv = type_of((), (), v)
    spec_wf((), (), (), After(Ret(v), tv, TOP_SPEC))


def test_normalization_preservation_example():
    """The higher-order 'the identity preserves normalization' statement."""
    tau = BOT_TYPE
    # x terminates: (after x of y, falsity) implies falsity
    diverges = After(PVar(0), tau, BOT_SPEC)
    norm_body = SImp(diverges, BOT_SPEC)
    norm = ComprBase(Comp(tau), norm_body)
    # pres: functions sending members of e to members of e
    pres_body = SForallProg(
        Comp(tau),
        SImp(
            SMemBase(PVar(0), EVar(0)),
            SMemBase(App(PVar(1), PVar(0)), EVar(0)),
        ),
    )
    pres = Compr(Fun(Comp(tau), Comp(tau)), RefBase(Comp(tau)), pres_body)
    ident = Abs(Comp(tau), PVar(0))
    spec = SMem(ident, pres, norm)
    spec_wf((), (), (), spec)


def test_spec_wf_mismatch():
    v = Abs(BOT_TYPE, PVar(0))
    with pytest.raises(SpecIllFormed):
        spec_wf((), (), (), SMemBase(v, ComprBase(BOT_TYPE, TOP_SPEC)))


def test_step_bind_ret():
    v = Abs(BOT_TYPE, PVar(0))
    tv = type_of((), (), v)
    p = Bind(tv, Ret(v), Ret(PVar(0)))
    assert step(p) == Ret(v)


def test_step_beta_value():
    ident = Abs(BOT_TYPE, PVar(0))
    other = Abs(Fun(BOT_TYPE, BOT_TYPE), PVar(0))
    assert step(App(ident, other)) == other


def test_step_cbv_blocks_non_value():
    ident = Abs(BOT_TYPE, PVar(0))
    arg = App(ident, ident)  # not a value
    assert step(App(ident, arg), Strategy.BASE) is None
    # call-by-name fires
    assert step(App(ident, arg), Strategy.CBN) == arg
    with pytest.raises(ValueError):
        step(App(ident, arg), "cbv")


def test_multi_step_chain_and_fuel():
    ident = Abs(BOT_TYPE, PVar(0))
    k = Abs(BOT_TYPE, Abs(BOT_TYPE, PVar(1)))
    p = App(App(k, ident), ident)
    # base strategy: inner redex first is at the root spine only under CBN
    result, steps = multi_step(p, Strategy.CBN, fuel=10)
    assert result == ident and steps == 2
    v = Abs(BOT_TYPE, PVar(0))
    done, steps = multi_step(v, Strategy.BASE, fuel=0)
    assert done == v and steps == 0
    with pytest.raises(FuelExhausted):
        multi_step(p, Strategy.CBN, fuel=1)


def test_multi_step_takes_a_strategy_name():
    """A strategy given by name runs as its ``Strategy``: out of fuel it
    raises ``FuelExhausted`` with the member's message, and an unknown name
    is a ``ValueError``, as for ``step``."""
    ident = Abs(BOT_TYPE, PVar(0))
    p = App(App(Abs(BOT_TYPE, Abs(BOT_TYPE, PVar(1))), ident), ident)
    messages = []
    for strategy in ("cbn", Strategy.CBN):
        with pytest.raises(FuelExhausted) as exc:
            multi_step(p, strategy, 1)
        messages.append(str(exc.value))
    assert messages == ["no normal form within 1 steps under cbn"] * 2
    assert multi_step(p, "cbn", 10) == (ident, 2)
    with pytest.raises(ValueError, match="unknown strategy 'cbv'"):
        multi_step(p, "cbv", 1)


def _bind_chain(k):
    """A program that takes exactly ``k`` base steps, the last to ``Ret(IDENT)``:
    ``bind x <- ret IDENT; bind x <- ret x; ... ret x``."""
    p = Ret(PVar(0))
    for _ in range(k - 1):
        p = Bind(BOT_TYPE, Ret(PVar(0)), p)
    return Bind(BOT_TYPE, Ret(Abs(BOT_TYPE, PVar(0))), p)


def test_multi_step_allows_exactly_its_fuel():
    """The one fuel contract: fuel ``k`` reaches a normal form ``k`` steps
    away, fuel ``k - 1`` raises ``FuelExhausted`` and a negative fuel is a
    ``ValueError``."""
    k, nf = 3, Ret(Abs(BOT_TYPE, PVar(0)))
    p = _bind_chain(k)
    assert multi_step(p, Strategy.BASE, k) == (nf, k)
    with pytest.raises(FuelExhausted) as exc:
        multi_step(p, Strategy.BASE, k - 1)
    assert str(exc.value) == f"no normal form within {k - 1} steps under base"
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        multi_step(p, Strategy.BASE, -1)


def test_count_steps_bound_is_exact():
    """``count_steps`` answers the first ``n <= max_steps`` at which the
    term is the target; past the bound, at a normal form that is not the
    target, or under a negative bound, it answers None."""
    k, nf = 3, Ret(Abs(BOT_TYPE, PVar(0)))
    p = _bind_chain(k)
    assert count_steps(p, nf, Strategy.BASE, k) == k
    assert count_steps(p, nf, Strategy.BASE, k + 5) == k
    assert count_steps(p, nf, Strategy.BASE, k - 1) is None
    assert count_steps(p, nf, Strategy.BASE, -1) is None
    assert count_steps(p, p, Strategy.BASE, 0) == 0
    assert count_steps(p, p, Strategy.BASE, -1) is None
    assert count_steps(p, step(p), Strategy.BASE, 1) == 1
    # the normal form comes first and is not the target
    assert count_steps(p, Ret(PVar(7)), Strategy.BASE, k + 5) is None


# a closed redex and its reduct, and one whose argument is the bound variable
IDENT = Abs(BOT_TYPE, PVar(0))
REDEX = App(IDENT, IDENT)
OPEN_REDEX = App(IDENT, PVar(0))


@pytest.mark.parametrize(
    "p, cbn, full",
    [
        # beta fires on a non-value argument under both
        (App(Abs(BOT_TYPE, Ret(PVar(0))), REDEX), Ret(REDEX), Ret(REDEX)),
        # holes of both: the head of an application and the body of a lambda
        (App(REDEX, PVar(3)), App(IDENT, PVar(3)), App(IDENT, PVar(3))),
        (TyApp(REDEX, BOT_TYPE), TyApp(IDENT, BOT_TYPE), TyApp(IDENT, BOT_TYPE)),
        (Abs(BOT_TYPE, OPEN_REDEX), Abs(BOT_TYPE, PVar(0)), Abs(BOT_TYPE, PVar(0))),
        # holes of FULL alone: returns, arguments, binds and type abstractions
        (Ret(REDEX), None, Ret(IDENT)),
        (App(PVar(3), REDEX), None, App(PVar(3), IDENT)),
        (Bind(BOT_TYPE, REDEX, Ret(PVar(0))), None, Bind(BOT_TYPE, IDENT, Ret(PVar(0)))),
        (Bind(BOT_TYPE, PVar(3), OPEN_REDEX), None, Bind(BOT_TYPE, PVar(3), PVar(0))),
        (TyAbs(KSTAR, REDEX), None, TyAbs(KSTAR, IDENT)),
        # leftmost first: the argument, and a bind's rest, wait for a normal head
        (App(REDEX, REDEX), App(IDENT, REDEX), App(IDENT, REDEX)),
        (App(App(PVar(3), REDEX), REDEX), None, App(App(PVar(3), IDENT), REDEX)),
        (Bind(BOT_TYPE, REDEX, OPEN_REDEX), None, Bind(BOT_TYPE, IDENT, OPEN_REDEX)),
    ],
)
def test_evaluation_contexts(p, cbn, full):
    """Each strategy steps in its own holes and nowhere else; BASE only at
    the root."""
    assert step(p, Strategy.CBN) == cbn
    assert step(p, Strategy.FULL) == full
    assert step(p, Strategy.BASE) is None


def _subterms(x):
    stack = [x]
    while stack:
        x = stack.pop()
        yield x
        map_children(x, lambda c, _under: stack.append(c) or c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_full_normal_forms_have_no_redex(seed):
    """FULL searches every position: its normal form has no subterm on
    which an axiom fires."""
    p, _t = random_closed_program(random.Random(seed), size=8)
    n, _steps = multi_step(p, Strategy.FULL, 10_000)
    assert all(root_step(x, cbv=False) is None for x in _subterms(n))


def test_conv_normalize_axioms():
    tau = Fun(BOT_TYPE, BOT_TYPE)
    assert normalize(TApp(TAbs(KSTAR, TVar(0)), tau)) == tau
    e = EForall(KSTAR, ComprBase(TVar(0), BOT_SPEC))
    assert normalize(EApp(e, tau)) == ComprBase(tau, BOT_SPEC)
    assert normalize(tau) == tau


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_conv_normalize_idempotent(seed):
    rng = random.Random(seed)
    t = random_type(rng, (), KSTAR, 4)
    n = normalize(t)
    assert normalize(n) == n


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_convertibility_congruence(seed):
    rng = random.Random(seed)
    t = random_type(rng, (KSTAR,), KSTAR, 3)
    redex = TApp(TAbs(KSTAR, shift(t, TYPE, 1, 1)), TVar(0))
    assert normalize(redex) is normalize(t)
    assert normalize(Comp(redex)) is normalize(Comp(t))
    assert normalize(t) is normalize(t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_type_substitution_composition(seed):
    """subst commutes with itself: t[0:=a][0:=b] == t[1:=b][0:=a[0:=b]]."""
    rng = random.Random(seed)
    kctx = (KSTAR, KSTAR)
    t = random_type(rng, kctx, KSTAR, 3)
    a = random_type(rng, kctx[:-1], KSTAR, 2)
    b = random_type(rng, (), KSTAR, 2)
    lhs = subst(subst(t, TYPE, 0, a), TYPE, 0, b)
    rhs = subst(subst(t, TYPE, 1, shift(b, TYPE, 0)), TYPE, 0, subst(a, TYPE, 0, b))
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([TYPE, PROG, EXPR, UNTYPED]))
def test_prog_subst_roundtrip(seed, ns):
    """In every namespace of the program logic and of the untyped calculus,
    shifting then substituting the new variable 0 away is the identity, and
    the cached loose-variable bounds match a recount."""
    rng = random.Random(seed)
    p = random_typed_program(rng, (KSTAR,), (BOT_TYPE, TVar(0)), 3)
    if ns is UNTYPED:
        x = erase(p)
    else:
        sctx = (random_sort(rng), random_sort(rng))
        x = After(p, TVar(0), trspec(sctx, random_hol_prop(rng, sctx, 3)))
    var_cls, sub = {
        TYPE: (TVar, TApp(TVar(1), TVar(2))),
        PROG: (PVar, App(Abs(BOT_TYPE, PVar(0)), PVar(2))),
        EXPR: (EVar, EApp(EVar(2), TVar(1))),
        UNTYPED: (UVar, ULam(UApp(UVar(0), UVar(2)))),
    }[ns]
    lifted = shift(x, ns)
    assert subst(lifted, ns, 0, sub) == x
    for y in (x, lifted):
        check_bounds(y, ns, var_cls)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_subject_reduction_base(seed):
    rng = random.Random(seed)
    p, t = random_closed_program(rng, size=5)
    q = step(p, Strategy.BASE)
    if q is not None:
        assert type_of((), (), q) == normalize_type(t)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_subject_reduction_full(seed):
    rng = random.Random(seed)
    p, t = random_closed_program(rng, size=5)
    q = step(p, Strategy.FULL)
    if q is not None:
        assert type_of((), (), q) == normalize_type(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_context_weakening_typing(seed):
    """Typing is stable under inserting a fresh outermost entry."""
    rng = random.Random(seed)
    p, t = random_closed_program(rng, size=4)
    assert type_of((KSTAR,), (TVar(0),), p) == normalize_type(t)
