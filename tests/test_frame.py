"""Erasure, untyped reduction, the lift operation, and the frame laws."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effreal.effhol import (
    Abs,
    Bind,
    BOT_TYPE,
    KSTAR,
    PVar,
    Ret,
    Strategy,
    TVar,
    TyAbs,
    TyApp,
    step,
)
from effreal.errors import CandidateRejected, FuelExhausted
from effreal.frame import (
    E_EVAL,
    E_FST,
    E_ID,
    E_SND,
    E_TOP,
    TOP_PROP,
    UApp,
    UBind,
    ULam,
    UPair,
    UProj1,
    UProj2,
    URet,
    UVar,
    compose,
    conj,
    ef_law_suite,
    erase,
    evidence_check,
    lift_member,
    make_prop,
    pair_evidence,
    ushift,
    univ_impl,
    untyped_normalize,
    untyped_step,
)
from effreal.generators import random_closed_program
from effreal.surface.elaborate import parse_document

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

V = ULam(URet(UVar(0)))
W = ULam(UVar(0))


def test_erase_rows():
    assert erase(TyAbs(KSTAR, Abs(TVar(0), PVar(0)))) == ULam(UVar(0))
    assert erase(Ret(PVar(3))) == URet(UVar(3))
    b = Bind(BOT_TYPE, Ret(PVar(0)), Ret(PVar(0)))
    assert erase(b) == UBind(URet(UVar(0)), URet(UVar(0)))
    assert erase(TyApp(TyAbs(KSTAR, PVar(1)), BOT_TYPE)) == UVar(1)


def test_untyped_steps():
    assert untyped_step(UProj1(UPair(V, W))) == V
    assert untyped_step(UProj2(UPair(V, W))) == W
    assert untyped_step(UBind(URet(V), URet(UVar(0)))) == URet(V)
    assert untyped_step(V) is None


# a closed cbv redex and its reduct, and one whose argument is the bound variable
REDEX = UApp(W, V)
OPEN_REDEX = UApp(W, UVar(0))


@pytest.mark.parametrize(
    "t, cbv, cbn",
    [
        # beta waits for a value argument under cbv alone
        (UApp(V, REDEX), UApp(V, V), URet(REDEX)),
        # holes of both: the head of an application
        (UApp(REDEX, UVar(3)), UApp(V, UVar(3)), UApp(V, UVar(3))),
        # under a lambda only call-by-name steps
        (ULam(OPEN_REDEX), None, ULam(UVar(0))),
        # holes of cbv alone: arguments, returns, a bind's first, pairs, projections
        (UApp(UVar(3), REDEX), UApp(UVar(3), V), None),
        (URet(REDEX), URet(V), None),
        (UBind(REDEX, URet(UVar(0))), UBind(V, URet(UVar(0))), None),
        (UPair(REDEX, REDEX), UPair(V, REDEX), None),
        (UPair(UApp(UVar(3), V), REDEX), UPair(UApp(UVar(3), V), V), None),
        (UProj1(UPair(REDEX, V)), UProj1(UPair(V, V)), None),
        (UProj2(UApp(W, UPair(V, W))), UProj2(UPair(V, W)), None),
        # a bind's rest is no hole of either
        (UBind(UVar(3), OPEN_REDEX), None, None),
    ],
)
def test_untyped_evaluation_contexts(t, cbv, cbn):
    assert untyped_step(t) == untyped_step(t, "cbv") == cbv
    assert untyped_step(t, "cbn") == cbn


@pytest.mark.parametrize("strategy", ["full", "CBN", "nonsense", None])
def test_untyped_step_rejects_unknown_strategies(strategy):
    t = UApp(UVar(5), UApp(W, W))
    assert untyped_step(t) == UApp(UVar(5), W)
    with pytest.raises(ValueError):
        untyped_step(t, strategy)


def _ubind_chain(k):
    """An untyped term that takes exactly ``k`` cbv steps, the last to
    ``URet(V)``: ``bind x <- ret V; bind x <- ret x; ... ret x``."""
    t = URet(UVar(0))
    for _ in range(k - 1):
        t = UBind(URet(UVar(0)), t)
    return UBind(URet(V), t)


def test_untyped_normalize_allows_exactly_its_fuel():
    """The typed calculus's fuel contract: fuel ``k`` reaches a normal form
    ``k`` steps away, fuel ``k - 1`` raises ``FuelExhausted`` with the
    typed message, and a negative fuel is a ``ValueError``."""
    k = 3
    t = _ubind_chain(k)
    assert untyped_normalize(t, k) == URet(V)
    with pytest.raises(FuelExhausted) as exc:
        untyped_normalize(t, k - 1)
    assert str(exc.value) == f"no normal form within {k - 1} steps under cbv"
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        untyped_normalize(t, -1)


def test_lift_membership():
    assert lift_member(URet(V), make_prop(V)) is True
    # anti-reduction closure: a redex that lands in the set
    assert lift_member(UApp(ULam(URet(UVar(0))), V), make_prop(V)) is True
    assert lift_member(URet(W), make_prop(V)) is False


def test_lift_monotone_under_subset():
    small = make_prop(V)
    big = make_prop(V, W)
    p = URet(V)
    assert lift_member(p, small) is True
    assert lift_member(p, big) is True


def test_lift_bind_membership():
    """bind through an intermediate comprehension set."""
    p1 = URet(V)
    rest = URet(UVar(0))
    # the intermediate set: values x1 with rest[x1] in lift {V}
    inter = make_prop(V)
    assert lift_member(p1, inter) is True
    assert lift_member(UBind(p1, rest), make_prop(V)) is True


def test_lift_fuel_unknown_is_none():
    omega_half = ULam(UApp(UVar(0), UVar(0)))
    omega = UApp(omega_half, omega_half)
    assert lift_member(omega, make_prop(V), fuel=50) is None


def test_evidence_check_identity_and_compose():
    phi = make_prop(V, W)
    assert evidence_check(phi, E_ID, phi) is True
    assert evidence_check(phi, compose(E_ID, E_ID), phi) is True
    wrong = ULam(URet(ushift(W, 1)))
    assert evidence_check(make_prop(V), wrong, make_prop(V)) is False


def test_conjunction_combinators():
    phi1, phi2 = make_prop(V), make_prop(W)
    both = conj(phi1, phi2)
    assert both == frozenset({UPair(V, W)})
    assert evidence_check(both, E_FST, phi1) is True
    assert evidence_check(both, E_SND, phi2) is True
    assert evidence_check(phi1, pair_evidence(E_ID, E_ID), conj(phi1, phi1)) is True


def test_top():
    assert evidence_check(make_prop(V), E_TOP, TOP_PROP) is True


def test_univ_impl_validation():
    phi2 = make_prop(V)
    good = ULam(URet(UVar(0)))
    impl = univ_impl(phi2, (phi2,), (good,))
    assert good in impl
    bad = ULam(URet(ushift(W, 1)))
    with pytest.raises(CandidateRejected):
        univ_impl(phi2, (phi2,), (bad,))


def test_eval_on_validated_member():
    phi2 = make_prop(V)
    impl = univ_impl(phi2, (phi2,), (ULam(URet(UVar(0))),))
    assert evidence_check(conj(impl, phi2), E_EVAL, phi2) is True


def test_ef_law_suite_passes():
    samples = (make_prop(V), make_prop(W), make_prop(V, W))
    report = ef_law_suite(samples)
    assert report.ok, report.clauses


def test_ef_law_suite_verdicts_per_fuel():
    """The suite's verdict on each clause of ``corpus/ef_samples.ef`` at
    fuel 0-12: T true, ? unknown (fuel ran out), F false."""
    clauses = ("reflexivity", "transitivity", "top", "conjunction", "universal-implication")
    rows = ["????F", "T?T?F", "T?T??", "T?T??", "TTT??", "TTTT?"] + ["TTTTT"] * 7
    verdict = {"T": True, "?": None, "F": False}
    samples = tuple(parse_document((CORPUS / "ef_samples.ef").read_text()).ef_props.values())
    for fuel, row in enumerate(rows):
        want = dict(zip(clauses, (verdict[c] for c in row)))
        assert ef_law_suite(samples, fuel).clauses == want, fuel


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_erasure_commutes_with_reduction(seed):
    """A typed base step erases to at most one untyped step.

    The unrestricted step is the right comparison: a typed value can be a
    type abstraction over a computation, whose erasure is a return and so
    no longer a value of the untyped grammar.
    """
    rng = random.Random(seed)
    p, _t = random_closed_program(rng, size=5)
    q = step(p, Strategy.BASE)
    if q is None:
        return
    ep, eq = erase(p), erase(q)
    if ep == eq:
        return
    assert untyped_step(ep, "cbn") == eq


def test_evidence_check_monotone_in_fuel():
    phi = make_prop(V)
    # once true, more fuel keeps it true
    for fuel in (10, 100, 1000):
        assert evidence_check(phi, E_ID, phi, fuel=fuel) is True
