"""Type erasure and the desk-scale evidenced frame.

Erasing all type structure lands in the untyped computational
lambda-calculus with pairs.  Propositions become finite sets of closed
values, evidence is any closed term, and the evidence relation runs each
member through the evidence and asks whether the computation lands in the
lifted target — decided by normalization, with fuel exhaustion reported
as unknown rather than false.
"""

from effreal.effhol import Abs, Bind, BOT_TYPE, Fun, PVar, Ret, TyAbs, KSTAR, TVar
from effreal.frame import (
    E_EVAL,
    E_FST,
    E_ID,
    UApp,
    ULam,
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
    univ_impl,
)
from effreal.surface import print_untyped

# Erasure drops type abstraction and application; return and bind survive.
poly_id = TyAbs(KSTAR, Abs(TVar(0), Ret(PVar(0))))
print("erased polymorphic identity:", print_untyped(erase(poly_id)))
chain = Bind(Fun(BOT_TYPE, BOT_TYPE), Ret(Abs(BOT_TYPE, PVar(0))), Ret(PVar(0)))
print("erased bind chain:          ", print_untyped(erase(chain)))
print()

v = ULam(URet(UVar(0)))
w = ULam(UVar(0))

# lift: computations guaranteed to deliver a value in the set.  A redex
# that reduces into the set is a member (closure under anti-reduction).
print("ret v in lift {v}:        ", lift_member(URet(v), make_prop(v)))
print("(\\x.ret x) v in lift {v}:", lift_member(UApp(E_ID, v), make_prop(v)))
print("ret w in lift {v}:        ", lift_member(URet(w), make_prop(v)))
print()

# The combinators are the displayed terms; the relation composes.
phi1, phi2 = make_prop(v), make_prop(w)
both = conj(phi1, phi2)
print("fst evidence:", evidence_check(both, E_FST, phi1))
print("composition: ", evidence_check(phi1, compose(E_ID, E_ID), phi1))
print("pairing:     ", evidence_check(phi1, pair_evidence(E_ID, E_ID), conj(phi1, phi1)))

# Universal implication at desk scale: candidate members are validated
# against the defining condition, then evaluation consumes them.
impl = univ_impl(phi2, (phi2,), (ULam(URet(UVar(0))),))
print("evaluation:  ", evidence_check(conj(impl, phi2), E_EVAL, phi2))
print()

# The five frame clauses on a family of samples.
report = ef_law_suite((phi1, phi2, make_prop(v, w)))
for clause, ok in report.clauses.items():
    print(f"{clause}: {'ok' if ok else 'FAIL'}")

# File-based equivalent:
#   effreal ef-check corpus/ef_samples.ef
