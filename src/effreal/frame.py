"""Type erasure and the finite-carrier evidenced frame.

Erasure is the class table ``_ERASE``, read by the forgetful erasure's
map, ``effhol.forgetful.erase_by``.  Erased programs live in the untyped
computational lambda-calculus extended with pairs.  It reduces by the
axioms of ``_uroot`` in the evaluation contexts of ``UNTYPED_STRATEGIES``,
searched from an explicit stack by ``effhol.reduction.contextual_step``,
and ``untyped_normalize`` runs it in the typed calculus's one loop,
``effhol.reduction.run``, with the same fuel contract: exactly ``fuel``
steps, a negative fuel a ``ValueError``, and ``FuelExhausted`` past it.
Under 'cbv', the identity instance's executable semantics, the holes are
both sides of an application (left to right), a return, both parts of a
pair, a projection and the bound computation of a bind, but never a
lambda's body or a bind's rest.  'cbn' mirrors the erased call-by-name
contexts: the head of an application and the body of a lambda.

Propositions at desk scale are explicit finite sets of closed values;
evidence is any closed untyped term; the evidence relation runs every
member of the source proposition through the evidence and decides
membership in the lifted target via normalization under the identity
instance's executable semantics.

Fuel exhaustion is a third truth value: it is reported as ``None`` and
never conflated with refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._astnode import Term, astnode, namespaces, shift, subst
from .errors import CandidateRejected, FuelExhausted
from .effhol import syntax as e
from .effhol.forgetful import erase_by
from .effhol.reduction import DEFAULT_FUEL, contextual_step, run


(UNTYPED,) = namespaces("untyped")


class UntypedTerm(Term):
    """A term of the untyped erasure target."""


@astnode(var=UNTYPED)
class UVar(UntypedTerm):
    index: int


@astnode(binds={"body": (UNTYPED,)})
class ULam(UntypedTerm):
    body: UntypedTerm


@astnode
class UApp(UntypedTerm):
    fn: UntypedTerm
    arg: UntypedTerm


@astnode
class URet(UntypedTerm):
    inner: UntypedTerm


@astnode(binds={"rest": (UNTYPED,)})
class UBind(UntypedTerm):
    """bind x <- first; rest — binds one variable in rest."""

    first: UntypedTerm
    rest: UntypedTerm


@astnode
class UPair(UntypedTerm):
    fst: UntypedTerm
    snd: UntypedTerm


@astnode
class UProj1(UntypedTerm):
    pair: UntypedTerm


@astnode
class UProj2(UntypedTerm):
    pair: UntypedTerm


def is_uvalue(t: UntypedTerm) -> bool:
    match t:
        case UVar(_) | ULam(_):
            return True
        case UPair(a, b):
            return is_uvalue(a) and is_uvalue(b)
    return False


# As ``effhol.forgetful._FORGET``.
_ERASE = {
    e.PVar: (UVar, ("index",)),
    e.Abs: (ULam, ("body",)),
    e.App: (UApp, ("fn", "arg")),
    e.TyAbs: (None, ("body",)),
    e.TyApp: (None, ("fn",)),
    e.Ret: (URet, ("inner",)),
    e.Bind: (UBind, ("first", "rest")),
}


def erase(p: e.EffProgram) -> UntypedTerm:
    """Drop all type structure; returns and binds survive."""
    return erase_by(_ERASE, p, {})


def ushift(t: UntypedTerm, by: int, cutoff: int = 0) -> UntypedTerm:
    return shift(t, UNTYPED, by, cutoff)


def _uroot(t: UntypedTerm, cbv: bool) -> UntypedTerm | None:
    match t:
        case UBind(URet(inner), rest):
            return subst(rest, UNTYPED, 0, inner)
        case UApp(ULam(body), arg):
            if not cbv or is_uvalue(arg):
                return subst(body, UNTYPED, 0, arg)
            return None
        case UProj1(UPair(a, b)):
            if is_uvalue(a) and is_uvalue(b):
                return a
            return None
        case UProj2(UPair(a, b)):
            if is_uvalue(a) and is_uvalue(b):
                return b
            return None
    return None


# As ``effhol.reduction.STRATEGIES``: whether beta is call-by-value, and the holes.
UNTYPED_STRATEGIES = {
    "cbv": (
        True,
        {
            UApp: ("fn", "arg"),
            URet: ("inner",),
            UBind: ("first",),
            UPair: ("fst", "snd"),
            UProj1: ("pair",),
            UProj2: ("pair",),
        },
    ),
    "cbn": (False, {UApp: ("fn",), ULam: ("body",)}),
}


def untyped_step(t: UntypedTerm, strategy: str = "cbv") -> UntypedTerm | None:
    """One deterministic step under ``strategy`` ('cbv' or 'cbn')."""
    return contextual_step(t, _uroot, UNTYPED_STRATEGIES, strategy)


def untyped_normalize(t: UntypedTerm, fuel: int = DEFAULT_FUEL) -> UntypedTerm:
    """The cbv normal form of ``t``, reached within ``fuel`` steps (see
    ``effhol.reduction.run``)."""
    return run(t, _uroot, UNTYPED_STRATEGIES, "cbv", fuel)[0]


EfProposition = frozenset  # of closed UntypedTerm values
EfEvidence = UntypedTerm


def make_prop(*values: UntypedTerm) -> EfProposition:
    for v in values:
        if not is_uvalue(v):
            raise CandidateRejected(f"proposition member is not a value: {v!r}")
    return frozenset(values)


def lift_member(p: UntypedTerm, prop: EfProposition, fuel: int = DEFAULT_FUEL) -> bool | None:
    """Does the computation ``p`` deliver a value in ``prop``?

    Decided by normalization under the identity instance; ``None`` means
    fuel ran out (unknown).
    """
    try:
        n = untyped_normalize(p, fuel)
    except FuelExhausted:
        return None
    return isinstance(n, URet) and is_uvalue(n.inner) and n.inner in prop


def evidence_check(
    phi1: EfProposition, ev: EfEvidence, phi2: EfProposition, fuel: int = DEFAULT_FUEL
) -> bool | None:
    """phi1 -->ev phi2: every member, fed to the evidence, lands in lift phi2."""
    unknown = False
    for member in phi1:
        r = lift_member(UApp(ev, member), phi2, fuel=fuel)
        if r is False:
            return False
        if r is None:
            unknown = True
    return None if unknown else True


# The combinators of the evidenced-frame construction, verbatim.

E_ID = ULam(URet(UVar(0)))


def compose(e1: EfEvidence, e2: EfEvidence) -> EfEvidence:
    return ULam(UBind(UApp(ushift(e1, 1), UVar(0)), UApp(ushift(e2, 2), UVar(0))))


TOP_VALUE = ULam(URet(UVar(0)))
TOP_PROP = frozenset({TOP_VALUE})
E_TOP = ULam(URet(ushift(TOP_VALUE, 1)))

E_FST = ULam(URet(UProj1(UVar(0))))
E_SND = ULam(URet(UProj2(UVar(0))))


def pair_evidence(e1: EfEvidence, e2: EfEvidence) -> EfEvidence:
    return ULam(
        UBind(
            UApp(ushift(e1, 1), UVar(0)),
            UBind(UApp(ushift(e2, 2), UVar(1)), URet(UPair(UVar(1), UVar(0)))),
        )
    )


def conj(phi1: EfProposition, phi2: EfProposition) -> EfProposition:
    return frozenset(UPair(a, b) for a in phi1 for b in phi2)


def lam_evidence(ev: EfEvidence) -> EfEvidence:
    return ULam(URet(ULam(UApp(ushift(ev, 2), UPair(UVar(1), UVar(0))))))


E_EVAL = ULam(UApp(UProj1(UVar(0)), UProj2(UVar(0))))


def univ_impl(
    phi1: EfProposition,
    family: tuple[EfProposition, ...],
    candidates: tuple[UntypedTerm, ...],
    fuel: int = DEFAULT_FUEL,
) -> EfProposition | None:
    """The finite-carrier universal implication: the supplied lambda values
    validated against the defining membership condition; None if fuel ran
    out on some member and none failed."""
    members, unknown = [], False
    for cand in candidates:
        if not isinstance(cand, ULam):
            raise CandidateRejected(f"universal-implication member is not a lambda: {cand!r}")
        for v1 in phi1:
            for phi in family:
                r = lift_member(subst(cand.body, UNTYPED, 0, v1), phi, fuel=fuel)
                if r is False:
                    raise CandidateRejected(
                        f"candidate fails the defining condition on {v1!r}"
                    )
                unknown = unknown or r is None
        members.append(cand)
    return None if unknown else frozenset(members)


@dataclass
class EfReport:
    clauses: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def record(self, clause: str, ok: bool | None, witness: str = "") -> None:
        prev = self.clauses.get(clause, True)
        self.clauses[clause] = (
            None if (ok is None or prev is None) else (prev and ok)
        )
        if witness:
            self.witnesses.setdefault(clause, []).append(witness)

    @property
    def ok(self) -> bool:
        return all(v is True for v in self.clauses.values())


def ef_law_suite(
    samples: tuple[EfProposition, ...], fuel: int = DEFAULT_FUEL
) -> EfReport:
    """Check the five evidenced-frame clauses on the sample propositions."""
    report = EfReport()
    samples = tuple(s for s in samples if s)

    for phi in samples:
        report.record("reflexivity", evidence_check(phi, E_ID, phi, fuel))

    # transitivity: compose the identity with itself
    for phi in samples:
        report.record("transitivity", evidence_check(phi, compose(E_ID, E_ID), phi, fuel))

    for phi in samples:
        report.record("top", evidence_check(phi, E_TOP, TOP_PROP, fuel))

    for phi1 in samples:
        for phi2 in samples:
            both = conj(phi1, phi2)
            report.record("conjunction", evidence_check(both, E_FST, phi1, fuel))
            report.record("conjunction", evidence_check(both, E_SND, phi2, fuel))
            # pairing from the common source
            src = phi1
            pe = pair_evidence(E_ID, E_ID)
            report.record(
                "conjunction", evidence_check(src, pe, conj(phi1, phi1), fuel)
            )

    for phi1 in samples:
        for phi2 in samples:
            family = (phi2,)
            ev = E_SND  # phi1 /\ phi2 --> phi2 for every member of the family
            # the candidates produced by the lambda combinator itself
            cands = tuple(
                ULam(UApp(ushift(ev, 1), UPair(ushift(v1, 1), UVar(0))))
                for v1 in phi1
            )
            try:
                impl = univ_impl(phi2, family, cands, fuel)
            except CandidateRejected as exc:
                report.record("universal-implication", False, str(exc))
                continue
            if impl is None:
                report.record("universal-implication", None)
                continue
            report.record(
                "universal-implication",
                evidence_check(phi1, lam_evidence(ev), impl, fuel),
            )
            report.record(
                "universal-implication",
                evidence_check(conj(impl, phi2), E_EVAL, phi2, fuel),
            )
    return report
