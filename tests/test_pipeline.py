"""End-to-end sweep: every corpus derivation through the whole toolchain.

check -> extract (-derive) -> re-check the replayed triple -> instantiate
under both shipped instances -> re-check -> erase the structure -> accept
in the source logic.  Membership nodes skip the replay stage (documented
behavior) but still extract and type.
"""

import hashlib
from pathlib import Path

import pytest

from effreal.effhol import KSTAR, TOP_SPEC, Comp, TVar, check as eff_check, type_of
from effreal.effhol.conversion import normalize_type
from effreal.effhol.forgetful import forget_derivation
from effreal.errors import TemplateMissing
from effreal.hol import HolDerivation, check as hol_check
from effreal.instances import (
    continuation_instance,
    identity_instance,
    instantiate_derivation,
)
from effreal.surface.elaborate import parse_document
from effreal.surface.printer import print_eff_derivation, print_hol_derivation
from effreal.translation import Ambient, extract_realizer, trtype

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
INSTANCES = (identity_instance(), continuation_instance())

# Node counts of each replayed derivation after instantiation under
# (identity, continuation): a template change that alters the shape of its
# output shows here.
INSTANTIATED_NODES = {
    "i-combinator": (4, 28),
    "k-combinator": (7, 43),
    "b-combinator": (46, 282),
    "c-combinator": (46, 282),
    "w-combinator": (43, 267),
    "s-combinator": (64, 394),
    "uni-intro": (7, 43),
    "uni-elim-chain": (20, 126),
    "double-negation-intro": (25, 155),
}


def _nodes(d) -> int:
    return 1 + sum(_nodes(p) for p in d.premises)


def printed(d) -> str:
    """The text of a derivation of either calculus.  Derivations compare
    by identity, so tests compare their texts."""
    return (print_hol_derivation if isinstance(d, HolDerivation) else print_eff_derivation)(d)


def _corpus_derivations():
    doc = parse_document((CORPUS / "hol_basic.hol").read_text())
    return sorted(doc.hol_derivations.items())


@pytest.mark.parametrize("name,d", _corpus_derivations())
def test_full_pipeline(name, d):
    hol_check(d)
    try:
        res = extract_realizer(d, derive=True)
    except TemplateMissing:
        res = extract_realizer(d)
    seq = res.goal_triple
    goal_t = trtype(d.conclusion.ctx, d.conclusion.goal)
    assert type_of(seq.ctxs.kinds, seq.ctxs.types, res.realizer) == normalize_type(
        Comp(goal_t)
    )
    if res.derivation is None:
        return
    eff_check(res.derivation)
    hol_check(forget_derivation(res.derivation))
    for inst, nodes in zip(INSTANCES, INSTANTIATED_NODES[name]):
        d2 = instantiate_derivation(res.derivation, inst)
        eff_check(d2)
        assert _nodes(d2) == nodes, inst.name


def test_replay_and_instances_print_the_pinned_text():
    """The printed replay of each replayable corpus derivation, then its
    identity and continuation instances, hash to a pinned digest: node
    counts alone miss a change of formula, witness or context."""
    h = hashlib.sha256()
    for name, d in _corpus_derivations():
        try:
            replay = extract_realizer(d, derive=True).derivation
        except TemplateMissing:
            continue
        for x in (replay, *(instantiate_derivation(replay, inst) for inst in INSTANCES)):
            h.update(print_eff_derivation(x).encode())
    assert h.hexdigest()[:16] == "bfb4d3cd9a1a0c82"


def test_pipeline_covers_replayable_rules():
    """Most of the corpus replays fully; the membership round trips are the
    documented exceptions."""
    replayed, skipped = [], []
    for name, d in _corpus_derivations():
        try:
            extract_realizer(d, derive=True)
            replayed.append(name)
        except TemplateMissing:
            skipped.append(name)
    assert set(skipped) == {"mem-roundtrip-intro", "mem-roundtrip-elim"}
    assert len(replayed) >= 9


# An outer kind, an outer type that mentions it, an extra hypothesis, and
# all three, each part of the root frame the replay extends.
AMBIENTS = (
    Ambient(kinds=(KSTAR,)),
    Ambient(kinds=(KSTAR,), types=(Comp(TVar(0)),)),
    Ambient(hyps=(TOP_SPEC,)),
    Ambient(kinds=(KSTAR,), types=(Comp(TVar(0)),), hyps=(TOP_SPEC,)),
)


def test_replay_under_ambients():
    """Every replayable corpus derivation replays under each ambient: the
    replay checks, its forgetting checks in the source logic, and the
    realizer is the node extracted with no ambient."""
    for name, d in _corpus_derivations():
        try:
            realizer = extract_realizer(d, derive=True).realizer
        except TemplateMissing:
            continue
        for amb in AMBIENTS:
            res = extract_realizer(d, ambient=amb, derive=True)
            c = eff_check(res.derivation)
            assert c.ctxs.kinds[: len(amb.kinds)] == amb.kinds and set(amb.hyps) <= set(c.hyps)
            hol_check(forget_derivation(res.derivation))
            assert res.realizer is realizer, name
