"""Seeded inputs of each workload, made before any pass starts.

The same seed gives the same inputs.  Only surface text and item names
leave this module: worker processes parse the text, so the program under
test receives the generated inputs and never the seed.

The computed known answers (realizer types, types under each instance,
the built-in instance's output) are made here too, in the parent process,
so that no oracle call touches a worker's caches or its timed loop.
"""

from __future__ import annotations

import random
from pathlib import Path

from effreal.effhol import Comp
from effreal.effhol.conversion import normalize_type
from effreal.generators import random_closed_program
from effreal.hol import checker as hc
from effreal.hol import syntax as h
from effreal.instances import (
    continuation_instance,
    identity_instance,
    instantiate_prog,
    instantiate_type,
)
from effreal.surface import parse_document, print_hol_derivation, print_program, print_type
from effreal.translation import trtype

import answers

# Chain lengths per family.  They are set by run time and stay far below
# the nesting depths at which the checkers and the JSON writer overflow
# the stack (ROADMAP 4(b)), so that crash is not measured here.
CHAIN_SIZES = {"imp": (2, 3, 4, 6, 8, 12, 16), "uni": (2, 4, 6, 8, 12, 16, 24), "cut": (2, 3, 4, 6, 8, 10)}
# The closed propositions the chains are built from: all nine with two
# universal quantifiers over the base sort, one implication and two base
# memberships.  Having the same syntax nodes, they cost about the same, so
# the work per item depends on the seed only through their arrangement.
PROPS = """
(forall (a *) (forall (b *) (imp (member0 b) (member0 b))))
(forall (a *) (forall (b *) (imp (member0 b) (member0 a))))
(forall (a *) (forall (b *) (imp (member0 a) (member0 b))))
(forall (a *) (forall (b *) (imp (member0 a) (member0 a))))
(forall (a *) (imp (forall (b *) (member0 b)) (member0 a)))
(forall (a *) (imp (forall (b *) (member0 a)) (member0 a)))
(forall (a *) (imp (member0 a) (forall (b *) (member0 b))))
(forall (a *) (imp (member0 a) (forall (b *) (member0 a))))
(imp (forall (a *) (member0 a)) (forall (a *) (member0 a)))
""".strip().splitlines()

PROGRAM_COUNT = 1000
PROGRAM_SIZE = 8


def realizer_type(d: hc.HolDerivation) -> str:
    """M(trtype(goal)) of a derivation with a closed conclusion, printed."""
    c = d.conclusion
    return print_type(normalize_type(Comp(trtype(c.ctx, c.goal))))


def corpus(rng: random.Random, root: Path) -> dict:
    """Every corpus file through the commands users run on it, one item per
    command (and per derivation or program where the command names one);
    the seed only fixes their order."""
    items = [("extract", n) for n in answers.HOL] + [("translate", "peirce")]
    items += [("check-effhol", "effhol_basic"), ("instantiate", "id"), ("instantiate", "cont")]
    items += [("program", n) for n in answers.PROGRAMS]
    items += [("ef-check", "ef_samples"), ("instance-file", "cont-file")]
    items += [("check-hol", "invalid")]
    rng.shuffle(items)
    hol = parse_document((root / "corpus/hol_basic.hol").read_text(encoding="utf-8"))
    progs = parse_document((root / "corpus/programs.eff").read_text(encoding="utf-8")).programs
    cont = continuation_instance()
    return {
        "items": items,
        "realizer_types": {n: realizer_type(hol.hol_derivations[n]) for n in answers.HOL},
        "cont_programs": {n: print_program(instantiate_prog(p, cont)) for n, p in progs.items()},
    }


def _props(rng: random.Random, n: int) -> list[h.HolProp]:
    """n propositions cycling through a seeded permutation of PROPS, so
    that every seed repeats them equally often."""
    doc = parse_document("\n".join(f"(prop p{i} {p})" for i, p in enumerate(PROPS)))
    pool = list(doc.props.values())
    rng.shuffle(pool)
    return [pool[i % len(pool)] for i in range(n)]


def _seq(ctx, hyps, goal) -> hc.Sequent:
    return hc.Sequent(tuple(ctx), tuple(hyps), goal)


def imp_chain(rng: random.Random, n: int) -> hc.HolDerivation:
    """psi_1 -> ... -> psi_n -> psi_1 by n ImpI over Id."""
    props = _props(rng, n)
    goal = props[0]
    d = hc.HolDerivation("Id", _seq((), props, goal))
    for i in range(n - 1, -1, -1):
        goal = h.Imp(props[i], goal)
        d = hc.HolDerivation("ImpI", _seq((), props[:i], goal), (d,))
    return d


def uni_chain(rng: random.Random, n: int) -> hc.HolDerivation:
    """forall u_1 ... u_n. psi -> psi by n UniI over ImpI over Id."""
    sorts = [h.STAR] * (n - n // 2) + [h.Pred(h.STAR)] * (n // 2)
    rng.shuffle(sorts)
    (phi,) = _props(rng, 1)
    goal = h.Imp(phi, phi)
    d = hc.HolDerivation(
        "ImpI", _seq(sorts, (), goal), (hc.HolDerivation("Id", _seq(sorts, (phi,), phi)),)
    )
    for i in range(n - 1, -1, -1):
        goal = h.Forall(sorts[i], goal)
        d = hc.HolDerivation("UniI", _seq(sorts[:i], (), goal), (d,))
    return d


def cut_chain(rng: random.Random, n: int) -> hc.HolDerivation:
    """psi_0, psi_0 -> psi_1, ..., psi_{n-1} -> psi_n |- psi_n by n ImpE."""
    props = _props(rng, n + 1)
    hyps = [props[0]] + [h.Imp(props[i], props[i + 1]) for i in range(n)]
    rng.shuffle(hyps)
    d = hc.HolDerivation("Id", _seq((), hyps, props[0]))
    for i in range(n):
        imp = hc.HolDerivation("Id", _seq((), hyps, h.Imp(props[i], props[i + 1])))
        d = hc.HolDerivation("ImpE", _seq((), hyps, props[i + 1]), (imp, d))
    return d


FAMILIES = {"imp": imp_chain, "uni": uni_chain, "cut": cut_chain}


def chains(rng: random.Random, root: Path) -> dict:
    items = []
    for family, sizes in CHAIN_SIZES.items():
        for n in sizes:
            name = f"{family}-{n}"
            d = FAMILIES[family](rng, n)
            text = f"(hol-derivation {name} {print_hol_derivation(d)})"
            items.append({"name": name, "family": family, "n": n, "text": text,
                          "realizer_type": realizer_type(d)})
    return {"items": items}


def programs(rng: random.Random, root: Path) -> dict:
    """Each program with its type and its types under the identity and the
    continuation instance, as `g<i>`, `g<i>.id` and `g<i>.cont`."""
    instances = {"id": identity_instance(), "cont": continuation_instance()}
    text, names = [], []
    for i in range(PROGRAM_COUNT):
        p, ty = random_closed_program(rng, PROGRAM_SIZE)
        names.append(f"g{i}")
        text += [f"(type g{i} {print_type(ty)})", f"(program g{i} {print_program(p)})"]
        for tag, inst in instances.items():
            under = normalize_type(instantiate_type(ty, inst))
            text.append(f"(type g{i}.{tag} {print_type(under)})")
    return {"names": names, "text": "\n".join(text)}


MAKERS = {"corpus": corpus, "chains": chains, "programs": programs}


def make_inputs(workload: str, seed: int, root: Path) -> dict:
    return {"workload": workload, **MAKERS[workload](random.Random(seed), root)}
