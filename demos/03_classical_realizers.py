"""The continuation instance: classical realizability and call/cc.

A pure instance interprets the computation type, return, bind and the
modality inside the effect-free fragment.  The continuation instance uses
the double-negation monad with the modality defined by biorthogonality
against a pole, which is exactly the classical-realizability recipe; the
control operator then realizes the classical principle.
"""

from effreal.effhol import PROG, App, BOT_TYPE, PVar, Strategy, multi_step, shift, type_of
from effreal.effhol.conversion import normalize_type
from effreal.hol import Forall, Imp, MemBase, STAR, Var
from effreal.instances import (
    build_callcc,
    build_cc,
    build_throw,
    check_instance_laws,
    continuation_instance,
    identity_instance,
    instantiate_type,
)
from effreal.surface import print_program
from effreal.translation import trtype

cont = continuation_instance()

# Peirce's law, with base-sorted variables read as propositions.
peirce = Forall(
    STAR,
    Forall(
        STAR,
        Imp(Imp(Imp(MemBase(Var(1)), MemBase(Var(0))), MemBase(Var(1))), MemBase(Var(1))),
    ),
)
translated = instantiate_type(trtype((), peirce), cont)
callcc = build_callcc()
print("call/cc:", print_program(callcc))
assert type_of((), (), callcc) == normalize_type(translated)
print("call/cc types at the translated classical principle: ok")
print()

# The machine rules, replayed as beta-reductions in continuation-passing
# style: cc grabs the continuation, throw restores it.
ta = tb = BOT_TYPE
cc = build_cc(ta, tb)
applied = App(App(shift(cc, PROG, 2), PVar(1)), PVar(0))  # frame [z, k]
result, steps = multi_step(applied, Strategy.CBN, 10)
throw = build_throw(ta, tb, PVar(0))
assert result == App(App(PVar(1), throw), PVar(0))
print(f"cc applied to (z, k) steps to z (throw k) k in {steps} steps")

thrown = App(App(build_throw(ta, tb, PVar(0)), PVar(1)), PVar(2))  # frame [k, x, k']
result, steps = multi_step(thrown, Strategy.CBN, 10)
assert result == App(PVar(0), PVar(1))
print(f"throw k applied to (x, k') drops k' and restores k in {steps} steps")
print()

# Both shipped instances validate the modality laws by replaying the
# derivations on generated samples; every output re-checks in the kernel.
for inst in (identity_instance(), cont):
    report = check_instance_laws(inst, samples_per_law=10, seed=1)
    print(f"{inst.name}: " + ", ".join(f"{law} {p}/{t}" for law, (p, t) in report.results.items()))
