"""Hand-written known answers for the `corpus` workload.

Every verdict here was written down from the corpus sources and the
README, not produced by the code under test.  Terms are given in surface
syntax and parsed once before timing starts.
"""

from __future__ import annotations

# Declarations of each file, in file order, as (declaration tag, name).
DECLARATIONS = {
    "corpus/hol_basic.hol": [
        ("prop", "pA"), ("prop", "pB"), ("prop", "pC"),
        ("hol-derivation", "i-combinator"), ("hol-derivation", "k-combinator"),
        ("hol-derivation", "b-combinator"), ("hol-derivation", "c-combinator"),
        ("hol-derivation", "w-combinator"), ("hol-derivation", "s-combinator"),
        ("hol-derivation", "mem-roundtrip-intro"), ("hol-derivation", "mem-roundtrip-elim"),
        ("hol-derivation", "uni-intro"), ("hol-derivation", "uni-elim-chain"),
        ("hol-derivation", "double-negation-intro"), ("prop", "peirce"),
    ],
    "corpus/effhol_basic.eff": [
        ("type", "tid"), ("program", "ident"), ("program", "poly-id"),
        ("program", "bind-chain"), ("spec", "cell-mem"),
        ("eff-derivation", "imp-refl"), ("eff-derivation", "truth"),
        ("eff-derivation", "modality-intro"), ("eff-derivation", "modality-elim"),
        ("eff-derivation", "monotonicity"), ("eff-derivation", "anti-reduction"),
        ("eff-derivation", "membership-intro"), ("eff-derivation", "membership-elim"),
        ("eff-derivation", "base-membership-roundtrip"), ("eff-derivation", "type-universal"),
        ("eff-derivation", "expression-universal"), ("eff-derivation", "conversion"),
    ],
    "corpus/programs.eff": [
        ("type", "tid"), ("program", "ident"), ("program", "poly-id"),
        ("program", "bind-chain"), ("program", "type-redex"), ("program", "cbn-only"),
    ],
    "corpus/ef_samples.ef": [
        ("ef-evidence", "idv"), ("ef-evidence", "swap"), ("ef-evidence", "const-id"),
        ("ef-prop", "just-id"), ("ef-prop", "two-values"), ("ef-prop", "pairs"),
        ("ef-prop", "swapped"), ("ef-assert", "identity-preserves"),
        ("ef-assert", "swapping"), ("ef-assert", "collapse"),
    ],
    "corpus/instance_cont.inst": [("instance", "cont-file")],
    "perfbench/data/invalid.hol": [
        ("prop", "pA"), ("prop", "pB"),
        ("hol-derivation", "falsity-by-id"), ("hol-derivation", "unproved-implication"),
        ("hol-derivation", "wrong-imp-i-goal"),
    ],
}

# Logic derivations of hol_basic.hol: every one checks.  "replay" means
# `extract --derive` replays the triple; the membership round trips may
# replay or raise TemplateMissing, and either is accepted.
HOL = {
    "i-combinator": "replay",
    "k-combinator": "replay",
    "b-combinator": "replay",
    "c-combinator": "replay",
    "w-combinator": "replay",
    "s-combinator": "replay",
    "mem-roundtrip-intro": "replay-or-missing",
    "mem-roundtrip-elim": "replay-or-missing",
    "uni-intro": "replay",
    "uni-elim-chain": "replay",
    "double-negation-intro": "replay",
}

# The realizer type of the classical principle, as the README unfolds it.
PEIRCE_TYPE = "(all (X0 *) (M (all (X1 *) (M (fun (fun (fun X0 (M X1)) (M X0)) (M X0))))))"

# Program-logic derivations of effhol_basic.eff: each checks, and each
# re-checks after instantiation under both shipped instances.
EFF = [
    "imp-refl", "truth", "modality-intro", "modality-elim", "monotonicity",
    "anti-reduction", "membership-intro", "membership-elim",
    "base-membership-roundtrip", "type-universal", "expression-universal",
    "conversion",
]

TID = "(fun bot-type bot-type)"

# Programs of programs.eff: type, normal form and step count per strategy
# (base is call-by-value at the root only), the type under each instance
# (identity: M t = t; continuation: M t = (neg (neg t))), and the erasure.
PROGRAMS = {
    "ident": {
        "type": TID,
        "base": ("(lam (x bot-type) x)", 0),
        "cbn": ("(lam (x bot-type) x)", 0),
        "full": ("(lam (x bot-type) x)", 0),
        "id": TID,
        "cont": TID,
        "erased": "(lam (v) v)",
    },
    "poly-id": {
        "type": "(all (X *) (fun X (M X)))",
        "base": ("(tyabs (X *) (lam (x X) (ret x)))", 0),
        "cbn": ("(tyabs (X *) (lam (x X) (ret x)))", 0),
        "full": ("(tyabs (X *) (lam (x X) (ret x)))", 0),
        "id": "(all (X *) (fun X X))",
        "cont": "(all (X *) (fun X (neg (neg X))))",
        "erased": "(lam (v) (ret v))",
    },
    "bind-chain": {
        "type": f"(M {TID})",
        "base": ("(ret (lam (x bot-type) x))", 1),
        "cbn": ("(ret (lam (x bot-type) x))", 1),
        "full": ("(ret (lam (x bot-type) x))", 1),
        "id": TID,
        "cont": f"(neg (neg {TID}))",
        "erased": "(bind (v) (ret (lam (w) w)) (ret v))",
    },
    "type-redex": {
        "type": TID,
        "base": ("(lam (x bot-type) x)", 1),
        "cbn": ("(lam (x bot-type) x)", 1),
        "full": ("(lam (x bot-type) x)", 1),
        "id": TID,
        "cont": TID,
        "erased": "(lam (v) v)",
    },
    "cbn-only": {
        "type": TID,
        # call-by-value blocks on the non-value argument
        "base": (
            f"(app (lam (x {TID}) x) (app (lam (x {TID}) x) (lam (x bot-type) x)))",
            0,
        ),
        "cbn": ("(lam (x bot-type) x)", 2),
        "full": ("(lam (x bot-type) x)", 2),
        "id": TID,
        "cont": TID,
        "erased": "(app (lam (v) v) (app (lam (v) v) (lam (v) v)))",
    },
}

# ef_samples.ef: the five frame clauses hold and every assert holds.
EF_CLAUSES = ["reflexivity", "transitivity", "top", "conjunction", "universal-implication"]
EF_ASSERTS = {"identity-preserves": True, "swapping": True, "collapse": True}

# perfbench/data/invalid.hol: every derivation is rejected with KernelError.
INVALID = ["falsity-by-id", "unproved-implication", "wrong-imp-i-goal"]
