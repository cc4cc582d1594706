from .._astnode import shift, subst
from .syntax import (
    Base,
    Compr,
    ComprBase,
    FALSUM,
    Forall,
    HolProp,
    HolTerm,
    Imp,
    Mem,
    MemBase,
    Pred,
    STAR,
    Sort,
    TERM,
    Var,
)
from .checker import (
    HolDerivation,
    Sequent,
    check,
    prop_wf,
    sort_of,
    sequent_wf,
)
