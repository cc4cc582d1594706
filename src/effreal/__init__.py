"""effreal: a checker and toolchain for intuitionistic higher-order logic,
an effectful higher-order program logic, and the realizability translation
between them.

The subpackages hold the two kernels (:mod:`effreal.hol`,
:mod:`effreal.effhol`); the top level re-exports the toolchain entry
points.
"""

from .translation import (
    Ambient,
    ExtractionResult,
    TranslationOutput,
    check_substitution_lemma,
    extract_realizer,
    lift_contexts,
    translate_prop,
    tretype,
    trind,
    trkind,
    trspec,
    trtrm,
    trtype,
)
from .instances import (
    PureInstance,
    build_callcc,
    check_instance_laws,
    continuation_instance,
    identity_instance,
    instantiate_derivation,
)
from .frame import (
    ef_law_suite,
    erase,
    evidence_check,
    lift_member,
    make_prop,
    untyped_normalize,
    untyped_step,
)

__version__ = "0.1.0"
