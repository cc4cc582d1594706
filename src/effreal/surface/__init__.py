from .elaborate import SurfaceDoc, parse_document
from .printer import (
    print_eff_derivation,
    print_eff_sequent,
    print_hol_derivation,
    print_hol_prop,
    print_hol_sequent,
    print_program,
    print_spec,
    print_term,
    print_type,
    print_untyped,
)
