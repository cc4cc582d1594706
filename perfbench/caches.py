"""Counters of the memo caches in effhol.conversion and effhol.subst.

Read defensively: a function that no longer exists, or no longer has
``cache_info()``, is reported as absent (None), which is not a failure.
"""

from __future__ import annotations

import importlib

CACHED = {
    "effhol.conversion": ("normalize_type", "normalize_index", "normalize_prog",
                          "normalize_expr", "normalize_spec"),
    "effhol.subst": ("shift_type", "shift_index", "shift_prog", "shift_expr", "shift_spec"),
}


def read() -> dict[str, dict | None]:
    out = {}
    for module, names in CACHED.items():
        try:
            mod = importlib.import_module(f"effreal.{module}")
        except ModuleNotFoundError:
            mod = None
        for name in names:
            info = getattr(getattr(mod, name, None), "cache_info", None)
            if info is None:
                out[f"{module}.{name}"] = None
                continue
            ci = info()
            out[f"{module}.{name}"] = {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
    return out
