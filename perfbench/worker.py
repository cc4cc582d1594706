"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py INPUTS.json RESULT.json TRACE(0|1) SPANS.json
    python3 perfbench/worker.py

Set-up (importing effreal and building both instances) is timed first.
Without arguments the worker prints only that time, as JSON, and exits.
Otherwise the items run one after another, each to its verdict, and the
pass writes its timings, verdicts and counters to RESULT.json.  With
TRACE=1 spans and counts are recorded around every layer call and the
spans are written to SPANS.json when the pass ends.
"""

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

T0 = perf_counter()
import effreal  # noqa: E402
import effreal.surface  # noqa: E402,F401
from effreal.instances import continuation_instance, identity_instance  # noqa: E402

INSTANCES = (identity_instance(), continuation_instance())
SETUP_S = perf_counter() - T0

import caches  # noqa: E402
import pipelines  # noqa: E402
import spans as sp  # noqa: E402


def main(argv) -> int:
    if not argv:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    inputs_path, result_path, trace, spans_path = argv[0], argv[1], argv[2] == "1", argv[3]
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    if Path(effreal.__file__).resolve().parent != ROOT / "src" / "effreal":
        raise SystemExit(f"effreal imported from {effreal.__file__}, not from this checkout")

    ctx = pipelines.Context(ROOT, INSTANCES)
    items, wrong = pipelines.WORKLOADS[inputs["workload"]](ctx, inputs)
    T = sp.Tracer(trace)

    item_s, failures = [], []
    start = perf_counter()
    for name, fn, args in items:
        t = perf_counter()
        try:
            with T.item(name):
                fails = fn(T, ctx, *args)
        except Exception:
            fails = ["raised " + traceback.format_exc(limit=3)]
        item_s.append(perf_counter() - t)
        if fails:
            failures.append({"item": name, "why": fails})
    wall_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_info = caches.read()

    # after timing and the counters: the verifier must flag a known wrong answer
    name, fn, args = wrong
    wrong_flagged = bool(fn(sp.Tracer(False), ctx, *args))

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "item_s": item_s,
        "items": [name for name, _, _ in items],
        "failures": failures,
        "wrong_answer_flagged": wrong_flagged,
        "peak_rss_mb": rss_mb,
        "caches": cache_info,
    }
    if trace:
        result.update(traced(T, inputs, result))
        Path(spans_path).write_text(json.dumps({"spans": T.spans}), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced(T, inputs, result) -> dict:
    stages, layers = sp.stage_seconds(T.spans)
    counts = dict(T.counts)
    for name, info in result["caches"].items():
        if info is not None:
            counts[f"{name}.size"] = info["size"]
    fingerprint = hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()[:16]
    out = {"stages": stages, "layers": layers, "counts": counts, "fingerprint": fingerprint}
    if inputs["workload"] == "chains":
        out["exponents"] = chain_exponents(T.spans, inputs["items"])
    return out


def chain_exponents(spans, items) -> dict:
    """Log-log slope of each stage's time against chain length, per family."""
    per_item = sp.item_stage_seconds(spans)
    out: dict = {}
    for family in sorted({it["family"] for it in items}):
        points: dict = {}
        for it in items:
            if it["family"] == family:
                for stage, s in per_item[it["name"]].items():
                    points.setdefault(stage, []).append((it["n"], s))
        out[family] = {stage: sp.loglog_slope(pts) for stage, pts in points.items()}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
