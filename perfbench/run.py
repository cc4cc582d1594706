"""Benchmark of the effreal toolchain.

    python3 perfbench/run.py --workload {corpus,chains,programs} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's inputs are made from the
seed; then passes over them run one after another, each in a fresh
single-threaded worker process (so caches start empty, as for every CLI
invocation), while the next pass is expected to end within S seconds and
until at least MIN_PASSES passes ran.  Each pass is a closed loop: one
caller takes the items in order and waits for each verdict.  Every verdict
is checked against a known answer.  Before each untraced pass,
SETUP_PROBES more fresh processes only time set-up, so that setup_s is a
median over many set-ups spread across the run.

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1, untraced and traced passes alternate and
it reports the per-layer metrics.  Both print every metric by name and
unit first.  The metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import caches

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
MIN_PASSES = 3
SETUP_PROBES = 4
BUDGET_S = 170  # every run ends well within the 180 s a run may take


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["corpus", "chains", "programs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "effreal" / "__init__.py").is_file():
        print(f"no effreal sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        (run_dir / "inputs.json").write_text(
            json.dumps(inputs.make_inputs(args.workload, args.seed, ROOT)), encoding="utf-8"
        )
        passes = run_passes(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    values, notes = (layer_metrics if args.trace else e2e_metrics)(passes)
    verdict = summarize(passes)
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    for line in notes + verdict.pop("notes"):
        print(line)
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0


def run_passes(args, run_dir: Path) -> list[dict]:
    """Untraced passes, or alternating traced and untraced ones, while the
    next pass is expected to end within --seconds.  Each untraced pass
    carries the set-up times of its probes in ``setup_probes_s``."""
    passes: list[dict] = []
    took: list[float] = []
    start = perf_counter()

    def enough() -> bool:
        modes = [p["trace"] for p in passes]
        if args.trace and (modes.count(1) < 2 or modes.count(0) < 1):
            return False
        if len(passes) < MIN_PASSES:
            return False
        return perf_counter() - start + statistics.median(took) > args.seconds

    while not enough():
        trace = args.trace and len(passes) % 2 == 0
        out = run_dir / f"pass-{len(passes)}.json"
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir / "inputs.json"), str(out),
               "1" if trace else "0", str(spans)]
        began = perf_counter()
        try:
            probes = [] if trace else [setup_probe(start) for _ in range(SETUP_PROBES)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=time_left(start))
            ok = proc.returncode == 0 and out.is_file()
            err = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            ok, err = False, f"pass timed out at {perf_counter() - start:.0f} s"
        except subprocess.CalledProcessError as e:
            ok, err = False, f"set-up probe failed: {e.stderr[-2000:]}"
        took.append(perf_counter() - began)
        if not ok:
            passes.append({"trace": int(trace), "crashed": err})
            break
        result = json.loads(out.read_text(encoding="utf-8"))
        passes.append({"trace": int(trace), "setup_probes_s": probes, **result})
    return passes


def time_left(start: float) -> float:
    return max(BUDGET_S - (perf_counter() - start), 1)


def setup_probe(start: float) -> float:
    """Set-up time of one fresh worker process that does nothing else."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], capture_output=True,
                          text=True, timeout=time_left(start), check=True)
    return json.loads(proc.stdout)["setup_s"]


def summarize(passes: list[dict]) -> dict:
    notes = []
    items = next((len(p["items"]) for p in passes if "items" in p), 1)
    attempted = sum(len(p["items"]) if "items" in p else items for p in passes)
    failed = 0
    for p in passes:
        if "crashed" in p:
            failed += items
            notes.append(f"pass crashed: {p['crashed']}")
            continue
        failed += len(p["failures"])
        notes += [f"FAILED {f['item']}: {'; '.join(f['why'])}" for f in p["failures"][:5]]
        if not p["wrong_answer_flagged"]:
            notes.append("self-check: the verifier accepted a wrong answer")
    prints = {p["fingerprint"] for p in passes if "fingerprint" in p}
    if len(prints) > 1:
        notes.append(f"count fingerprint differs between passes of one seed: {sorted(prints)}")
    correct = (
        failed == 0
        and len(prints) <= 1
        and all("crashed" not in p and p["wrong_answer_flagged"] for p in passes)
    )
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes if "wall_s" in p)
    notes.append(f"pass wall times (s): {walls}")
    notes.append(f"passes: {len(passes)}, items attempted: {attempted}, failed: {failed}, "
                 f"fail_share: {failed / attempted:.6g}")
    if prints:
        notes.append(f"count fingerprint: {prints.pop()}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "notes": notes}


def _ok(passes, trace: int) -> list[dict]:
    return [p for p in passes if p["trace"] == trace and "crashed" not in p]


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def e2e_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    good = _ok(passes, 0)
    values = {
        "setup_s": _median(s for p in good for s in [p["setup_s"], *p["setup_probes_s"]]),
        "wall_s": _median(p["wall_s"] for p in good),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in good),
    }
    # Verdict percentiles are printed, not reported: the median corpus item
    # takes about 10 ms and spreads by a fifth from run to run, and only
    # `programs` has ten or more samples beyond p99.
    item_ms = sorted(s * 1000 for p in good for s in p["item_s"])
    beyond = len(item_ms) - int(0.99 * len(item_ms))
    notes = [
        f"{'verdict_p50_ms':48s} {percentile(item_ms, 0.5):>14.6g} ms ({len(item_ms)} verdicts)",
        f"{'verdict_p99_ms':48s} {percentile(item_ms, 0.99):>14.6g} ms "
        f"({beyond} verdicts at or beyond it)",
    ]
    return values, notes


def percentile(sorted_xs: list[float], q: float) -> float:
    if not sorted_xs:
        return 0.0
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))]


CACHE_KEYS = [f"{module}.{name}" for module, names in caches.CACHED.items() for name in names]
LAYERS = ("surface", "hol", "translation", "effhol", "instances", "frame")
STAGES = (
    "surface.parse", "surface.print", "surface.json", "hol.check", "translation.extract",
    "translation.translate", "effhol.check", "effhol.recheck_id", "effhol.recheck_cont",
    "effhol.forget", "effhol.type_of", "effhol.reduce", "instances.id", "instances.cont",
    "instances.prog", "frame.erase", "frame.normalize", "frame.laws",
)
EXP_STAGES = ("surface.parse", "translation.extract", "effhol.check", "effhol.forget",
              "hol.check", "surface.print", "surface.json")
# The scaling exponents reported as metrics are those of the implication
# chain, the family ROADMAP item 2 targets; the others are printed.
EXP_FAMILY = "imp"


def layer_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    traced, untraced = _ok(passes, 1), _ok(passes, 0)
    counts = traced[0]["counts"] if traced else {}
    values: dict[str, float] = {}
    for stage in STAGES:
        values[f"{stage}.s"] = _median(p["stages"].get(stage, 0.0) for p in traced)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = _median(p["layers"].get(layer, 0.0) for p in traced)
        values[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        values[f"{layer}.rejects"] = counts.get(f"{layer}.rejects", 0)
    values["hol.check.nodes"] = counts.get("hol.check.nodes", 0)
    values["effhol.check.nodes"] = counts.get("effhol.check.nodes", 0)
    values["effhol.reduce.steps"] = counts.get("effhol.reduce.steps", 0)
    for key in ("instances.id", "instances.cont", "instances.prog"):
        values[f"{key}.expansion"] = _ratio(counts, f"{key}.nodes_out", f"{key}.nodes_in")
    values["translation.derive.replayed_ratio"] = _ratio(
        counts, "translation.derive.replayed", "translation.derive.attempted")

    absent = 0
    for key in CACHE_KEYS:
        infos = [p["caches"].get(key) for p in traced]
        if not infos or any(i is None for i in infos):
            absent += 1
            values[f"{key}.hit_ratio"] = values[f"{key}.size"] = 0
            continue
        values[f"{key}.hit_ratio"] = _median(
            i["hits"] / max(1, i["hits"] + i["misses"]) for i in infos)
        values[f"{key}.size"] = _median(i["size"] for i in infos)
    values["caches.absent"] = absent

    exps = [p.get("exponents", {}) for p in traced]
    for stage in EXP_STAGES:
        values[f"{stage}.exp"] = _median(e[EXP_FAMILY].get(stage, 0.0) for e in exps if e)
    wall_t = _median(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = wall_t - _median(p["wall_s"] for p in untraced)

    notes = [f"traced passes: {len(traced)}, untraced passes: {len(untraced)}"]
    for family in sorted(exps[0] if exps else ()):
        fam = _median_dicts([e[family] for e in exps])
        notes.append(f"scaling exponents, {family} chain: "
                     + ", ".join(f"{k} {v:.3f}" for k, v in sorted(fam.items())))
    if absent:
        notes.append(f"cache counters absent: {absent} (reported as 0)")
    return values, notes


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def _median_dicts(ds: list[dict]) -> dict:
    return {k: _median(d.get(k, 0.0) for d in ds) for k in ds[0]}


if __name__ == "__main__":
    sys.exit(main())
