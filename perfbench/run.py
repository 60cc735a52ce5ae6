"""The lyndonbar benchmark: one process, one thread, one caller in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-w6 --seed 1 --seconds 40 --trace 0

The run sets up ``SETUPS`` times (a fresh import of ``src/lyndonbar`` plus
making the workload's inputs from the seed) and keeps the last set-up.  It
then repeats the workload's round, each from empty caches, until the next
round would end after ``--seconds`` of measuring, making at least one.
Times are reported in reference seconds: seconds scaled by the host's speed
at the time, sampled while the program runs (see ``refclock``), so that
the drift of a shared host's speed cancels.  Every output is checked.  The
last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds, so the tracing overhead is measured
inside the run, and writes its spans to
``perfbench/out/trace-<workload>.json``.  A summary with workload-specific
figures goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from program import LAYERS, ROOT, Program, ProgramMissing
from refclock import RefClock, bracketed
from spans import Tracer
from workloads import WORKLOADS

SETUPS = 9
OUT = Path(__file__).resolve().parent / "out"

SUITES = ("words", "lie", "signs", "colie", "models", "bar", "lifts", "edqx", "basis")
MODELS = ("dgcore.model_x", "dgcore.model_a1", "dgcore.model_point", "dgcore.model_geom")
# share of traced time inside calls to these functions, callees included
INCL_SHARES = {
    "linalg.solve_pct": ("linalg.solve_affine",),
    "lifts.unit_constants_pct": ("lifts.solve_unit_constants",),
    "lifts.adjunction_unit_pct": ("lifts.adjunction_unit",),
    "lifts.verify_lift_pct": ("lifts.verify_lift",),
    "bar.hain_projector_pct": ("bar.hain_projector",),
    "bar.bar_differential_pct": ("bar.bar_differential",),
    "bar.delta_Q_pct": ("bar.delta_Q",),
    "dgcore.model_pct": MODELS,
    "colie.ab_tables_pct": ("colie.ab_tables",),
    "ihara.beta_gamma_tables_pct": ("ihara.beta_gamma_tables",),
    "freelie.alpha_table_pct": ("freelie.alpha_table",),
    "words.lyndon_words_pct": ("words.lyndon_words",),
}
INCL_SHARES.update({f"verify.{suite}_pct": (f"verify.suite_{suite}",) for suite in SUITES})
CACHE_RATIOS = {"bar.hain_word": "lyndonbar.bar._hain_word", "bar.shuffle": "lyndonbar.bar._shuffle_words"}


def setup(workload_cls, seed: int):
    """A fresh import plus the workload's inputs: (program, workload), seconds, reference seconds."""

    def fresh():
        program = Program()
        return program, workload_cls(program, seed)

    return bracketed(fresh)


def clocked_round(program, workload, clock: RefClock, tracer=None):
    """One round with the host's speed sampled throughout.

    ``busy`` holds each call's program time, with the kernel samples taken
    off; ``speed`` is the host's mean speed from the first call's start to
    the last call's end, and ``ref_s`` the round's program time in
    reference seconds.
    """
    clock.start()
    try:
        r = workload.run_round(program, tracer)
    finally:
        clock.stop()
    clock.top_up()
    r.busy = [clock.busy(start, end) for start, end in r.spans]
    r.speed = clock.speed(r.spans[0][0], r.spans[-1][1])
    r.ref_s = sum(r.busy) * r.speed
    return r


def measure(program, workload, seconds: float, trace: bool):
    """Rounds until the next one would end after ``seconds``; at least one.

    A traced run alternates untraced and traced rounds and makes at least
    one of each.
    """
    tracer = Tracer(program) if trace else None
    clock = RefClock()
    plain, traced, tally = [], [], {}
    start = perf_counter()
    while True:
        plain.append(clocked_round(program, workload, clock))
        if tracer is not None:
            program.clear_caches()
            program.tally = tally
            tracer.install()
            try:
                traced.append(clocked_round(program, workload, clock, tracer))
            finally:
                tracer.uninstall()
                program.harvest()
                program.tally = None
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, tracer, tally


def best_calls(rounds) -> list[float]:
    """Each call's fastest latency over the rounds (every round makes the same calls)."""
    return [min(times) for times in zip(*(r.busy for r in rounds))]


def end_to_end(setups, plain) -> dict:
    """Medians, in reference seconds (see ``refclock``)."""
    return {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "ref_wall_s": (statistics.median(r.ref_s for r in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced, tracer, tally) -> dict:
    n = len(traced)
    # whole call times: kernel samples fall inside spans too, so the shares add up
    wall = sum(sum(r.latencies) for r in traced)
    funcs = tracer.functions

    def pct(seconds):
        return (100 * seconds / wall, "%")

    def per_round(count):
        return (count / n, "count")

    def total(names, column):
        return sum(funcs[f][column] for f in names if f in funcs)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = pct(total([f for f in funcs if f.split(".")[0] == layer], 1))
    # self time of the oracle alone is the assembly of its system
    out["lifts.oracle_self_pct"] = pct(total(["lifts.closed_lift_oracle"], 1))
    for metric, names in INCL_SHARES.items():
        out[metric] = pct(total(names, 2))
    solves = tracer.solves
    out["linalg.solve_calls"] = per_round(len(solves))
    out["linalg.unknowns"] = per_round(sum(s[0] for s in solves))
    out["linalg.equations"] = per_round(sum(s[1] for s in solves))
    out["linalg.nnz"] = per_round(sum(s[2] for s in solves))
    out["linalg.infeasible_calls"] = per_round(sum(not s[3] for s in solves))
    out["lifts.fallbacks"] = per_round(tracer.fallbacks)
    for metric, cache in CACHE_RATIOS.items():
        hits, misses, _ = tally.get(cache, (0, 0, 0))
        out[f"{metric}_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out[f"{metric}_lookups"] = per_round(hits + misses)
    traced_wall = statistics.median(r.ref_s for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(r.ref_s for r in plain), "s")
    out["trace.spans"] = per_round(sum(v[0] for v in funcs.values()))
    return out


def summary(workload, setups, plain, traced) -> dict:
    """Workload-specific figures for stderr; not part of the metric contract."""
    kinds: dict[str, list] = {}
    for kind, best in zip(plain[0].kinds, best_calls(plain)):
        kinds.setdefault(kind, []).append(best)
    info = {
        "workload": workload.name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "setup_samples_s": [seconds for seconds, _ in setups],
        "setup_samples_ref_s": [ref for _, ref in setups],
        "round_s": [sum(r.busy) for r in plain],
        "round_speed": [r.speed for r in plain],
        "digest": plain[0].digest.hexdigest(),
    }
    for kind, values in sorted(kinds.items()):
        info[f"{kind}_calls"] = len(values)
        info[f"{kind}_p50_s"] = statistics.median(values)
        info[f"{kind}_max_s"] = max(values)
        info[f"{kind}_per_s"] = len(values) / sum(values)
    info.update(getattr(workload, "sizes", {}))
    return info


def declared_metrics(trace: bool):
    """The metric names BENCHMARK.json declares for this mode, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload_cls = WORKLOADS[args.workload]
    try:
        setups = []
        for _ in range(SETUPS):
            (program, workload), seconds, ref = setup(workload_cls, args.seed)
            setups.append((seconds, ref))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    plain, traced, tracer, tally = measure(program, workload, args.seconds, bool(args.trace))

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds) + len(rounds)
    failed = sum(r.failed for r in rounds)
    # every round of a run does the same work, so every output must match the first
    first = plain[0].digest.hexdigest()
    failed += sum(r.digest.hexdigest() != first for r in rounds)

    if args.trace:
        metrics = per_layer(plain, traced, tracer, tally)
        tracer.write(
            OUT / f"trace-{args.workload}.json",
            {"workload": args.workload, "seed": args.seed, "caches": tally},
        )
    else:
        metrics = end_to_end(setups, plain)
    info = summary(workload, setups, plain, traced)
    info["fail_ratio"] = failed / attempted
    print(json.dumps(info), file=sys.stderr)

    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != set(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
