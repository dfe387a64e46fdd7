"""coslaw benchmark: one run of one workload.

    python3 perfbench/run.py --workload solve-curves --seed 3 --seconds 38 --trace 0

Run from the repository root.  The timed passes run in one process and one
thread: the script pins OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, and imports coslaw from ./src only.
Workloads and their checks are in workloads.py, tracing in tracing.py, and
record.py writes the reference outputs.

One run sets up the workload (import, fixtures, characters, seeded inputs),
then repeats passes over the workload's fixed call list for about
`--seconds` seconds, and at least three times.  Every call's output is
checked against the reference recorded from the seed commit.  With
`--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics:

  wall_s       wall time of one pass over the call list: the sum over the
               calls of each call's median time across the run's passes
  setup_s      median over 7 set-ups (this process, and set-up-only
               subprocesses started between and after the passes) of the
               time from the start of this script to the first timed call:
               importing coslaw, building fixtures and enumerating characters
  peak_rss_mb  ru_maxrss of this process

With `--trace 1` each pass is run twice, untraced then traced, and the JSON
carries the per-layer metrics of `LAYERS`; the lines before it show the
end-to-end figures too, and spans are written to perfbench/out/.  The error
rate is `failed / attempted` in the result object.  The exit status is 1
when any output check fails and 2 when the benchmark cannot run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
MIN_PASSES = 3  # untraced; the per-call median needs three samples

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
# per-layer metric: (unit, the span or counter it is derived from)
LAYERS = {
    "solver.gauss_newton_s": ("s", "solver.gauss_newton"),
    "solver.dedup_s": ("s", "solver.dedup"),
    "solver.seeds_s": ("s", "solver.seeds"),
    "solver.reverify_s": ("s", "solver.reverify"),
    "solver.find_solutions_self_s": ("s", "solver.find_solutions"),
    "solver.starts": ("count", "solver.gauss_newton"),
    "solver.converged": ("count", "solver.gauss_newton"),
    "solver.kept": ("count", "solver.dedup"),
    "solver.converged_frac": ("ratio", "solver.gauss_newton"),
    "solver.kept_frac": ("ratio", "solver.dedup"),
    "solver.res_rows": ("count", "solver.res_rows"),
    "solver.jac_rows": ("count", "solver.jac_rows"),
    "analysis.classify_s": ("s", "analysis.classify"),
    "analysis.classify_calls": ("count", "analysis.classify"),
    "analysis.classify_attempts": ("count", "analysis.classify"),
    "analysis.classify_hit_frac": ("ratio", "analysis.classify"),
    "analysis.residual_s": ("s", "analysis.residual"),
    "analysis.residual_pairs": ("count", "analysis.residual"),
    "analysis.residual_exact_frac": ("ratio", "analysis.residual"),
    "families.construct_s": ("s", "families.construct"),
    "families.construct_calls": ("count", "families.construct"),
    "families.invalid_frac": ("ratio", "families.construct"),
    "families.build_h_s": ("s", "families.build_h"),
    "functions.enumerate_multiplicative_s": ("s", "functions.enumerate_multiplicative"),
    "functions.enumerate_multiplicative_calls": ("count", "functions.enumerate_multiplicative"),
    "functions.null_sets_s": ("s", "functions.null_sets"),
    "exactnum.ops": ("count", "exactnum.ops"),
    "semigroups.compose_calls": ("count", "semigroups.compose_calls"),
    "fixtures.get_fixture_s": ("s", "fixtures.get_fixture"),
    "cli.main_s": ("s", "cli.main"),
    "serialize.bytes": ("bytes", "serialize.save_pair"),
    "trace.overhead_frac": ("ratio", None),
}


class Unavailable(RuntimeError):
    """The benchmark cannot run here (no coslaw sources, missing reference)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_workloads():
    src = ROOT / "src"
    if not (src / "coslaw" / "__init__.py").is_file():
        raise Unavailable(f"no coslaw sources under {src}")
    sys.path.insert(0, str(src))
    import coslaw
    import workloads
    if Path(coslaw.__file__).resolve().parent != (src / "coslaw").resolve():
        raise Unavailable(f"coslaw imported from {coslaw.__file__}, not {src}")
    return workloads


def load_reference(workloads, name: str, seed: int) -> list:
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        raise Unavailable(f"no reference outputs at {path}")
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref["seeds"][str(workloads.seed_index(seed))]


def environment(seed: int, workloads) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "commit": commit,
        "seed": seed,
        "seed_index": workloads.seed_index(seed),
    }


def run_pass(calls) -> tuple[list, list]:
    """Wall time and output (or the exception raised) of each call."""
    times, outputs = [], []
    for call in calls:
        start = time.perf_counter()
        try:
            outputs.append(call.run())
        except Exception as e:  # a crash is a failed call, counted by check()
            outputs.append(e)
        times.append(time.perf_counter() - start)
    return times, outputs


def pass_wall(passes: list) -> float:
    """Wall time of the call list: each call's median over the passes, summed.

    The median per call discards a pass that a burst of load on the host
    slowed down, which a median of pass totals over few passes cannot.
    """
    return sum(statistics.median(column) for column in zip(*passes))


def check(calls, outputs, reference) -> list[str]:
    """Labels and reasons of the calls whose output differs from the reference."""
    failures = []
    if len(reference) != len(calls):
        return [f"reference has {len(reference)} calls, workload has {len(calls)}"] * len(calls)
    for call, out, (label, expected) in zip(calls, outputs, reference):
        if isinstance(out, Exception):
            failures.append(f"{call.label}: {type(out).__name__}: {out}")
        elif label != call.label:
            failures.append(f"{call.label}: reference is for {label}")
        elif json.loads(json.dumps(out)) != expected:
            failures.append(f"{call.label}: got {json.dumps(out)}, expected {json.dumps(expected)}")
        elif isinstance(out, dict) and out.get("unclassified"):
            failures.append(f"{call.label}: {out['unclassified']} unclassified points")
    return failures


def setup_sample(args) -> float:
    """Set-up time of a fresh set-up-only process of the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, untraced: list, traced: list, setup_total: dict) -> dict:
    """Per-pass layer figures from the spans and counters of the traced passes.

    Times are self times (span minus its child spans), except
    fixtures.get_fixture_s: the whole time of get_fixture during set-up.
    """
    selfs, n, sums = tracer.self_times(), tracer.span_counts(), tracer.sums
    spans = tracer.spans
    raised = sum(1 for r in spans if r[0] == "families.construct" and r[4])
    attempts = sum(1 for r in spans if r[0] == "families.construct"
                   and r[3] >= 0 and spans[r[3]][0] == "analysis.classify")
    passes = len(traced)

    def frac(a, b):
        return a / b if b else 0.0

    m = {name: selfs.get(src, 0.0) / passes for name, (unit, src) in LAYERS.items() if unit == "s"}
    m["fixtures.get_fixture_s"] = setup_total.get("fixtures.get_fixture", 0.0)
    per_pass = {
        "solver.starts": sums.get("solver.starts", 0),
        "solver.converged": sums.get("solver.converged", 0),
        "solver.kept": sums.get("solver.kept", 0),
        "solver.res_rows": tracer.counts.get("solver.res_rows", 0),
        "solver.jac_rows": tracer.counts.get("solver.jac_rows", 0),
        "analysis.classify_calls": n.get("analysis.classify", 0),
        "analysis.classify_attempts": attempts,
        "analysis.residual_pairs": sums.get("analysis.residual_pairs", 0),
        "families.construct_calls": n.get("families.construct", 0),
        "functions.enumerate_multiplicative_calls": n.get("functions.enumerate_multiplicative", 0),
        "exactnum.ops": tracer.counts.get("exactnum.ops", 0),
        "semigroups.compose_calls": tracer.counts.get("semigroups.compose_calls", 0),
        "serialize.bytes": sums.get("serialize.bytes", 0),
    }
    m.update({k: v / passes for k, v in per_pass.items()})
    m.update({
        "solver.converged_frac": frac(sums.get("solver.converged", 0), sums.get("solver.starts", 0)),
        "solver.kept_frac": frac(sums.get("solver.kept", 0), sums.get("solver.converged", 0)),
        "analysis.classify_hit_frac": frac(sums.get("analysis.classify_hits", 0), attempts),
        "analysis.residual_exact_frac": frac(sums.get("analysis.residual_exact", 0),
                                             n.get("analysis.residual", 0)),
        "families.invalid_frac": frac(raised, n.get("families.construct", 0)),
        "trace.overhead_frac": pass_wall(traced) / pass_wall(untraced) - 1,
    })
    return {name: m[name] for name in LAYERS}


def absent_layers(tracer, setup_counts: dict) -> set[str]:
    """Layer metrics whose wrapped name is gone from coslaw or never ran."""
    seen = set(tracer.span_counts()) | set(setup_counts)
    seen |= {k for k, v in tracer.counts.items() if v}
    return {name for name, (_, src) in LAYERS.items() if src is not None and src not in seen}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_workloads()
        if args.workload not in workloads.WORKLOADS:
            raise Unavailable(f"unknown workload {args.workload!r}; "
                              f"choose from {', '.join(workloads.WORKLOADS)}")
        reference = None if args.setup_only else load_reference(workloads, args.workload, args.seed)
    except Unavailable as e:
        print(f"benchmark unavailable: {e}", file=sys.stderr)
        return 2

    capture = workloads.SolutionCapture.install()
    tracer = None
    if args.trace and not args.setup_only:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        calls = workloads.build(args.workload, args.seed, scratch, capture)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workloads, calls, reference, setup_s, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workloads, calls, reference, setup_s, tracer) -> int:
    setup_total, setup_counts = {}, {}
    if tracer is not None:
        tracer.uninstall()
        setup_total, setup_counts = tracer.total_times(), tracer.span_counts()
        tracer.reset()

    # this process's own set-up is the first sample unless tracing slowed it;
    # the others are taken one after each pass, so they meet different load
    samples = [setup_s] if tracer is None else []
    untraced, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        times, outputs = run_pass(calls)
        untraced.append(times)
        attempted += len(calls)
        failures += check(calls, outputs, reference)
        if tracer is not None:
            tracer.install()
            times, outputs = run_pass(calls)
            tracer.uninstall()
            traced.append(times)
            attempted += len(calls)
            failures += check(calls, outputs, reference)
        samples.append(setup_sample(args))
        per_pass = pass_wall(untraced) + (pass_wall(traced) if traced else 0.0)
        enough = tracer is not None or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start + per_pass > args.seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args))
    env = environment(args.seed, workloads)
    e2e = {
        "wall_s": pass_wall(untraced),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
        absent = set()
    else:
        layers = layer_metrics(tracer, untraced, traced, setup_total)
        metrics = {k: {"value": v, "unit": LAYERS[k][0]} for k, v in layers.items()}
        absent = absent_layers(tracer, setup_counts)

    n_failed = len(failures)
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)}"
          f"{f' (+{len(traced)} traced)' if traced else ''}  calls/pass {len(calls)}")
    print(f"  error_rate {n_failed / attempted:.6g}  ({n_failed} of {attempted} calls)")
    for k, v in e2e.items():
        note = "  (includes trace buffers)" if tracer is not None and k == "peak_rss_mb" else ""
        print(f"  {k:<42} {v:>14.6g} {UNITS[k]}{note}")
    if tracer is not None:
        for k, m in metrics.items():
            shown = "absent" if k in absent else f"{m['value']:>14.6g} {m['unit']}"
            print(f"  {k:<42} {shown}")
    print("env " + json.dumps(env))
    record = dict(result, env=env, workload=args.workload, trace=args.trace,
                  untraced_call_s=untraced, traced_call_s=traced,
                  setup_samples_s=samples, absent=sorted(absent), failures=failures)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json", {"env": env, "workload": args.workload})
    print(json.dumps(result))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
