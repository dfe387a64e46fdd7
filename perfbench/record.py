"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py [workload ...]

Runs one pass of each workload for every seed index and writes
perfbench/reference/<workload>.json.  Run it only on a commit whose outputs
are the accepted ones; a later commit must reproduce them.
"""

import json
import sys

from run import HERE, environment, import_workloads, run_pass


def record(workloads, name: str, capture) -> None:
    seeds = {}
    scratch = HERE / "out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    for idx in range(workloads.REFERENCE_SEEDS):
        calls = workloads.build(name, idx, scratch, capture)
        times, outputs = run_pass(calls)
        for call, out in zip(calls, outputs):
            if isinstance(out, Exception):
                raise RuntimeError(f"{name} seed {idx}: {call.label} raised {out!r}")
        seeds[str(idx)] = [[c.label, json.loads(json.dumps(o))] for c, o in zip(calls, outputs)]
        print(f"{name} seed {idx}: {len(calls)} calls in {sum(times):.2f} s", flush=True)
    env = environment(0, workloads)
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"commit": env["commit"], "seeds": seeds}
    path.write_text(json.dumps(payload, indent=0, separators=(",", ":")) + "\n", encoding="utf-8")


def main() -> int:
    workloads = import_workloads()
    capture = workloads.SolutionCapture.install()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(workloads, name, capture)
    return 0


if __name__ == "__main__":
    sys.exit(main())
