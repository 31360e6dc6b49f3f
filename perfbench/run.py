"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload vb-window --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds``
(repeated runs of one seeded input set; medians, quartiles and sample
counts are printed, every run counts).  ``--trace 1`` makes one
untraced and one metrics-plane run and replays the workload layer by
layer (see ``layers.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value": ..., "unit": ...}}``).  Runs from the repository
root; builds nothing, and exits non-zero without a result when the
package sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name -> (unit, better) of every end-to-end metric (BENCHMARK.json).
END_TO_END = {
    "throughput_eps": ("1/s", "higher"),
    "cpu_us_per_event": ("us", "lower"),
    "p50_latency_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Measured with the end-to-end metrics and printed beside them, but
#: not part of the result line: on a shared 2-vCPU host, steal bursts
#: move the open loop's p99 by more than any bound the benchmark may
#: set (see NOTES.md).  The traced run gives it as ``serve.p99_latency_s``.
REPORTED = {
    "p99_latency_s": ("s", "lower"),
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _spread(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def summary_lines(args, res: dict, units: dict) -> list:
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} host={json.dumps(host(), sort_keys=True)}"
    ]
    samples = res.get("samples", {})
    shown = [(name, value, units[name][0], "") for name, value in res["metrics"].items()]
    shown += [
        (name, value, REPORTED[name][0], " (reported, no bound)")
        for name, value in res.get("reported", {}).items()
    ]
    for name, value, unit, note in shown:
        s = samples.get(name)
        if s:
            q1, q3 = _spread(s)
            lines.append(
                f"  {name:<28} {value:>14.6g} {unit:<8} q1={q1:.6g} q3={q3:.6g} n={len(s)}{note}"
            )
        else:
            lines.append(f"  {name:<28} {value:>14.6g} {unit}{note}")
    failed, attempted = res["failed"], res["attempted"]
    lines.append(
        f"  {'error_rate':<28} {failed / attempted:>14.6g} fraction ({failed}/{attempted})"
    )
    for err in res["errors"]:
        lines.append(f"  error: {err}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        res = layers.trace(args.workload, args.seed)
        units = layers.PER_LAYER
        res["metrics"] = {k: res["metrics"][k] for k in units if k in res["metrics"]}
    else:
        res = workloads.measure(args.workload, args.seed, args.seconds)
        units = END_TO_END
        values = res.pop("values")
        res["metrics"] = {k: values[k] for k in units}
        res["reported"] = {k: values[k] for k in REPORTED}
    for line in summary_lines(args, res, units):
        print(line)
    print(
        json.dumps(
            {
                "host": host(),
                "workload": args.workload,
                "seed": args.seed,
                "samples": {k: len(v) for k, v in res.get("samples", {}).items()},
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and not res["errors"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    k: {"value": v, "unit": units[k][0]} for k, v in res["metrics"].items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
