"""Command line of the serving benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload tune-feedback --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each run prints its provenance and every metric by name with its unit,
then, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (and, for traced runs, the span file) is written under
``perfbench/out/``.  The exit code is 0 only when every answer passed
the correctness gate; ``--workload all`` runs each workload in a fresh
process.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks the table and model for the self-tests",
    )
    parser.add_argument("--out", type=Path, default=OUT,
                        help="directory for records, spans and cached inputs")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def _import_program():
    """Import the program from this checkout's ``src``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def run_one(args) -> int:
    from perfbench import harness, spec

    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(spec.WORKLOADS)}, all", file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    rows = spec.TABLE_ROWS
    if args.scale == "tiny":
        workload = dataclasses.replace(workload, **spec.TINY_OVERRIDES)
        rows = spec.TINY_TABLE_ROWS
    record = asyncio.run(harness.run(
        workload, args.seed, args.seconds, bool(args.trace), rows,
        args.out / "cache", SRC,
    ))
    record["provenance"] = harness.provenance(ROOT, workload, rows)

    trace_doc = record.pop("trace_doc", None)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if trace_doc is not None:
        # One span file per workload (the latest traced run): a tune-feedback
        # file holds about a million spans.
        trace_doc["provenance"] = record["provenance"]
        trace_path = args.out / f"{workload.name}.spans.json"
        trace_path.write_text(json.dumps(trace_doc))
        record["trace_file"] = str(trace_path.relative_to(args.out))
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))

    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = record["per_layer"] if args.trace else record["end_to_end"]
    prov = record["provenance"]
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} "
          f"commit={prov['git_commit']} source={prov['source_sha256'][:12]}")
    print(f"# params {json.dumps(prov['workload'], sort_keys=True)}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']:.6f} samples={record['samples']}")
    for message in record["failures"]["messages"]:
        print("# failure: " + message.strip().replace("\n", "\n#   "))
    if args.trace:
        print(f"# attribution {record['attribution']}")
        print(f"# layer checks {record['layer_checks']}")
        for name, row in sorted(record["self_times"].items()):
            print(f"# self time {name:28s} n={row['count']:<8d} "
                  f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
    for metric in table:
        print(f"{metric.name:34s} {values[metric.name]:16.6f} {metric.unit}")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
    }))
    return 0 if correct else 1


def run_all(argv) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    from perfbench import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   *_replace_workload(argv, name)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def _replace_workload(argv, name):
    out = list(argv)
    for i, arg in enumerate(out):
        if arg == "--workload":
            out[i + 1] = name
        elif arg.startswith("--workload="):
            out[i] = f"--workload={name}"
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    _import_program()
    if args.workload == "all":
        return run_all(argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
