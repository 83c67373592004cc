#!/usr/bin/env python3
"""Print a sha256 of each benchmark pass's outputs and of the `suite` report text, or their verdicts.

For every workload and seed, the workload's inputs are written with
`bench/inputs.py` under the checkout's `.bench_work/` and the operations run
once untraced and once traced through `bench/run.run_pass`; the digest covers
each operation's exit code, stdout, stderr, exception name and output file. A
last line digests the text of `battery.run_suite(N)`. It digests the library
under the `src/` of the checkout that holds the script, so the output of two
checkouts differs exactly where their bytes do:

    python3 scripts/output_digest.py --workloads battery operators sweeps --seeds 0-2 --suite 600

With `--verdicts` it runs each pass once, untraced, and prints in place of the
digests one line per operation with its exit code (or the name of the
exception it raised), then one line per report line with the line's name and
its pass/fail word, and the same for each line of `run_suite(N)`. No margin is
printed, so two checkouts whose reports differ at rounding level print the
same lines, and a diff of the two outputs lists every verdict that flipped:

    python3 scripts/output_digest.py --verdicts --workloads operators --seeds 0-59 --suite 0
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def seed_range(text: str) -> range:
    """The seeds `first-last` (both included) or the one seed `first`."""
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if not 0 <= first <= last:
        raise ValueError(text)
    return range(first, last + 1)


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()


def workload_ops(workload: str, seed: int) -> tuple[str, list]:
    """(work directory, operations) of the workload's inputs at `seed`, written afresh."""
    work = os.path.join(run.WORK_ROOT, f"digest-{workload}-{seed}")
    inputs.write_inputs(workload, seed, work)
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        return work, json.load(fh)["ops"]


def pass_digests(lib, workload: str, seed: int) -> tuple[str, str]:
    """(untraced, traced) digests of one run_pass each over the workload's operations at `seed`."""
    work, ops = workload_ops(workload, seed)
    untraced = run.run_pass(lib, ops, work)[3]
    traced = run.traced_pass(tracing.Tracer("reduction_lab"), lib, ops, work)[3]
    return digest(untraced), digest(traced)


def report_verdicts(prefix: str, text: str) -> list[str]:
    """`prefix name word` for each `name,word,margin,...` line of a check or suite report."""
    return [f"{prefix} {' '.join(line.split(',')[:2])}" for line in text.splitlines()]


def pass_verdicts(lib, workload: str, seed: int) -> list[str]:
    """The verdict lines of one untraced run_pass over the workload's operations at `seed`."""
    work, ops = workload_ops(workload, seed)
    lines = []
    for op, (rc, _out, _err, error, data) in zip(ops, run.run_pass(lib, ops, work)[3]):
        prefix = f"{workload} {seed} {op.get('out') or op.get('matrix') or op['scenario']}"
        lines.append(f"{prefix} exit {rc if error is None else error}")
        if data is not None and op["kind"] in ("check", "suite"):
            lines += report_verdicts(prefix, data.decode())
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=range(3), help="first-last, both included")
    parser.add_argument("--suite", type=int, default=600, help="seed count of run_suite; 0 skips it")
    parser.add_argument("--verdicts", action="store_true", help="print exit codes and pass/fail words, not digests")
    args = parser.parse_args()
    os.chdir(ROOT)  # the work paths, which error messages may print, are the same in every checkout
    lib = run.import_library(ROOT)
    run.set_blas_threads(run.BLAS_THREADS)
    for workload in args.workloads:
        for seed in args.seeds:
            if args.verdicts:
                print("\n".join(pass_verdicts(lib, workload, seed)), flush=True)
                continue
            untraced, traced = pass_digests(lib, workload, seed)
            print(f"{workload} {seed} untraced {untraced}", flush=True)
            print(f"{workload} {seed} traced {traced}", flush=True)
    if args.suite:
        text = "".join(line.format() + "\n" for line in lib.battery.run_suite(args.suite))
        if args.verdicts:
            print("\n".join(report_verdicts(f"suite {args.suite}", text)))
        else:
            print(f"suite {args.suite} {digest(text.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
