"""reduction-lab benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload battery --seed 0 --seconds 15 --trace 0

Set-up writes the workload's input files from the seed in a fresh interpreter
(`bench/inputs.py`), several times, and reports the median as `setup_s`. The
measured part then runs the workload's operations in this process, each
through `reduction_lab.cli.main(argv)` once the previous one has returned,
and repeats the whole pass until `--seconds` have elapsed. Every pass must
produce the same bytes; the first is checked against an independent LAPACK
reference (`bench/verify.py`).

The speed of a shared host drifts by 20% and more over tens of seconds, so
pass times in seconds differ more between runs than a regression worth
catching. A fixed reference loop that does not use `reduction_lab` therefore
runs before every operation of the timed passes, and `wall_ref`/`cpu_ref`
give the pass in units of the reference loop's time measured next to it.

`--trace 0` reports the end-to-end metrics of untraced passes, then makes one
traced pass whose recorded spectral_bound inputs give `spb_digits_min`.
`--trace 1` alternates untraced and traced passes and reports per-layer
metrics (`bench/tracing.py`). The last line of stdout is the JSON result; the
line before it records the machine.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("battery", "operators", "sweeps")
SETUP_REPEATS = 5
MIN_PASSES = 2
BLAS_THREADS = 1  # one core: a second BLAS thread on a shared 2-vCPU host times the scheduler
REF_SIZES = (4, 100)  # the small and the large end of the workloads' dense solves
REF_ITERATIONS = 500  # about 20 ms on a 2.1 GHz Xeon vCPU
REF_WARMUP = 5
REF_NEIGHBOURS = 4  # reference loops around an operation that normalise it
MIN_TRACED_PAIRS = 2  # untraced/traced pairs behind trace.overhead_s
WORK_ROOT = ".bench_work"
# per battery seed, measured at the seed commit and fixed by the battery's structure
BATTERY_SPB_CALLS_PER_SEED = 77
BATTERY_PERRON_VECTORS_PER_SEED = 1


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# -- machine ---------------------------------------------------------------
OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


def _openblas_libraries():
    """(file name, symbol lookup) for each OpenBLAS loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        pattern = next((p for p in OPENBLAS_SYMBOLS if hasattr(lib, p.format("get_num_threads"))), None)
        if pattern is not None:
            yield os.path.basename(path), lambda name, lib=lib, pattern=pattern: getattr(lib, pattern.format(name))


def set_blas_threads(threads):
    """Set each loaded OpenBLAS to `threads` threads; record what it had and has."""
    record = []
    for name, symbol in _openblas_libraries():
        get_threads = symbol("get_num_threads")
        get_threads.restype = ctypes.c_int
        config = symbol("get_config")
        config.restype = ctypes.c_char_p
        before = get_threads()
        symbol("set_num_threads")(threads)
        record.append({"library": name, "config": config().decode(), "threads_at_start": before, "threads": get_threads()})
    return record


def machine_record(blas):
    import numpy
    import scipy

    threads_env = os.environ.get("REDUCTION_LAB_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "reduction_lab_threads_set": threads_env is not None,
        "reduction_lab_threads": threads_env,
    }


# -- set-up ----------------------------------------------------------------
def _tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def set_up(workload, seed, work, repeats):
    """Write the inputs `repeats` times from a fresh interpreter; (times, same bytes each time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", work]
    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"input generation failed:\n{done.stderr.decode(errors='replace')}")
        digests.add(_tree_digest(work))
    return times, len(digests) == 1


# -- reference loop --------------------------------------------------------
_REF_MATRICES = [np.random.default_rng(n).uniform(0.5, 1.0, (n, n)) for n in REF_SIZES]


def reference_loop():
    """(wall, cpu) seconds of a fixed unit of work that does not touch reduction_lab.

    A fixed number of power-iteration steps on fixed positive matrices, written
    out here: the mix of small BLAS calls and interpreter work that the
    library's solves are made of, so that a slower host slows both alike.
    """
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for B in _REF_MATRICES:
        x = np.full(B.shape[0], 1.0 / B.shape[0])
        for _ in range(REF_ITERATIONS):
            y = B @ x
            lam = float(x @ y) / float(x @ x)
            float(np.max(np.abs(y - lam * x)))
            x = y / float(y.sum())
    return time.perf_counter() - wall0, time.process_time() - cpu0


def reference_units(samples, refs, column):
    """Each operation in reference-loop units: the median over passes of its
    time over the median of the REF_NEIGHBOURS reference loops around it.

    `samples` lists (operation index, (wall, cpu)) in the order they ran;
    refs[k] ran just before samples[k] and refs[-1] after the last one.
    """
    half = REF_NEIGHBOURS // 2
    ratios = {}
    for k, (index, times) in enumerate(samples):
        near = [ref[column] for ref in refs[max(0, k + 1 - half) : k + 1 + half]]
        ratios.setdefault(index, []).append(times[column] / statistics.median(near))
    return [statistics.median(ratios[index]) for index in sorted(ratios)]


# -- one pass ----------------------------------------------------------------
def _argv(op, work):
    path = lambda name: os.path.join(work, name)  # noqa: E731
    kind = op["kind"]
    if kind == "suite":
        return ["suite", "--seed-count", str(len(op["seeds"])), "--out", path(op["out"])]
    if kind in ("check", "curve"):
        return [kind, path(op["scenario"]), "--out", path(op["out"])]
    if kind == "threshold":
        return ["threshold", path(op["scenario"])]
    return ["spb", path(op["matrix"])]


def _battery_window(lib, seeds, out):
    """What `suite` does, for a seed window that does not start at 0."""
    lines = [line for seed in seeds for line in lib.battery.seed_battery(seed)]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line.format() + "\n")
    return 1 if any(not line.passed for line in lines) else 0


def run_op(lib, op, work):
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if op["kind"] == "suite" and op["seeds"][0] != 0:
                rc = _battery_window(lib, op["seeds"], os.path.join(work, op["out"]))
            else:
                rc = lib.cli.main(_argv(op, work))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a benchmark error
            rc, error = None, type(exc).__name__
    return rc, stdout.getvalue(), stderr.getvalue(), error


def run_pass(lib, ops, work, refs=None):
    """Run every operation once; returns wall and CPU seconds of the pass, the
    (wall, cpu) seconds of each operation, and the outputs.

    With `refs`, the reference loop runs before each operation and its times
    are appended to `refs`.
    """
    for op in ops:
        if "out" in op:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(work, op["out"]))
    results, times = [], []
    for op in ops:
        if refs is not None:
            refs.append(reference_loop())
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        results.append(run_op(lib, op, work))
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    wall = sum(t[0] for t in times)
    cpu = sum(t[1] for t in times)
    outputs = []
    for op, (rc, out, err, error) in zip(ops, results):
        data = None
        if "out" in op and os.path.exists(os.path.join(work, op["out"])):
            with open(os.path.join(work, op["out"]), "rb") as fh:
                data = fh.read()
        outputs.append((rc, out, err, error, data))
    return wall, cpu, times, outputs


def traced_pass(tracer, lib, ops, work):
    tracer.reset()
    tracer.install()
    try:
        return run_pass(lib, ops, work)
    finally:
        tracer.uninstall()


def tally(ops, outputs):
    """(attempted, failed) operations: check and suite lines, other commands one each."""
    attempted = failed = 0
    for op, (rc, _out, _err, error, data) in zip(ops, outputs):
        lines = data.decode().splitlines() if data is not None and op["kind"] in ("check", "suite") else []
        if lines and rc in (0, 1) and error is None:
            attempted += len(lines)
            failed += sum(1 for line in lines if line.split(",")[1:2] != ["pass"])
        else:
            attempted += 1
            failed += 0 if (rc == 0 and error is None) else 1
    return attempted, failed


# -- main ----------------------------------------------------------------
def import_library(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "reduction_lab", "__init__.py")):
        fail(f"no reduction_lab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import reduction_lab
    import reduction_lab.cli

    if not os.path.abspath(reduction_lab.__file__).startswith(src + os.sep):
        fail(f"imported reduction_lab from {reduction_lab.__file__}, not from {src}")
    return reduction_lab


def main():
    parser = argparse.ArgumentParser(description="reduction-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    lib = import_library(root)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    machine = machine_record(set_blas_threads(BLAS_THREADS))
    if machine["reduction_lab_threads_set"]:
        print("bench: warning: REDUCTION_LAB_THREADS is set; this run is not the default configuration", file=sys.stderr)

    setup_times, same_inputs = set_up(args.workload, args.seed, work, SETUP_REPEATS if args.trace == 0 else 1)
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    problems = [] if same_inputs else ["set-up wrote different bytes for the same seed"]
    tracer = tracing.Tracer("reduction_lab")
    untraced, traced, layer_runs, count_runs = [], [], [], []
    # reference loops run only around the untraced passes of --trace 0
    refs = [] if args.trace == 0 else None
    for _ in range(REF_WARMUP):
        reference_loop()
    start = time.perf_counter()
    while True:
        if args.trace == 1 and len(traced) < len(untraced):
            traced.append(traced_pass(tracer, lib, ops, work))
            layer_runs.append(tracer.layer_metrics())
            count_runs.append(tracer.counts())
        else:
            untraced.append(run_pass(lib, ops, work, refs))
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED_PAIRS if args.trace == 1 else len(untraced) >= MIN_PASSES
        if elapsed >= args.seconds and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace == 0:
        refs.append(reference_loop())
        traced.append(traced_pass(tracer, lib, ops, work))
        count_runs.append(tracer.counts())

    reference = untraced[0][3]
    if any(outputs != reference for _w, _c, _t, outputs in untraced[1:]):
        problems.append("untraced passes produced different outputs")
    if any(outputs != reference for _w, _c, _t, outputs in traced):
        problems.append("traced and untraced passes produced different outputs")
    if any(c != count_runs[0] for c in count_runs[1:]):
        problems.append("traced counts differ between passes")
    calls = count_runs[0]["calls"]
    if args.workload == "battery":
        seeds = sum(len(op["seeds"]) for op in ops)
        got = (calls.get("perron.spectral_bound", 0), calls.get("perron.perron_vectors", 0))
        want = (BATTERY_SPB_CALLS_PER_SEED * seeds, BATTERY_PERRON_VECTORS_PER_SEED * seeds)
        if got != want:
            problems.append(f"battery made {got} spectral_bound/perron_vectors calls, expected {want}")
    problems += verify.check_outputs(ops, reference, work)
    digits, _width = tracer.accuracy()
    if digits < verify.MIN_DIGITS:
        problems.append(f"a spectral_bound result has only {digits:.2f} correct digits")

    passes = untraced + (traced if args.trace == 1 else [])
    attempted = failed = 0
    for _w, _c, _t, outputs in passes:
        a, f = tally(ops, outputs)
        attempted += a
        failed += f

    if args.trace == 0:
        samples = [(index, op_times) for _w, _c, times, _o in untraced for index, op_times in enumerate(times)]
        op_wall_ref = reference_units(samples, refs, 0)
        metrics = {
            "wall_ref": (sum(op_wall_ref), "ref"),
            "cpu_ref": (sum(reference_units(samples, refs, 1)), "ref"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_share": (1.0 - failed / attempted, "ratio"),
            "spb_digits_min": (digits, "digits"),
        }
    else:
        metrics = {}
        for name, (value, unit) in layer_runs[0].items():
            # counts repeat exactly (checked above); times vary, so take their median
            if unit != "count":
                value = statistics.median(run[name][0] for run in layer_runs)
            metrics[name] = (value, unit)
        overhead = statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")

    for problem in problems:
        print(f"bench: incorrect: {problem}", file=sys.stderr)
    record = {
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_times,
        "untraced_wall_s": [p[0] for p in untraced],
        "untraced_cpu_s": [p[1] for p in untraced],
        "traced_wall_s": [p[0] for p in traced],
    }
    if refs:
        record["reference_wall_s"] = statistics.median(r[0] for r in refs)
        record["reference_cpu_s"] = statistics.median(r[1] for r in refs)
        record["operation_wall_ref"] = op_wall_ref
    print(json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
