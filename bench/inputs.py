"""Seeded input generation for the benchmark workloads.

Run as a script from the root of a checkout, it imports `reduction_lab` from
`src/` and writes one workload's scenario and matrix files plus a
`manifest.json` listing the operations to run:

    python3 bench/inputs.py --workload sweeps --seed 3 --out .bench_work/sweeps-3

The same seed always writes the same bytes. The benchmark times this script in
a fresh interpreter to measure set-up time.
"""

import argparse
import json
import os
import random
import sys

BATTERY_SEEDS = 40  # a multiple of 5, so every window holds each dense n = 2..6 equally often
BATTERY_CHUNK = 5  # seeds per `suite` operation, so the reference loop runs between them
GRID_COUNT = 101
SWEEP_SIZES = (8, 12, 16, 24, 32)
SWEEP_BASE_SEED = 10_000
SWEEP_JITTER = 0.05
OPERATOR_N = 100
SPB_SCALES = (1e-8, 1e-2, 1.0, 1e4, 1e8)


def _lib():
    import reduction_lab

    return reduction_lab


def battery_inputs(seed, out):
    """The `suite` battery over a window of BATTERY_SEEDS consecutive battery seeds,
    BATTERY_CHUNK seeds per operation.

    Seed 0 is the window 0..N-1, whose first operation is the CLI's own
    `suite --seed-count BATTERY_CHUNK`; seed k shifts it to kN..kN+N-1.
    """
    first = seed * BATTERY_SEEDS
    starts = range(first, first + BATTERY_SEEDS, BATTERY_CHUNK)
    return [
        {"kind": "suite", "seeds": list(range(start, start + BATTERY_CHUNK)), "out": f"suite{k}.txt"}
        for k, start in enumerate(starts)
    ]


def _write_scenario(out, name, family, sections):
    lines = ["[family]"] + [f"{k} = {v}" for k, v in family.items()]
    for header, items in sections.items():
        lines.append(f"[{header}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


def operators_inputs(seed, out):
    """Discretized operators at n = 100-160 and one dense matrix at scales 1e-8..1e8.

    The seed moves coefficient widths, drift slopes and domain lengths inside
    narrow ranges and picks the dense matrix; the nonlocal gaussian:0.1 kernel
    at n = 100 is fixed because it is a known growth_bound failure.
    """
    lib = _lib()
    rnd = random.Random(seed)
    ops = []

    def check(name, family, operator):
        scenario = _write_scenario(out, f"{name}.ini", family, {"operator": operator})
        ops.append({"kind": "check", "scenario": scenario, "out": f"{name}.report"})

    for boundary in ("dirichlet", "neumann", "periodic"):
        for drift in (False, True):
            length = round(rnd.uniform(0.9, 1.1), 6)
            operator = {
                "n": OPERATOR_N,
                "length": length,
                "boundary": boundary,
                "a": "constant:1",
                "c": f"gaussian:{rnd.uniform(0.09, 0.11):.6f}",
            }
            if drift:
                # changes sign at mid-domain, so the cost does not swing with the length
                slope = rnd.uniform(0.9, 1.1)
                operator["b"] = f"linear:{slope:.6f},{-0.5 * slope * length:.6f}"
            name = f"elliptic_{boundary}" + ("_drift" if drift else "")
            check(name, {"kind": "elliptic"}, operator)
    check("nonlocal", {"kind": "nonlocal"}, {"n": OPERATOR_N, "kernel": "gaussian:0.1"})
    check(
        "laplacian",
        {"kind": "laplacian"},
        {"n": 160, "length": f"{rnd.uniform(0.9, 1.1):.6f}", "boundary": "neumann"},
    )
    dense = lib.random_ess_nonneg(4, 5000 + seed)
    for k, scale in enumerate(SPB_SCALES):
        name = f"dense_scale{k}.txt"
        lib.save_matrix(os.path.join(out, name), scale * dense)
        ops.append({"kind": "spb", "matrix": name})
    return ops


def _separated_diagonal(lib, n, lo, hi, top, seed):
    """Seeded diagonal in [lo, hi) whose largest entry is raised to top.

    The gap between the two largest entries sets how slowly power iteration
    converges near m = 0 (or alpha = 0); keeping it at least top - hi stops the
    seed's jitter from closing it and swinging the cost of a pass.
    """
    import numpy as np

    d = np.diagonal(lib.random_diagonal(n, lo, hi, seed)).copy()
    d[np.argmax(d)] = top
    return d


def _threshold_growth(lib, P, seed):
    """Diagonal V of mixed sign with spb(mA + V) crossing zero for A = P - I.

    spb(mA + V) falls from max V (m -> 0) to pi @ V (m -> inf), pi the
    stationary distribution of P; V is shifted so that pi @ V = -0.25.
    """
    import numpy as np

    d = _separated_diagonal(lib, P.shape[0], -1.0, 0.4, 1.0, seed)
    w, vecs = np.linalg.eig(P.T)
    pi = np.real(vecs[:, np.argmax(w.real)])
    pi = pi / pi.sum()
    d = d - float(pi @ d) - 0.25
    return np.diag(d)


def sweeps_inputs(seed, out):
    """curve, check and threshold on dense linear, karlin and kingman families.

    The families are built from fixed generator seeds and the workload seed
    scales every entry by a factor in [1 - SWEEP_JITTER, 1 + SWEEP_JITTER]:
    how fast power iteration converges on a random family varies widely with
    its draw, and a pass must cost about the same on every seed. Grids have
    GRID_COUNT points; the lower-left block of each kingman c is zero, so those
    families are reducible and take the SCC path.
    """
    import numpy as np

    lib = _lib()
    rng = np.random.default_rng(seed)
    base = SWEEP_BASE_SEED
    ops = []

    def jitter(M):
        return M * (1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0, M.shape))

    def stochastic(n, generator_seed):
        P = jitter(lib.random_stochastic(n, generator_seed))
        return P / P.sum(axis=1, keepdims=True)

    def save(name, M):
        lib.save_matrix(os.path.join(out, name), M)
        return name

    def grid_ops(name, family, grid):
        scenario = _write_scenario(out, f"{name}.ini", family, {"grid": grid})
        ops.append({"kind": "curve", "scenario": scenario, "out": f"{name}.csv", "family": family, "grid": grid})
        ops.append({"kind": "check", "scenario": scenario, "out": f"{name}.report"})

    for n in SWEEP_SIZES:
        family = {
            "kind": "linear",
            "A_file": save(f"linear{n}_A.txt", jitter(lib.random_ess_nonneg(n, base + n))),
            "V_file": save(f"linear{n}_V.txt", jitter(lib.random_diagonal(n, -1.0, 1.0, base + n + 1))),
        }
        grid_ops(f"linear{n}", family, {"name": "m", "start": 0.1, "stop": 5, "count": GRID_COUNT})
    for n in SWEEP_SIZES[:-1]:
        family = {
            "kind": "karlin",
            "P_file": save(f"karlin{n}_P.txt", stochastic(n, base + n + 2)),
            "D_file": save(f"karlin{n}_D.txt", jitter(np.diag(_separated_diagonal(lib, n, 0.2, 1.6, 2.0, base + n + 3)))),
        }
        grid_ops(f"karlin{n}", family, {"name": "alpha", "start": 0, "stop": 1, "count": GRID_COUNT})
    for n in SWEEP_SIZES:
        c = np.abs(lib.random_ess_nonneg(n, base + n + 4))
        c[n // 2 :, : n // 2] = 0.0
        family = {
            "kind": "kingman",
            "c_file": save(f"kingman{n}_c.txt", jitter(c)),
            "g_file": save(f"kingman{n}_g.txt", jitter(lib.random_ess_nonneg(n, base + n + 5))),
        }
        grid_ops(f"kingman{n}", family, {"name": "theta", "start": -1, "stop": 1, "count": GRID_COUNT})
    for n in SWEEP_SIZES:
        P = stochastic(n, base + n + 6)
        family = {
            "kind": "linear",
            "A_file": save(f"threshold{n}_A.txt", P - np.eye(n)),
            "V_file": save(f"threshold{n}_V.txt", _threshold_growth(lib, P, base + n + 7)),
        }
        scenario = _write_scenario(out, f"threshold{n}.ini", family, {"threshold": {"m_lo": 0.01, "m_hi": 100}})
        ops.append({"kind": "threshold", "scenario": scenario, "family": family})
    return ops


WORKLOADS = {"battery": battery_inputs, "operators": operators_inputs, "sweeps": sweeps_inputs}


def write_inputs(workload, seed, out):
    _lib()  # set-up time covers the library import for every workload
    os.makedirs(out, exist_ok=True)
    ops = WORKLOADS[workload](seed, out)
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
