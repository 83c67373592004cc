"""Independent checks of the program's outputs.

Spectral bounds are compared with `scipy.linalg.eigvals` (LAPACK), never with
`reduction_lab.oracle`, so the reference does not share code with the library
under test. Matrices are read from the generated input files with numpy and
each family matrix is built from its definition here.
"""

import os

import numpy as np
import scipy.linalg

MIN_DIGITS = 8.0  # an spb may be off from LAPACK by at most 1e-8 * ||M||_inf
SPB_TOL = 10.0**-MIN_DIGITS
DERIVATIVE_TOL = 1e-6  # relative to ||dM/dm||_inf


def load(work, name):
    return np.loadtxt(os.path.join(work, name), skiprows=1, ndmin=2)


def norm_inf(M):
    return max(float(np.max(np.abs(M).sum(axis=1))), np.finfo(float).tiny)


def reference_spb(M):
    return float(np.max(scipy.linalg.eigvals(M).real))


def reference_derivative(M, dM):
    """d spb/dm = (y^H dM x) / (y^H x) for the left/right eigenvectors of the rightmost eigenvalue."""
    w, left, right = scipy.linalg.eig(M, left=True, right=True)
    k = int(np.argmax(w.real))
    y, x = left[:, k], right[:, k]
    return float(np.real((y.conj() @ dM @ x) / (y.conj() @ x)))


def family_matrix(family, work, p):
    """The swept matrix at parameter p and its derivative in p."""
    kind = family["kind"]
    if kind == "linear":
        A, V = load(work, family["A_file"]), load(work, family["V_file"])
        return p * A + V, A
    if kind == "karlin":
        P, D = load(work, family["P_file"]), load(work, family["D_file"])
        n = P.shape[0]
        return ((1.0 - p) * np.eye(n) + p * P) @ D, None
    c, g = load(work, family["c_file"]), load(work, family["g_file"])
    return np.where(c != 0.0, c * np.exp(g * p), 0.0), None


def _spb_error(M, value):
    return abs(value - reference_spb(M)) / norm_inf(M)


def check_report(op, rc, text):
    lines = text.splitlines()
    problems = []
    for line in lines:
        parts = line.split(",", 3)
        if len(parts) != 4 or parts[1] not in ("pass", "fail"):
            problems.append(f"{op['out']}: malformed line {line!r}")
            continue
        try:
            float(parts[2])
        except ValueError:
            problems.append(f"{op['out']}: margin is not a number in {line!r}")
    if not lines:
        problems.append(f"{op['out']}: empty report")
    if rc != (1 if any(",fail," in line for line in lines) else 0):
        problems.append(f"{op['out']}: exit code {rc} disagrees with the report")
    if op["kind"] == "suite":
        tags = [line.split(".", 1)[0] for line in lines]
        want = [f"s{seed:03d}" for seed in op["seeds"]]
        if sorted(set(tags), key=tags.index) != want:
            problems.append(f"{op['out']}: report does not cover seeds {want[0]}..{want[-1]} in order")
    return problems


def check_curve(op, text, work):
    lines = text.splitlines()
    g = op["grid"]
    grid = np.linspace(float(g["start"]), float(g["stop"]), int(g["count"]))
    header = lines[0].split(",") if lines else []
    if header[:2] != ["param", "spb"] or len(lines) != len(grid) + 1:
        return [f"{op['out']}: expected a param,spb header and {len(grid)} rows"]
    worst_spb = worst_derivative = 0.0
    for p, row in zip(grid, lines[1:]):
        values = [float(x) for x in row.split(",")]
        if values[0] != p:
            return [f"{op['out']}: parameter {values[0]!r} is not the grid point {p!r}"]
        M, dM = family_matrix(op["family"], work, p)
        worst_spb = max(worst_spb, _spb_error(M, values[1]))
        if len(values) == 3:
            ref = reference_derivative(M, dM)
            worst_derivative = max(worst_derivative, abs(values[2] - ref) / norm_inf(dM))
    problems = []
    if worst_spb > SPB_TOL:
        problems.append(f"{op['out']}: spb off from LAPACK by {worst_spb:.3g} relative")
    if worst_derivative > DERIVATIVE_TOL:
        problems.append(f"{op['out']}: analytic derivative off by {worst_derivative:.3g} relative")
    return problems


def check_outputs(ops, outputs, work):
    """Problems found in one pass's outputs; failed operations are counted elsewhere, not checked."""
    problems = []
    for op, (rc, out, _err, error, data) in zip(ops, outputs):
        kind = op["kind"]
        if error is not None:
            continue
        if kind in ("check", "suite"):
            if rc in (0, 1):
                problems += check_report(op, rc, data.decode() if data is not None else "")
        elif rc != 0:
            continue
        elif kind == "curve":
            problems += check_curve(op, data.decode() if data is not None else "", work)
        elif kind == "threshold":
            m_star = float(out.strip())
            M, _ = family_matrix(op["family"], work, m_star)
            if abs(reference_spb(M)) / norm_inf(M) > SPB_TOL:
                problems.append(f"{op['scenario']}: spb at the threshold {m_star!r} is {reference_spb(M):.3g}")
        else:
            M = load(work, op["matrix"])
            value = float(out.split("\n", 1)[0].split()[1])
            if _spb_error(M, value) > SPB_TOL:
                problems.append(f"{op['matrix']}: spb {value!r} off from LAPACK by {_spb_error(M, value):.3g} relative")
    return problems
