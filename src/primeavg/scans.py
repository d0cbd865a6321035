"""Empirical scanners for the improving and maximal inequalities.

Theorem-level claims are asymptotic with ineffective constants; these scans
collect desk-scale evidence: ratio stability across dyadic N for the
fixed-scale improving inequality, and bounded weak-type ratios for the
dyadic maximal function.  Each scan returns its rows and a
{"parameters", "summary"} dict; every random choice flows from a single seed
that is echoed into the parameters.

The improving inequality is the one-N case of the maximal function, so both
scans admit their progressions by one rule (_run_scan_cells) and their cells
read sup over N of |A_N 1_F| from one generator (_family_sups).

Two input families, the interval [0, N/2) and the progression segment
{n < N/2 : n = b mod y}, are arithmetic runs {s + t i : i < K} with t = 1 or
y.  Their average needs no transform: the kernel phi(y)/N Lambda(n) lives on
the one class c = b mod t, so
    A_N 1_F(s + c + t m) = phi(y)/N (P(min(m, J - 1)) - P(m - K)),
with P the running sum of Lambda along that class (0 at m < 0) and J its
number of points below N (the prefix-sum identity; Blelloch, Prefix sums and
their applications, CMU-CS-90-190, 1990).  The sums are over the integers, not
Z_M, so nothing wraps.  One P, summed below N_max, serves every N of a maximal
cell.  P is held as two float64 parts: hi, each term rounded to a multiple of
2^(e-52) with 2^e above the total, whose running sums are exact, and the
remainder lo, whose running sums err far below a unit in the last place.  So
each difference is rounded once and the scale once, an error at most the
FFT path's (a test pins both against an exact sum).

The other families (Bernoulli sets, the greedy set) go through the FFT: each
cell evaluates their average, a linear convolution, as a cyclic one on Z_M
with M = pow2_at_least(2 N_max), and sup_abs folds it into the sup over N.
Every kernel lies in [0, N) with N <= N_max and every input set in
[0, N_max), so the linear convolution is supported on [0, 2 N_max - 1):
nothing wraps, and Z_M holds exactly its values (Oppenheim and Schafer,
Discrete-Time Signal Processing, 8.7).
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import multiprocessing
import warnings

import numpy as np

from .multiplier import a_hat_profile, check_grid, indicator, pow2_at_least, sup_abs
from .tables import Progression, build_tables, default_residue, phi, reduced_residues, von_mangoldt

# Desk-scale replacement for the ineffective asymptotic onset threshold.
DEFAULT_N_FLOOR_FACTOR = 1 << 10
# Exponents j of the Bernoulli input families at density 2^-j, by scan.
IMPROVING_DENSITIES = (3, 5)
MAXIMAL_DENSITIES = (3,)
VARIATION_CAP = 1.5  # maximal fails when the largest weak ratio over b reaches this times the smallest


# ---------------------------------------------------------------------------
# Single-case ratios


def _improving_value(conv: np.ndarray, r: float, y: int, N: int, size: int) -> float:
    """||A 1_F||_{r'} / ((y/N)^{1/r - 1/r'} |F|^{1/r}) from A 1_F or |A 1_F|, which becomes |A 1_F| in place."""
    rp = r / (r - 1.0)
    num = float((np.abs(conv, out=conv) ** rp).sum() ** (1.0 / rp))
    den = (y / N) ** (1.0 / r - 1.0 / rp) * size ** (1.0 / r)
    return num / den


# ---------------------------------------------------------------------------
# Input families


def input_families(
    N: int,
    prog: Progression,
    rng: np.random.Generator,
    densities,
    greedy: bool = False,
) -> dict[str, np.ndarray]:
    """Fixed a-priori test sets inside [0, N): intervals, progression segments,
    Bernoulli sets at dyadic densities, and, if greedy, a greedy Lambda-weighted set."""
    fams: dict[str, np.ndarray] = {}
    fams["interval"] = np.arange(N // 2, dtype=np.int64)
    fams["progression_segment"] = prog.indices(N // 2)
    for j in densities:
        mask = rng.random(N) < 2.0**-j
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            idx = np.array([0], dtype=np.int64)
        fams[f"bernoulli_2^-{j}"] = idx
    if greedy:
        w = von_mangoldt(N)[prog.start : N : prog.y]
        k = max(len(w) // 8, 1)
        fams["greedy_lambda"] = np.sort(prog.start + prog.y * np.argsort(w)[::-1][:k])
    return fams


def _class_sums(N: int, prog: Progression, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of Lambda(c + step j) on the progression, c = b mod step, c + step j < N, as parts hi + lo.

    step divides y.  hi rounds each term to a multiple of q = 2^(e-52), with
    2^e above the total, so each running sum of hi is a multiple of q below
    2^53 q: exact.  lo, the term minus hi, is exact and at most q/2.
    """
    c = prog.b % step
    terms = np.zeros(len(range(c, N, step)))
    terms[(prog.start - c) // step :: prog.y // step] = von_mangoldt(N)[prog.start : N : prog.y]
    q = math.ldexp(1.0, math.frexp(terms.sum())[1] - 52)
    hi = terms / q
    np.round(hi, out=hi)
    hi *= q
    terms -= hi
    return np.cumsum(hi, out=hi), np.cumsum(terms, out=terms)


def run_averages(N_list, prog: Progression, F: np.ndarray, step: int):
    """A_N 1_F for each N of N_list in turn, F the run F[0] + step i (i < len(F)), step dividing y, by running sums.

    Yields D with D[m] = A_N 1_F(F[0] + c + step m), c = b mod step, for m
    below J + len(F) - 1, J the number of class points below N; A_N 1_F
    vanishes everywhere else (module docstring).
    """
    hi, lo = _class_sums(max(N_list), prog, step)
    c, K = prog.b % step, len(F)
    for N in N_list:
        J = len(range(c, N, step))
        avg, lo_part = np.empty(J + K - 1), np.empty(J + K - 1)
        for sums, out in ((hi, avg), (lo, lo_part)):
            out[:J] = sums[:J]
            out[J:] = sums[J - 1]
            out[K:] -= sums[: J - 1]  # exact for hi
        avg += lo_part
        avg *= phi(prog.y) / N
        yield avg


def _family_sups(N_list, prog: Progression, densities, seed: int, greedy: bool = False):
    """(name, F, sup over N in N_list of |A_N 1_F|) for each input family F of [0, max(N_list)), seeded by seed.

    The runs go through run_averages, the rest through sup_abs on one grid,
    its profiles built once.  Each sup is dropped on resuming, so a caller
    that drops its own holds one at a time.
    """
    N_list = sorted(N_list)
    M = pow2_at_least(2 * N_list[-1])  # kernels and inputs in [0, N_max): no wrap below 2 N_max
    fams = input_families(N_list[-1], prog, np.random.default_rng(seed), densities, greedy)
    steps = {"interval": 1, "progression_segment": prog.y}
    profiles = functools.cache(lambda: [a_hat_profile(N, prog, M) for N in N_list])
    for name, F in fams.items():
        if name in steps:
            sup = np.zeros(0)
            for avg in run_averages(N_list, prog, F, steps[name]):  # each longer than the last
                np.maximum(avg[: len(sup)], sup, out=avg[: len(sup)])
                sup = avg
            del avg
        else:
            sup = sup_abs(profiles(), np.fft.rfft(indicator(F, M)))  # the indicator is freed before the profiles run
        yield name, F, sup
        del sup


# ---------------------------------------------------------------------------
# Improving scan


def run_cells(cell_fn, cells: list, workers: int, fresh: bool = False) -> list:
    """Rows of every cell in cell order, on a pool of up to `workers` processes.

    Each cell runs as one task.  When min(workers, cells) exceeds one, every
    cell runs in the pool; otherwise all run here, in order.  With fresh,
    each cell gets a process of its own, so its peak memory does not depend
    on the heap that earlier cells left in a shared worker.  The warnings of
    each cell are recorded where it runs and raised again here in cell
    order, as a serial run would raise them.  The pool forks where the
    platform can, so the workers inherit the tables the parent sieved; other
    start methods re-sieve in each worker.
    """
    run = functools.partial(_run_task, cell_fn)
    workers = min(workers, len(cells))
    if workers > 1:
        context = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        if fresh:
            done = _run_fresh(run, cells, workers, context)
        else:
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
                done = list(pool.map(run, cells))
    else:
        done = [run(cell) for cell in cells]
    rows = []
    for cell_rows, caught in done:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        rows += cell_rows
    return rows


def _run_fresh(run, cells: list, workers: int, context) -> list:
    """[run(cell) for cell in cells], each in a new process started from this thread, `workers` at a time.

    A cell's exception is raised again here, and EOFError for a process that
    ended without a result; the processes still running are then killed.
    """
    from multiprocessing.connection import wait  # here, as context.Pipe imports it: 7 ms off each import of scans
    done, running, todo = [None] * len(cells), {}, list(enumerate(cells))[::-1]
    try:
        while todo or running:
            while todo and len(running) < workers:
                i, cell = todo.pop()
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_send_task, args=(run, cell, writer))
                proc.start()
                writer.close()
                running[reader] = i, proc
            for reader in wait(list(running)):
                i, proc = running.pop(reader)
                with reader:
                    ok, done[i] = reader.recv()
                proc.join()
                if not ok:
                    raise done[i]
    finally:
        for _, proc in running.values():
            proc.kill()
            proc.join()
    return done


def _send_task(run, cell, writer) -> None:
    try:
        writer.send((True, run(cell)))
    except Exception as exc:  # raised again by _run_fresh
        writer.send((False, exc))


def _run_scan_cells(cell_fn, cells_of, N_list, y_list, floor: int, workers: int, b_sweep: bool = False) -> list:
    """run_cells on the cells cells_of(y, b) of each admitted (y, b), b = default_residue(y) or, with b_sweep, all of A_y.

    min(N_list) must reach floor*y and leave {1 <= n < N/2 : n = b mod y}
    nonempty (its least member is Progression.start): both rules are monotone
    in N.  Then Z_M, M = pow2_at_least(2 N_max), is checked, and Lambda up to
    N_max and mu/phi up to max(y_list) are sieved once, before the pool
    forks, so the workers inherit them as cached views.
    """
    N, N_max = min(N_list), max(N_list)
    cells = []
    for y in y_list:
        if N < floor * y:
            raise ValueError(f"N={N} below desk-scale floor {floor}*y for y={y}")
        Progression(y, default_residue(y))  # rejects y < 1 before A_y is enumerated
        for b in [int(v) for v in reduced_residues(y)] if b_sweep else [default_residue(y)]:
            if N // 2 <= Progression(y, b).start:
                raise ValueError(f"N={N} leaves the progression segment of y={y}, b={b} below N/2 empty")
            cells += cells_of(y, b)
    if cells:
        check_grid(N_max, pow2_at_least(2 * N_max))
        von_mangoldt(N_max)
        build_tables(max(y_list))
    return run_cells(cell_fn, cells, workers)


def _run_task(cell_fn, cell) -> tuple[list, list]:
    """(rows, warnings as (message, category, filename, lineno)) of one cell."""
    with warnings.catch_warnings(record=True) as caught:
        rows = cell_fn(cell)
    return rows, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _improving_cell(payload: tuple) -> list[dict]:
    N, y, b, r_list, densities, seed = payload
    rows = []
    for name, F, sup in _family_sups([N], Progression(y, b), densities, seed, greedy=True):
        for r in r_list:
            rows.append(
                {
                    "N": N,
                    "y": y,
                    "b": b,
                    "r": r,
                    "family": name,
                    "set_size": int(len(F)),
                    "ratio": _improving_value(sup, r, y, N, len(F)),
                }
            )
        del sup  # freed before the next family's transforms, so they do not stack on it
    return rows


def improving_scan(
    *,
    N_list=(1 << 14, 1 << 16),
    y_list=(1, 3, 5),
    r_list=(1.5,),
    seed=0,
    n_floor_factor=DEFAULT_N_FLOOR_FACTOR,
    workers: int = 1,
) -> tuple[list[dict], dict]:
    """Improving-inequality sweep over (N, y, r, input family).

    The families include the greedy Lambda-weighted set.  Summary holds the
    max ratio per (y, r) at each N and a stability verdict: the max must move
    by less than a factor of 2 between consecutive scales.
    """
    N_list = sorted(N_list)
    seed = int(seed)
    for r in r_list:
        if not 1.0 < r < 2.0:
            raise ValueError(f"r must lie in (1, 2), got {r}")

    cells_of = lambda y, b: [(N, y, b, list(r_list), IMPROVING_DENSITIES, seed) for N in N_list]
    rows = _run_scan_cells(_improving_cell, cells_of, N_list, y_list, int(n_floor_factor), workers)

    max_ratio: dict[tuple, dict[int, float]] = {}
    for row in rows:
        key = (row["y"], row["r"])
        per_n = max_ratio.setdefault(key, {})
        per_n[row["N"]] = max(per_n.get(row["N"], 0.0), row["ratio"])
    stability = {}
    verdict = True
    for (y, r), per_n in max_ratio.items():
        ns = sorted(per_n)
        factors = [per_n[ns[i + 1]] / per_n[ns[i]] for i in range(len(ns) - 1)]
        stable = all(0.5 < fct < 2.0 for fct in factors)
        verdict = verdict and stable
        stability[f"y={y},r={r}"] = {
            "max_ratio_by_N": {str(n): per_n[n] for n in ns},
            "step_factors": factors,
            "stable": stable,
        }
    params = {
        "N_list": N_list,
        "y_list": list(y_list),
        "r_list": list(r_list),
        "densities": list(IMPROVING_DENSITIES),
        "adversarial": True,
        "seed": seed,
        "n_floor_factor": int(n_floor_factor),
    }
    return rows, {"parameters": params, "summary": {"stability": stability, "stable": verdict}}


# ---------------------------------------------------------------------------
# Maximal scan


def _maximal_cell(payload: tuple) -> list[dict]:
    N_list, y, b, r, lambdas, densities, seed = payload
    rows = []
    for name, F, sup in _family_sups(N_list, Progression(y, b), densities, seed):
        strong = float((sup**r).sum() ** (1.0 / r) / len(F) ** (1.0 / r))
        for lam in lambdas:
            exceed = int((sup > lam).sum())
            weak = lam * exceed ** (1.0 / r) / len(F) ** (1.0 / r)
            rows.append(
                {
                    "y": y,
                    "b": b,
                    "r": r,
                    "family": name,
                    "set_size": int(len(F)),
                    "lambda": lam,
                    "q_policy": lam ** (-1.0 + r / 2.0),
                    "weak_ratio": weak,
                    "strong_ratio": strong,
                }
            )
        del sup  # freed before the next family's transforms, so they do not stack on it
    return rows


def maximal_scan(
    *,
    N_list=tuple(1 << k for k in range(13, 17)),
    y_list=(1, 5),
    r=2.0,
    lambda_grid=tuple(2.0**-k for k in range(1, 7)),
    seed=0,
    b_sweep=False,
    weak_ceiling=1.0,
    n_floor_factor=DEFAULT_N_FLOOR_FACTOR,
    workers: int = 1,
) -> tuple[list[dict], dict]:
    """Weak-type sweep of the dyadic maximal function sup_N |A_{N,y,b} 1_F|.

    Ratios are lambda |{sup > lambda}|^{1/r} / |F|^{1/r} over a lambda grid;
    the strong-type norm is reported as a secondary column.  With b_sweep the
    scan covers every b in A_y and records the variation across b.  The
    verdict "pass" holds when the max weak ratio is at most weak_ceiling and
    each variation across b is below VARIATION_CAP.
    """
    N_list = sorted(N_list)
    r = float(r)
    lambdas = list(lambda_grid)
    seed = int(seed)
    b_sweep = bool(b_sweep)
    if not 1.0 <= r < math.inf:
        raise ValueError(f"r must be >= 1 and finite, got {r}")
    # the weak ratio scales with lambda and the q_policy column is lambda^(r/2 - 1)
    if not all(lam > 0.0 for lam in lambdas):
        raise ValueError(f"--lambda-grid needs positive values, got {lambdas}")
    with np.errstate(all="ignore"):  # the cells' float power lam ** (-1 + r/2) raises on overflow
        if not np.isfinite(np.power(np.asarray(lambdas, dtype=float), -1.0 + r / 2.0)).all():
            raise ValueError(f"--lambda-grid {lambdas} with --r {r} makes the q_policy lambda^(r/2 - 1) non-finite")

    cells_of = lambda y, b: [(list(N_list), y, b, r, lambdas, MAXIMAL_DENSITIES, seed)]
    rows = _run_scan_cells(_maximal_cell, cells_of, N_list, y_list, int(n_floor_factor), workers, b_sweep)

    max_by_yb: dict[tuple, float] = {}
    for row in rows:
        key = (row["y"], row["b"])
        max_by_yb[key] = max(max_by_yb.get(key, 0.0), row["weak_ratio"])
    variation = {}
    for y in y_list:
        vals = [v for (yy, _), v in max_by_yb.items() if yy == y]
        if len(vals) > 1:
            variation[str(y)] = max(vals) / min(vals)
    summary = {
        "max_weak_ratio": max(max_by_yb.values()),
        "max_weak_by_yb": {f"y={y},b={b}": v for (y, b), v in sorted(max_by_yb.items())},
        "b_variation": variation,
        "pass": max(max_by_yb.values()) <= weak_ceiling and all(v < VARIATION_CAP for v in variation.values()),
    }
    params = {
        "N_list": N_list,
        "y_list": list(y_list),
        "r": r,
        "lambda_grid": lambdas,
        "densities": list(MAXIMAL_DENSITIES),
        "seed": seed,
        "b_sweep": b_sweep,
        "n_floor_factor": int(n_floor_factor),
    }
    return rows, {"parameters": params, "summary": summary}


def fit_exponent(x: np.ndarray, yvals: np.ndarray) -> float:
    """Least-squares slope of log(yvals) against log(x): sum lx ly / sum lx^2, lx centred."""
    lx = np.log(np.asarray(x, dtype=float))
    lx -= lx.mean()
    return float(np.sum(lx * np.log(np.asarray(yvals, dtype=float))) / np.sum(lx * lx))
