"""Seeded input generators for the four benchmark workloads.

Every input is a pure function of the workload name and ``--seed``; the
program only ever sees the CSV and JSON files written here (or, for the
library workload, the same arrays passed in process).

cli-fixture   the bundled 158x8 fixture, rows permuted by the seed, through
              18 CLI variants: compare --d 3 and fit (OLS, --d 3), each as
              JSON and table, under --standardize none/center/zscore.
compare-wide  a 1000x50 design (intercept + 49 predictors) whose standardized
              singular values span about five decades, with signal on the
              omitted components; compare --d 10 --standardize zscore.
fits-batch    360 small designs on the n in {20, 50, 100}, p in {3, 5, 8}
              grid with random d in 1..p-1 and a random standardize mode,
              each through standardize + compare_payload + render_json.
simulate-mc   simulate with n = 150, p = 5, d = 2 and 5000 replicates, truth
              on both the retained and the omitted components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("cli-fixture", "compare-wide", "fits-batch", "simulate-mc")
STANDARDIZE_MODES = ("none", "center", "zscore")

FIXTURE_RESPONSE = "cost"
FIXTURE_D = 3
WIDE_N, WIDE_PREDICTORS, WIDE_D, WIDE_DECADES = 1000, 49, 10, 5.0
WIDE_STRUCTURE_SEED = 20230104
BATCH_DESIGNS = 360
BATCH_GRID_N = (20, 50, 100)
BATCH_GRID_P = (3, 5, 8)
SIM_N, SIM_P, SIM_D, SIM_REPLICATES = 150, 5, 2, 5000
SIM_OMITTED_QUAD = 50.0


@dataclass(frozen=True)
class Design:
    """A design as the fit sees it before standardization (intercept first)."""

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]
    intercept: bool = True


@dataclass(frozen=True)
class Case:
    """One operation input: what to run and what its output must satisfy.

    ``kind`` selects the oracle (``compare-json``, ``compare-table``,
    ``fit-json``, ``fit-table``, ``simulate-json``).  ``argv`` is the CLI
    call; ``design``, ``d`` and ``mode`` describe the fit it performs.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    design: int
    d: int | None
    mode: str


@dataclass
class Workload:
    name: str
    designs: list[Design]
    cases: list[Case]
    # fits-batch calls the library in process; the others call cli.main.
    library: bool = False
    # Model fits one operation performs (a simulate replicate is one fit).
    fits_per_op: int = 1


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _write_csv(path: Path, header: list[str], columns: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in columns)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_design(x_pred: np.ndarray, y: np.ndarray, pred_names: list[str]) -> Design:
    x = np.column_stack([np.ones(x_pred.shape[0]), x_pred])
    return Design(x=x, y=y, names=("Intercept", *pred_names))


def cli_fixture(seed: int, fixture: Path, workdir: Path) -> Workload:
    lines = fixture.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    rng = _rng(seed, "cli-fixture")
    order = rng.permutation(len(rows))
    path = workdir / "fixture.csv"
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n", encoding="utf-8")

    names = header.split(",")
    values = np.array([[float(c) for c in rows[i].split(",")] for i in order])
    resp = names.index(FIXTURE_RESPONSE)
    keep = [j for j in range(len(names)) if j != resp]
    design = _csv_design(values[:, keep], values[:, resp], [names[j] for j in keep])

    base = ("--input", str(path), "--response", FIXTURE_RESPONSE)
    cases = []
    for mode in STANDARDIZE_MODES:
        for command, d in (("compare", FIXTURE_D), ("fit", None), ("fit", FIXTURE_D)):
            for fmt in ("json", "table"):
                argv = (command, *base, "--standardize", mode, "--format", fmt)
                if d is not None:
                    argv += ("--d", str(d))
                key = f"{command}-{'ols' if d is None else f'd{d}'}-{mode}-{fmt}"
                cases.append(Case(key, f"{command}-{fmt}", argv, 0, d, mode))
    return Workload("cli-fixture", [design], [cases[i] for i in rng.permutation(len(cases))])


def compare_wide(seed: int, workdir: Path) -> Workload:
    n, m = WIDE_N, WIDE_PREDICTORS
    # The design's structure is drawn once from a constant: latent factors
    # with graded scales, mixed by a rotation so that every column has about
    # the same variance, which keeps the grading in the singular values after
    # z-scoring.  The seed permutes the rows and draws the response, so every
    # seed asks the Jacobi SVD for nearly the same work (its rotation count
    # varies by tens of percent between independently drawn designs, and by
    # a few percent between row orders).
    structure = np.random.default_rng(WIDE_STRUCTURE_SEED)
    scales = np.logspace(0.0, -WIDE_DECADES, m)
    factors = structure.standard_normal((n, m)) * scales
    rotation, _ = np.linalg.qr(structure.standard_normal((m, m)))
    means = structure.uniform(-5.0, 5.0, m)
    rng = _rng(seed, "compare-wide")
    factors = factors[rng.permutation(n)]
    x_pred = factors @ rotation.T + means
    # Signal on the leading factors and on trailing (omitted) ones.
    gamma = rng.standard_normal(m)
    gamma[WIDE_D:] *= 1.0 / np.sqrt(scales[WIDE_D:])
    y = 3.0 + factors @ gamma + 0.05 * rng.standard_normal(n)

    names = [f"x{j + 1}" for j in range(m)]
    path = workdir / "wide.csv"
    _write_csv(path, ["y", *names], np.column_stack([y, x_pred]))
    argv = ("compare", "--input", str(path), "--response", "y", "--d", str(WIDE_D),
            "--standardize", "zscore", "--format", "json")
    case = Case("compare-wide", "compare-json", argv, 0, WIDE_D, "zscore")
    return Workload("compare-wide", [_csv_design(x_pred, y, names)], [case])


def fits_batch(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "fits-batch")
    grid = [(n, p) for n in BATCH_GRID_N for p in BATCH_GRID_P]
    designs, cases = [], []
    for i in range(BATCH_DESIGNS):
        n, p = grid[i % len(grid)]
        x_pred = rng.standard_normal((n, p - 1)) * rng.uniform(0.2, 5.0) + rng.uniform(-2, 2, p - 1)
        y = 1.0 + x_pred @ rng.standard_normal(p - 1) + rng.standard_normal(n)
        names = [f"x{j + 1}" for j in range(p - 1)]
        d = int(rng.integers(1, p))
        mode = STANDARDIZE_MODES[int(rng.integers(len(STANDARDIZE_MODES)))]
        path = workdir / f"design{i:03d}.csv"
        _write_csv(path, ["y", *names], np.column_stack([y, x_pred]))
        argv = ("compare", "--input", str(path), "--response", "y", "--d", str(d),
                "--standardize", mode, "--format", "json")
        designs.append(_csv_design(x_pred, y, names))
        cases.append(Case(f"design{i:03d}", "compare-json", argv, i, d, mode))
    return Workload("fits-batch", designs, cases, library=True)


def simulate_mc(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "simulate-mc")
    n, p, d = SIM_N, SIM_P, SIM_D
    x = rng.standard_normal((n, p))
    _, sigma, vt = np.linalg.svd(x, full_matrices=False)
    v = vt.T
    # Truth on the retained components plus a fixed omitted quadratic form
    # sigma_k^2 (v_k' beta)^2 summed over the omitted set.
    retained = v[:, :d] @ np.array([2.0, -1.0])
    omitted = v[:, d:] @ (np.sqrt(SIM_OMITTED_QUAD / (p - d)) / sigma[d:])
    beta = retained + omitted
    config = {
        "x": x.tolist(),
        "beta_true": beta.tolist(),
        "sigma2_true": 1.0,
        "d": d,
        "replicates": SIM_REPLICATES,
        "seed": seed,
    }
    path = workdir / "simulate.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ("simulate", "--config", str(path), "--format", "json")
    # The response is drawn by the program; the design's y is the noiseless mean.
    design = Design(x=x, y=x @ beta, names=tuple(f"x{j + 1}" for j in range(p)), intercept=False)
    case = Case("simulate", "simulate-json", argv, 0, d, "none")
    return Workload("simulate-mc", [design], [case], fits_per_op=SIM_REPLICATES)


def build(name: str, seed: int, fixture: Path, workdir: Path) -> Workload:
    """Generate the inputs of one workload into ``workdir``."""
    if name == "cli-fixture":
        return cli_fixture(seed, fixture, workdir)
    if name == "compare-wide":
        return compare_wide(seed, workdir)
    if name == "fits-batch":
        return fits_batch(seed, workdir)
    if name == "simulate-mc":
        return simulate_mc(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
