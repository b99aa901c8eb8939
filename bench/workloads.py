"""Workloads of the fracflux benchmark: seeded inputs, one iteration, checks.

All three are closed loops with one client in one process: each operation
starts only after the previous one returns.

crime   ``forward`` then ``invert`` on configs/ip1_crime.cfg through
        ``fracflux.cli.main``: the identification path (Prabhakar series and
        asymptotic routes on large real arguments, forward convolutions,
        design-matrix assembly); the Laplace layer stays idle.
demo    ``forward``, ``residues``, ``jump-scan`` and ``laplace-scan`` on
        configs/demo.cfg: the coupled problem and the only workload that runs
        the Laplace layer and the contour residues.
sector  ``fracflux.forward.extend_complex`` for the demo model at complex
        times on a seed-jittered polar lattice inside
        |Arg(z - t0)| < 0.9 theta_max: the same special
        functions on complex arguments, where the asymptotic and contour routes
        and the mpmath fallback do the work.

Seed 0 uses the committed configs unchanged.  Another seed redraws every
nonzero data coefficient (phi, psi, f, chi), keeping the zero pattern, and the
sector point set; the model, grids and discretization never change, so the
work of crime and demo does not depend on the seed (on sector, the number of
points that fall back to mpmath varies by a few percent).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DATA_KEYS = ("phi", "psi", "f", "chi")

#: artifact tolerance: |x - ref| <= tol * scale, where the scale is the
#: reference column's largest magnitude for CSVs and max(|ref|, 1) for JSON
#: numbers.  The inversion is only determined to about 1e-7 (criterion 8a asks
#: for 1e-6), so it gets a looser tolerance than the forward artifacts.
ARTIFACT_TOL = {
    "state.csv": 1e-8,
    "flux.csv": 1e-8,
    "jump_scan.csv": 1e-8,
    "laplace_scan.csv": 1e-8,
    "residues.json": 1e-8,
    "inversion.json": 1e-5,
}

SECTOR_LATTICE = (12, 20)  # radii x angles
SECTOR_JITTER = 0.3
SECTOR_RADII = (0.1, 2.0)
SECTOR_ANGLE_SHARE = 0.9
ORACLE_SAMPLE = 150


# ---------------------------------------------------------------------------
# seeded configs
# ---------------------------------------------------------------------------


def _tables(text: str) -> dict[str, list[list[float]]]:
    """data.phi/psi/f/chi of a config as row lists (rows split on ';')."""
    out = {}
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        if "=" not in body:
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key.startswith("data.") and key[5:] in DATA_KEYS:
            rows = [r for r in value.split(";") if r.strip()]
            out[key[5:]] = [[float(v) for v in row.replace(",", " ").split()] for row in rows]
    return out


def redraw_config(text: str, seed: int) -> str:
    """The config with each nonzero data coefficient redrawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lines = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        key = body.split("=", 1)[0].strip() if "=" in body else ""
        if key.startswith("data.") and key[5:] in DATA_KEYS:
            rows = _tables(line)[key[5:]]
            new = [
                [float(np.round(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0), 6)) if v != 0 else 0.0 for v in row]
                for row in rows
            ]
            if key[5:] in ("phi", "psi"):
                line = f"{key} = " + ", ".join(repr(v) for v in new[0])
            else:
                line = f"{key} = " + " ; ".join(" ".join(repr(v) for v in row) for row in new)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifact comparison
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body


def compare_csv(path: Path, ref: Path, tol: float) -> str | None:
    header, got = _read_csv(path)
    ref_header, want = _read_csv(ref)
    if header != ref_header or got.shape != want.shape:
        return f"{path.name}: header or shape differs from the reference"
    scale = np.abs(want).max(axis=0)
    scale = np.where(scale > 0, scale, max(float(np.abs(want).max()), 1e-300))
    worst = float((np.abs(got - want) / scale).max()) if got.size else 0.0
    if not worst <= tol:
        return f"{path.name}: differs from the reference by {worst:.2e} of scale (tolerance {tol:.0e})"
    return None


def _json_worst(got, want) -> float:
    """Largest |got - want| / max(|want|, 1) over matching leaves; inf on a structure mismatch."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return math.inf
        return max((_json_worst(got[k], want[k]) for k in want), default=0.0)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return math.inf
        return max((_json_worst(g, w) for g, w in zip(got, want)), default=0.0)
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return 0.0 if got == want else math.inf
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return math.inf
    return abs(got - want) / max(abs(want), 1.0)


def compare_json(path: Path, ref: Path, tol: float) -> str | None:
    worst = _json_worst(json.loads(path.read_text()), json.loads(ref.read_text()))
    if not worst <= tol:
        return f"{path.name}: differs from the reference by {worst:.2e} (tolerance {tol:.0e})"
    return None


def compare_artifact(path: Path, ref: Path) -> str | None:
    if not path.exists():
        return f"{path.name}: not written"
    tol = ARTIFACT_TOL[path.name]
    return (compare_json if path.suffix == ".json" else compare_csv)(path, ref, tol)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload.  ``ops(reference)`` is one iteration: the seeded inputs, or
    with ``reference=True`` the seed-0 inputs whose artifacts are stored under
    ``reference/``.  ``digest`` and ``digits`` run in the process that ran the
    iteration, after it; ``check`` runs in the parent and is never timed."""

    name = ""
    config_name = ""
    artifacts: tuple[str, ...] = ()
    commands: tuple[str, ...] = ()
    #: the run fails when its worst accuracy falls below this many digits
    min_digits = 0.0
    accuracy_name = ""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.seed = seed
        self.committed_config = root / "configs" / self.config_name
        text = self.committed_config.read_text()
        self.reference_truth = _tables(text)
        if seed == 0:
            self.config = self.committed_config
        else:
            text = redraw_config(text, seed)
            self.config = workdir / f"{self.name}-seed{seed}.cfg"
            self.config.write_text(text)
        self.truth = _tables(text)
        self.workdir = workdir
        self._first_digest = None

    def out_dir(self, reference: bool) -> Path:
        return self.workdir / ("reference" if reference else "out")

    def ops(self, reference: bool) -> list[tuple[str, object]]:
        raise NotImplementedError

    def digest(self, reference: bool) -> str:
        h = hashlib.sha256()
        for a in self.artifacts:
            h.update((self.out_dir(reference) / a).read_bytes())
        return h.hexdigest()

    def digits(self, reference: bool) -> float | None:
        raise NotImplementedError

    def check(self, reference: bool, digest: str) -> list[str]:
        """Seed-0 artifacts against the stored references; a timed iteration's
        digest against the run's first (the program is deterministic)."""
        errors = []
        if reference or self.seed == 0:
            out, ref = self.out_dir(reference), REFERENCE_DIR / self.name
            errors += [e for e in (compare_artifact(out / a, ref / a) for a in self.artifacts) if e]
        if not reference:
            if self._first_digest is None:
                self._first_digest = digest
            elif digest != self._first_digest:
                errors.append("outputs differ from this run's first iteration")
        return errors

    def _cli(self, argv: list[str]):
        def op():
            from fracflux import cli

            code = cli.main(argv + ["--quiet"])
            if code != 0:
                raise RuntimeError(f"fracflux {' '.join(argv)} exited with code {code}")

        return op

    def _paths(self, reference: bool) -> tuple[str, str]:
        return str(self.committed_config if reference else self.config), str(self.out_dir(reference))


def _digits(rel_error: float) -> float:
    return -math.log10(max(rel_error, 1e-17))


class Crime(Workload):
    name = "crime"
    config_name = "ip1_crime.cfg"
    artifacts = ("state.csv", "flux.csv", "inversion.json")
    commands = ("forward", "invert")
    # an order of magnitude below acceptance criterion 8a (1e-6), for redrawn data
    min_digits = 5.0
    accuracy_name = "recon_digits"

    def ops(self, reference):
        config, out = self._paths(reference)
        return [
            ("forward", self._cli(["forward", config, "--out", out])),
            ("invert", self._cli(["invert", config, os.path.join(out, "flux.csv"), "--out", out])),
        ]

    def digits(self, reference):
        """recon_digits: -log10 of |x_hat - x| / |x|, x the f and phi coefficients of the config."""
        truth = self.reference_truth if reference else self.truth
        inv = json.loads((self.out_dir(reference) / "inversion.json").read_text())
        f_hat = np.array([[complex(*c) for c in row] for row in inv["f_hat"]])
        phi_hat = np.array([complex(*c) for c in inv["phi_hat"]])
        f = np.zeros(f_hat.shape)
        for k, row in enumerate(truth["f"]):
            f[k, : len(row)] = row
        phi = np.zeros(phi_hat.shape)
        phi[: len(truth["phi"][0])] = truth["phi"][0]
        x, x_hat = np.concatenate([f.ravel(), phi]), np.concatenate([f_hat.ravel(), phi_hat])
        return _digits(float(np.linalg.norm(x_hat - x) / np.linalg.norm(x)))


class Demo(Workload):
    name = "demo"
    config_name = "demo.cfg"
    artifacts = ("state.csv", "flux.csv", "residues.json", "jump_scan.csv", "laplace_scan.csv")
    commands = ("forward", "residues", "jump-scan", "laplace-scan")
    min_digits = 9.0
    accuracy_name = "residue_digits"

    def ops(self, reference):
        config, out = self._paths(reference)
        return [(c, self._cli([c, config, "--out", out])) for c in self.commands]

    def digits(self, reference):
        """residue_digits: -log10 of the worst rel_error in residues.json."""
        reports = json.loads((self.out_dir(reference) / "residues.json").read_text())
        worst = max(
            r[side]["rel_error"] for r in reports for side in ("report_breve", "report_hat") if r[side] is not None
        )
        return _digits(float(worst))


class Sector(Workload):
    """The reference iteration runs on the seeded points too (no artifacts are
    stored for this workload); it records every Prabhakar argument and value
    for the oracle check."""

    name = "sector"
    config_name = "demo.cfg"
    commands = ("extend",)
    # two orders of magnitude past the evaluator's 1e-10 target
    min_digits = 8.0
    accuracy_name = "extend_digits"

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        from fracflux.config import load_config
        from fracflux.modes import build_mode_table

        self.cfg = load_config(self.config.read_text())
        self.table = build_mode_table(self.cfg.model, self.cfg.K)
        self.points = sector_points(self.cfg.model.alpha, self.cfg.model.t0, seed)
        self.result = None
        self.captured = []

    def ops(self, reference):
        from fracflux import forward, specfun

        original = specfun.prabhakar_diag

        def capture(params, z, *args, **kwargs):
            vals, est = original(params, z, *args, **kwargs)
            self.captured.append((params, np.ravel(np.asarray(z, dtype=complex)), np.ravel(vals)))
            return vals, est

        def extend():
            c = self.cfg
            if reference:
                specfun.prabhakar_diag = capture
            try:
                u, v = forward.extend_complex(c.model, self.table, c.phi, c.psi, c.source, self.points)
            finally:
                specfun.prabhakar_diag = original
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise FloatingPointError("extend_complex returned non-finite values")
            self.result = (u, v)

        return [("extend", extend)]

    def digest(self, reference):
        return hashlib.sha256(self.result[0].tobytes() + self.result[1].tobytes()).hexdigest()

    def digits(self, reference):
        """extend_digits: worst relative error of the Prabhakar values extend_complex
        produced, against tests/_oracles.prabhakar_reference on a seeded subsample."""
        if not reference:
            return None
        import sys

        pool = [(p, zz, vv) for p, z, v in self.captured for zz, vv in zip(z, v) if zz != 0]
        rng = np.random.default_rng(self.seed)
        pick = rng.choice(len(pool), size=min(ORACLE_SAMPLE, len(pool)), replace=False)
        sys.path.insert(0, str(self.root / "tests"))
        try:
            from _oracles import prabhakar_reference
        finally:
            sys.path.pop(0)
        worst = 0.0
        for i in pick:
            p, z, value = pool[i]
            ref = prabhakar_reference(p.alpha, p.beta, p.gamma, z)
            worst = max(worst, abs(value - ref) / max(abs(ref), 1e-300))
        return _digits(worst)


def sector_points(alpha: float, t0: float, seed: int) -> np.ndarray:
    """t0 + r e^(i theta) on a jittered polar lattice inside 0.9 theta_max.

    SECTOR_LATTICE cells, log-spaced in r and uniform in theta; the seed moves
    each point within the central SECTOR_JITTER share of its cell.  Which
    Prabhakar route a point takes depends on where it lies, so a lattice keeps
    the work nearly the same for every seed: the number of points that fall
    back to mpmath varied by about 3% over eight seeds, against 9% for the
    same number of independent stratified points.
    """
    rng = np.random.default_rng(seed)
    n_r, n_theta = SECTOR_LATTICE
    theta_max = min(math.pi, (2.0 - alpha) * math.pi / (2.0 * alpha))
    u_r = (np.arange(n_r)[:, None] + 0.5 + SECTOR_JITTER * (rng.random((n_r, n_theta)) - 0.5)) / n_r
    u_theta = (np.arange(n_theta)[None, :] + 0.5 + SECTOR_JITTER * (rng.random((n_r, n_theta)) - 0.5)) / n_theta
    lo, hi = SECTOR_RADII
    r = lo * (hi / lo) ** u_r
    theta = (2.0 * u_theta - 1.0) * SECTOR_ANGLE_SHARE * theta_max
    return (t0 + r * np.exp(1j * theta)).ravel()


WORKLOADS = {w.name: w for w in (Crime, Demo, Sector)}
