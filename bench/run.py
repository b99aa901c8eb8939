#!/usr/bin/env python3
"""fracflux benchmark: end-to-end timings, accuracy, and a per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload crime --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, iteration time and
accuracy, plus a table of per-command medians), with every time scaled to a
nominal machine speed by ``calibrate()``; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of
``bench/ledger.py`` and the tracing overhead.  Every run first repeats the
seed-0 iteration and compares its artifacts with ``bench/reference/``, checks
every timed iteration, and computes the accuracy digits outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with the
samples and an environment fingerprint goes to ``.bench_out/``.

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before numpy is imported, here and in every child process
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: no single operation may take longer; the regression it guards against is
#: points pushed into the mpmath fallback, seen to stall one call for ~70 s
OP_BUDGET_S = 30.0
#: after this much wall time no new work starts, so the run ends within 180 s
RUN_DEADLINE_S = 160.0
SETUP_REPEATS = 5

#: what a CLI user pays on every command: a fresh interpreter importing
#: fracflux, loading the config and building the mode table
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fracflux.cli; "
    "from fracflux.config import load_config; "
    "from fracflux.modes import build_mode_table, check_separation; "
    "cfg = load_config(open(sys.argv[2]).read()); "
    "check_separation(build_mode_table(cfg.model, cfg.K))"
)

#: calibrate()'s time on a quiet machine; every reported time is scaled to this speed
CAL_NOMINAL_S = 0.02

#: name, unit of the end-to-end metrics every workload reports in its JSON line
END_TO_END = (("setup_s", "s"), ("iter_s", "s"), ("accuracy_digits", "digits"))

def calibrate() -> float:
    """Seconds taken by a fixed loop of the kind fracflux spends its time in:
    ufuncs on a few hundred complex points, and complex scalar arithmetic.

    On a shared machine the speed of the same code drifts by tens of percent
    within a minute.  Each timed unit is bracketed by two calibrations in the
    same process, and its time is reported times CAL_NOMINAL_S / their mean,
    which cancels most of that drift.
    """
    import cmath

    import numpy as np
    from scipy.special import rgamma

    z = np.linspace(-50.0, 0.0, 400) + 0.5j
    t0 = time.perf_counter()
    for _ in range(12):
        acc, zp = np.zeros_like(z), np.ones_like(z)
        for n in range(60):
            acc += zp * rgamma(0.9 * n + 1.0)
            zp = zp * z * 0.01
        w, total = 0.3 + 0.2j, 0j
        for j in range(3000):
            total += cmath.exp(-w * (j % 17)) / (w + j)
    return time.perf_counter() - t0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside an operation that ran past its time budget.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


@contextlib.contextmanager
def _budget(seconds: float):
    def alarm(signum, frame):
        raise BudgetExceeded(f"over its {seconds:.1f} s budget")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """Operation accounting for one benchmark run, or for one iteration's child process."""

    def __init__(self, start: float | None = None):
        self.start = time.perf_counter() if start is None else start
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, name: str, fn):
        """Run ``fn`` under its budget; returns (seconds, result) or None on failure."""
        limit = min(OP_BUDGET_S, RUN_DEADLINE_S - (time.perf_counter() - self.start))
        if limit <= 0:
            self.fail(f"{name}: not started, run deadline reached")
            return None
        t0 = time.perf_counter()
        try:
            with _budget(limit):
                result = fn()
        except BudgetExceeded as exc:
            self.fail(f"{name}: {exc}")
            return None
        except Exception as exc:  # any failure of the program is a failed operation
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.attempted += 1
        return time.perf_counter() - t0, result

    def check(self, errors: list[str]) -> None:
        """An artifact check is an operation too; any mismatch fails it."""
        if errors:
            self.fail("; ".join(errors))
        else:
            self.attempted += 1

    def merge(self, payload: dict) -> None:
        self.attempted += payload["attempted"]
        self.failed += payload["failed"]
        self.errors += payload["errors"][: max(0, 20 - len(self.errors))]


def _in_child(job, timeout: float):
    """Run ``job()`` in a forked child and return the JSON it sends back, or None.

    Every iteration runs in a fresh child of the same parent, as every CLI
    command runs in a fresh process: nothing an iteration caches reaches the
    next one.  The parent kills a child that outlives ``timeout``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(job()).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fh], [], [], remaining)[0]:
                timed_out = True
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    if timed_out or status != 0:
        return None
    return json.loads(b"".join(chunks))


def run_iteration(run: Run, wl, reference: bool, traced: bool) -> dict | None:
    """One closed-loop iteration in a child; an operation's failure skips (and
    fails) the rest.  Returns the payload with per-command ``times`` or None."""
    ops = wl.ops(reference)

    def job():
        child = Run(run.start)
        cals = [calibrate()]
        ledger = None
        if traced:
            from ledger import Ledger

            ledger = Ledger()
            ledger.install()
        times = {}
        for i, (name, fn) in enumerate(ops):
            done = child.op(name, fn)
            if done is None:
                if ops[i + 1 :]:
                    child.fail(f"{len(ops) - i - 1} command(s) skipped after {name} failed", len(ops) - i - 1)
                times = None
                break
            times[name] = done[0]
            cals.append(calibrate())
        payload = {"times": times, "digest": None, "digits": None}
        if ledger is not None:
            payload["layers"] = ledger.metrics()
        if times is not None:
            payload["scaled"] = {
                name: t * CAL_NOMINAL_S / (0.5 * (before + after))
                for (name, t), before, after in zip(times.items(), cals, cals[1:])
            }
            digest = child.op("digest", lambda: wl.digest(reference))
            payload["digest"] = digest and digest[1]
            digits = child.op("accuracy", lambda: wl.digits(reference))
            payload["digits"] = digits and digits[1]
        payload.update(attempted=child.attempted, failed=child.failed, errors=child.errors)
        return payload

    left = RUN_DEADLINE_S + 10.0 - (time.perf_counter() - run.start)
    payload = _in_child(job, timeout=min((len(ops) + 2) * OP_BUDGET_S + 10.0, left))
    if payload is None:
        run.fail(f"{wl.name} iteration process died or ran past its budget", len(ops))
        return None
    run.merge(payload)
    if payload["times"] is None:
        return None
    run.check(wl.check(reference, payload["digest"]))
    return payload


def measure_setup(run: Run, config: Path) -> tuple[list[float], list[float]]:
    """Wall times of the set-up launches, and the same scaled to nominal speed."""
    samples, scaled = [], []
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)]

    def launch():
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_BUDGET_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}: {proc.stderr[-500:]}")

    for _ in range(SETUP_REPEATS):
        cal = calibrate()
        done = run.op("setup", launch)
        if done is not None:
            samples.append(done[0])
            scaled.append(done[0] * CAL_NOMINAL_S / (0.5 * (cal + calibrate())))
    return samples, scaled


def measure_loop(run: Run, wl, seconds: float, trace: bool):
    """Iterations until ``seconds`` of iteration time are measured; checks are
    not timed.  With ``trace``, untraced and traced iterations alternate in
    pairs, and which of the pair goes first alternates too."""
    plain, traced = [], []
    measured = 0.0
    pair = 0
    while measured < seconds and time.perf_counter() - run.start < RUN_DEADLINE_S - 3 * OP_BUDGET_S:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False,):
            t0 = time.perf_counter()
            payload = run_iteration(run, wl, reference=False, traced=with_trace)
            if payload is None:
                measured += time.perf_counter() - t0
                continue
            measured += sum(payload["times"].values())
            (traced if with_trace else plain).append(payload)
        pair += 1
    return plain, traced


def fingerprint() -> dict:
    import mpmath
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=10)
            commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracflux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("crime", "demo", "sector"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracflux" / "__init__.py").is_file():
        print(f"fracflux sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracflux.cli  # every layer, imported once in the parent of all iterations

    if Path(fracflux.__file__).resolve().parent != (SRC / "fracflux").resolve():
        print(f"imported fracflux from {fracflux.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from ledger import unit_of
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    run = Run()

    setup, setup_scaled = measure_setup(run, wl.config) if args.trace == 0 else ([], [])
    reference = run_iteration(run, wl, reference=True, traced=False)
    plain, traced = measure_loop(run, wl, args.seconds, bool(args.trace))

    # accuracy: the worst of the run's iterations, the reference iteration included
    digits = [p["digits"] for p in [reference, *plain, *traced] if p is not None and p["digits"] is not None]
    accuracy = min(digits) if digits else None
    floor = wl.min_digits
    run.check([] if accuracy is not None and accuracy >= floor else [f"accuracy {accuracy} digits, floor {floor}"])

    table = []  # (name, value, unit, samples)
    metrics = {}
    def scaled(payloads, command=None):
        return [p["scaled"][command] if command else sum(p["scaled"].values()) for p in payloads]

    if args.trace == 0:
        values = {"setup_s": _median(setup_scaled), "iter_s": _median(scaled(plain)), "accuracy_digits": accuracy}
        table.append(("setup_s", values["setup_s"], "s", len(setup)))
        table.append(("setup_wall_s", _median(setup), "s", len(setup)))
        table.append(("iter_s", values["iter_s"], "s", len(plain)))
        table.append(("iter_wall_s", _median([sum(p["times"].values()) for p in plain]), "s", len(plain)))
        for command in wl.commands:
            table.append((command.replace("-", "_") + "_s", _median(scaled(plain, command)), "s", len(plain)))
        table.append((wl.accuracy_name, accuracy, "digits", len(digits)))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END if values[name] is not None}
    else:
        layers = [p["layers"] for p in traced]
        for name in sorted({name for m in layers for name in m}):
            table.append((name, _median([m[name] for m in layers if name in m]), unit_of(name), len(layers)))
        if plain and traced:
            table.append(("trace.overhead_ratio", _median(scaled(traced)) / _median(scaled(plain)), "ratio",
                          len(traced)))
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in table}
    table.append(("fail_ratio", run.failed / max(run.attempted, 1), "ratio", run.attempted))

    env = fingerprint()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "table": [{"name": n, "value": v, "unit": u, "samples": k} for n, v, u, k in table],
        "setup_samples": setup,
        "setup_scaled": setup_scaled,
        "iterations": [{"traced": t, "wall": p["times"], "scaled": p["scaled"]} for t, ps in ((False, plain), (True, traced))
                       for p in ps],
        "errors": run.errors,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; env {json.dumps(env, sort_keys=True)}")
    for name, value, unit, count in table:
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit:<7} n={count}")
    for error in run.errors:
        print(f"  FAILED {error}")
    correct = run.failed == 0 and (args.trace == 1 or len(metrics) == len(END_TO_END))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
