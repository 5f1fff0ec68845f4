"""Measurement loops, the tail-percentile rule and output checking.

``measure`` takes the end-to-end samples of one untraced run and
``measure_traced`` the per-layer figures of one traced run; ``Runner``
executes single operations and checks each output with ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time

import oracle
import pcreg.cli
import pcreg.linalg
import pcreg.model
from tracing import Tracer

# Shares of an untraced run spent on each kind of sample, and the fewest
# samples of each kind a run takes (the tail needs more than ten calls).
SHARES = {"setup": 0.08, "cold": 0.40, "warm": 0.52}
MINIMUM = {"setup": 5, "cold": 5, "warm": 20}
# A turn of the largest share lasts this long; the others are shorter in
# proportion.
TURN_S = 3.0
# A warm turn first makes untimed calls for this long.  The first few dozen
# calls after a subprocess run slower, an effect of the interleaving and
# not of pcreg, and they would otherwise set the tail.
SETTLE_S = 0.3
# A run stops taking samples after this long, whatever the minimums say.
HARD_STOP_S = 150.0
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# Warm calls are cut into windows of this many consecutive calls; the tail
# is taken in each window (the 95th percentile) and the median reported.
TAIL_WINDOW = 200
MAX_REPORTED_PROBLEMS = 5

SETUP_CHILD = "import time\nimport pcreg.cli\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
CLI_CHILD = "import sys\nfrom pcreg.cli import main\nsys.exit(main())"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the value is the eleventh largest
    sample, and the percentile the share of samples at or below it.
    """
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def windowed_tail(samples: list[float]) -> tuple[float, float, int]:
    """The median over windows of ``TAIL_WINDOW`` consecutive samples of each window's tail.

    A run with fewer samples than one window is a single window.  Windows of
    a fixed size keep the percentile the same from run to run, and the
    median keeps a burst of stalled calls in one window from moving the
    result.  Returns ``(value, percentile, windows)``; a partial last window
    is left out.
    """
    count = max(len(samples) // TAIL_WINDOW, 1)
    size = min(TAIL_WINDOW, len(samples))
    tails = [tail(samples[i * size:(i + 1) * size]) for i in range(count)]
    return statistics.median(value for value, _ in tails), tails[0][1], count


class Runner:
    """Runs one workload's operations and checks every output."""

    def __init__(self, workload, env: dict, stop: float) -> None:
        self.workload = workload
        self.env = env
        self.stop = stop

        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_output: dict[tuple[str, str], str] = {}
        self._references: dict = {}
        self._sigma_checked: dict = {}
        self._next_case = 0

    def next_case(self):
        case = self.workload.cases[self._next_case % len(self.workload.cases)]
        self._next_case += 1
        return case

    # -- checking -------------------------------------------------------

    def _reference(self, case):
        key = (case.design, case.mode, case.d)
        if key not in self._references:
            design = self.workload.designs[case.design]
            self._references[key] = oracle.reference(design, case.mode, case.d)
        return self._references[key]

    def _sigma_problems(self, case) -> list[str]:
        key = (case.design, case.mode)
        if key not in self._sigma_checked:
            x = oracle.standardized(self.workload.designs[case.design].x, case.mode,
                                    self.workload.designs[case.design].intercept)
            self._sigma_checked[key] = oracle.sigma_problems(x, pcreg.linalg.svd_thin)
        return self._sigma_checked[key]

    def verify(self, case, channel: str, code, text: str) -> bool:
        """Check one output; ``channel`` groups outputs that must be identical."""
        if code != 0:
            problems = [f"exit code {code!r}"]
        else:
            ref = None if case.kind == "simulate-json" else self._reference(case)
            problems = oracle.check(case.kind, text, ref, self.workload.fits_per_op)
        problems += self._sigma_problems(case)
        if not problems:
            first = self._first_output.setdefault((channel, case.key), text)
            if text != first:
                problems.append("output differs from an earlier run on the same input")
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                if len(self.problems) < MAX_REPORTED_PROBLEMS:
                    self.problems.append(f"{case.key} ({channel}): {problem}")
        return not problems

    # -- operations -----------------------------------------------------

    def setup_sample(self) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        return float(done.stdout.strip()) - start

    def cold_call(self, case) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", CLI_CHILD, *case.argv], env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            code, text = done.returncode, done.stdout
        except subprocess.TimeoutExpired:
            code, text = "timeout", ""
        elapsed = time.perf_counter() - start
        return elapsed, self.verify(case, "cli", code, text)

    def warm_call(self, case, tracer=None) -> tuple[float, bool, dict | None]:
        """One in-process operation: (seconds, passed its checks, traced figures)."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_op()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.workload.library:
                    text, code = self._library_fit(case), 0
                else:
                    # Looked up on the module at each call, so tracing wrappers apply.
                    code = pcreg.cli.main(list(case.argv))
                    text = out.getvalue()
        except SystemExit as exc:
            code, text = exc.code, ""
        except Exception as exc:  # an operation that raises is a failed operation
            code, text = repr(exc), ""
        elapsed = time.perf_counter() - start
        figures = tracer.finish_op() if tracer is not None else None
        channel = "library" if self.workload.library else "cli"
        return elapsed, self.verify(case, channel, code, text), figures

    def _library_fit(self, case) -> str:
        design = self.workload.designs[case.design]
        data = pcreg.model.Dataset(y=design.y, x=design.x, names=design.names,
                                   intercept_included=design.intercept)
        data, record = pcreg.cli.standardize(data, case.mode)
        return pcreg.cli.render_json(pcreg.cli.compare_payload(data, case.d, record))


def measure(runner: Runner, seconds: float, start: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, and their sample counts.

    Set-up samples, cold calls and warm calls are interleaved in turns: each
    turn runs the kind furthest below its share of the time spent so far,
    for ``TURN_S`` scaled by that share, so all three kinds see the same
    stretch of machine conditions while the process switches kinds only a
    few times a run.  A warm turn first settles (see ``SETTLE_S``).
    """
    samples = {kind: [] for kind in SHARES}
    spent = dict.fromkeys(SHARES, 0.0)
    fits = 0
    last_warm_s = 0.0

    def warm_step() -> float:
        nonlocal fits, last_warm_s
        elapsed, ok, _ = runner.warm_call(runner.next_case())
        fits += runner.workload.fits_per_op if ok else 0
        last_warm_s = elapsed
        return elapsed * 1e3

    def settle() -> None:
        # A call longer than the settling time outlasts the slow start itself.
        if last_warm_s >= SETTLE_S:
            return
        until = time.perf_counter() + SETTLE_S
        while time.perf_counter() < until:
            runner.warm_call(runner.next_case())

    steps = {
        "setup": runner.setup_sample,
        "cold": lambda: runner.cold_call(runner.next_case())[0] * 1e3,
        "warm": warm_step,
    }
    runner.setup_sample()  # compiles bytecode once, as an installed package would have
    # Lets lazy set-up finish before timing, and tells settle() the call's length.
    last_warm_s = runner.warm_call(runner.workload.cases[0])[0]
    while time.perf_counter() < runner.stop:
        short = [kind for kind in SHARES if len(samples[kind]) < MINIMUM[kind]]
        if time.perf_counter() >= start + seconds:
            if not short:
                break
            candidates = short
        else:
            candidates = list(SHARES)
        total = sum(spent.values())
        kind = max(candidates, key=lambda k: SHARES[k] * total - spent[k])
        began = time.perf_counter()
        turn_end = began + TURN_S * SHARES[kind] / max(SHARES.values())
        if kind == "warm":
            settle()
        while True:
            samples[kind].append(steps[kind]())
            now = time.perf_counter()
            if now >= turn_end or now >= runner.stop:
                break
            if now >= start + seconds and len(samples[kind]) >= MINIMUM[kind]:
                break
        spent[kind] += time.perf_counter() - began

    calls = samples["warm"]
    tail_ms, tail_pct, windows = windowed_tail(calls)
    metrics = {
        "setup_s": statistics.median(samples["setup"]),
        "cold_call_ms_p50": statistics.median(samples["cold"]),
        "call_ms_p50": statistics.median(calls),
        "call_ms_tail": tail_ms,
        "fits_per_s": fits / (sum(calls) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(samples["setup"]),
        "cold_call_ms_p50": len(samples["cold"]),
        "call_ms_p50": len(calls),
        "call_ms_tail": {"calls": len(calls), "percentile": round(tail_pct, 3), "windows": windows},
        "fits_per_s": {"calls": len(calls), "fits": fits, "fits_per_call": runner.workload.fits_per_op},
        "peak_rss_mb": 1,
    }
    return metrics, counts


def measure_traced(runner: Runner, seconds: float, start: float) -> tuple[dict, dict]:
    """Per-layer figures per operation, averaged over whole cycles of inputs."""
    tracer = Tracer()
    cases = runner.workload.cases
    runner.warm_call(cases[0])
    untraced, traced, per_op = [], [], []
    while True:
        for case in cases:
            elapsed, _, _ = runner.warm_call(case)
            untraced.append(elapsed * 1e3)
            tracer.install()
            try:
                _, _, figures = runner.warm_call(case, tracer)
            finally:
                tracer.uninstall()
            traced.append(figures["op.ms"])
            per_op.append(figures)
        now = time.perf_counter()
        if now >= start + seconds or now >= runner.stop:
            break
    metrics = {key: statistics.fmean(op[key] for op in per_op) for key in per_op[0]}
    metrics["trace.call_ms_p50"] = statistics.median(traced)
    metrics["trace.untraced_call_ms_p50"] = statistics.median(untraced)
    metrics["trace.overhead_ms"] = metrics["trace.call_ms_p50"] - metrics["trace.untraced_call_ms_p50"]
    samples = {"traced_operations": len(traced), "untraced_operations": len(untraced),
               "cycles": len(traced) // len(cases)}
    return metrics, samples
