"""Spans around the calls into pcreg's public functions, recorded from outside.

The package is not modified: ``Tracer.install`` replaces each traced
function with a timing wrapper in every pcreg module namespace that holds
it (a name imported with ``from .linalg import svd_thin`` is looked up in
the importing module, so wrapping only the home module would miss those
calls), and ``Tracer.uninstall`` puts the originals back.  ``Dataset`` is
traced through its validating ``__post_init__``, which every construction
runs.

Spans are kept in memory per operation; ``Tracer.finish_op`` reduces them
to per-layer self time, call counts and rendered bytes.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "pcreg",
    "pcreg.cli",
    "pcreg.linalg",
    "pcreg.model",
    "pcreg.diagnostics",
    "pcreg.montecarlo",
)

# (home module, function name, layer).  Several functions may share a
# layer; a layer's figures are the sum over its functions.
TRACED_FUNCTIONS = (
    ("pcreg.cli", "main", "cli.main"),
    ("pcreg.cli", "load_csv", "cli.load_csv"),
    ("pcreg.cli", "standardize", "cli.standardize"),
    ("pcreg.cli", "fit_payload", "cli.payload"),
    ("pcreg.cli", "compare_payload", "cli.payload"),
    ("pcreg.cli", "simulate_payload", "cli.payload"),
    ("pcreg.cli", "render_json", "cli.render_json"),
    ("pcreg.cli", "render_compare_table", "cli.render_table"),
    ("pcreg.cli", "render_fit_table", "cli.render_table"),
    ("pcreg.cli", "render_simulate_table", "cli.render_table"),
    ("pcreg.linalg", "svd_thin", "linalg.svd_thin"),
    ("pcreg.linalg", "gram_pseudo_inverse", "linalg.gram_pseudo_inverse"),
    ("pcreg.linalg", "loading_projector", "linalg.loading_projector"),
    ("pcreg.model", "fit_ols", "model.fit_ols"),
    ("pcreg.model", "fit_pcr", "model.fit_pcr"),
    ("pcreg.model", "beta_additivity_check", "model.identities"),
    ("pcreg.model", "recover_ols_sigma2", "model.identities"),
    ("pcreg.model", "sigma2_d_three_forms", "model.identities"),
    ("pcreg.diagnostics", "pcr_covariance", "diagnostics.pcr_covariance"),
    ("pcreg.diagnostics", "build_report", "diagnostics.build_report"),
    ("pcreg.diagnostics", "variance_recomposition_check", "diagnostics.checks"),
    ("pcreg.diagnostics", "covariance_agreement", "diagnostics.checks"),
    ("pcreg.montecarlo", "run_simulation", "montecarlo.run_simulation"),
    ("pcreg.montecarlo", "theory_comparison", "montecarlo.theory"),
    ("pcreg.montecarlo", "adjudicate_rss_dof", "montecarlo.theory"),
)
DATASET_LAYER = "model.Dataset"
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in TRACED_FUNCTIONS] + [DATASET_LAYER]))

# Layers whose returned text is measured in bytes.
SIZED_LAYERS = {"cli.render_json"}


def self_times(spans: list[tuple[float, float, int | None]]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` holds ``(start, end, parent_index)``; a child's interval is
    clipped to its parent's, and overlapping children are counted once.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for kid_start, kid_end in sorted(kids):
            lo = max(kid_start, reach)
            hi = min(kid_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records nested spans for one operation at a time.

    Index 0 of every operation is the root span opened by ``start_op``; it
    belongs to no layer, so its self time is the operation's time outside
    every traced call (reported as ``other``).
    """

    def __init__(self) -> None:
        self._spans: list[list] = []  # [layer, start, end, parent, bytes]
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _open(self, layer: str | None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [layer, time.perf_counter(), None, parent, 0]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        sized = layer in SIZED_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sized:
                span[4] = len(result.encode("utf-8"))
            return result

        return traced

    def start_op(self) -> None:
        if self._stack:
            raise RuntimeError("previous operation still open")
        self._spans = []
        self._open(None)

    def finish_op(self) -> dict[str, float]:
        """Close the root span and reduce the operation to per-layer figures.

        Returns ``{"<layer>.ms": self ms, "<layer>.calls": n, ...,
        "other.ms": root self ms, "op.ms": root duration ms}`` plus
        ``"<layer>.bytes"`` for sized layers.
        """
        self._close(self._spans[0])
        if self._stack:
            raise RuntimeError("a traced call did not return before the operation ended")
        spans = self._spans
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.ms"] = 0.0
            out[f"{layer}.calls"] = 0
            if layer in SIZED_LAYERS:
                out[f"{layer}.bytes"] = 0
        for span, own in zip(spans[1:], selfs[1:]):
            layer = span[0]
            out[f"{layer}.ms"] += own * 1e3
            out[f"{layer}.calls"] += 1
            if layer in SIZED_LAYERS:
                out[f"{layer}.bytes"] += span[4]
        out["other.ms"] = selfs[0] * 1e3
        out["op.ms"] = (spans[0][2] - spans[0][1]) * 1e3
        self._spans = []
        return out

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every pcreg namespace holding it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for home, name, layer in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(home), name)
            wrapper = self._wrap(original, layer)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._installed.append((module, name, original))
                    setattr(module, name, wrapper)
        dataset = importlib.import_module("pcreg.model").Dataset
        original_init = dataset.__dict__["__post_init__"]
        self._installed.append((dataset, "__post_init__", original_init))
        dataset.__post_init__ = self._wrap(original_init, DATASET_LAYER)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)
