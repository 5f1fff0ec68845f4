"""Self-tests of the benchmark; run ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import oracle
import pcreg
import pcreg.cli
import pcreg.linalg
import pcreg.model
import workloads
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent

FIXTURE = HERE.parent / "src" / "pcreg" / "data" / "electricity_synthetic.csv"


def _build(name, seed, tmp_path, tag):
    workdir = tmp_path / f"{tag}"
    workdir.mkdir()
    return workloads.build(name, seed, FIXTURE, workdir), workdir


def _snapshot(workload, workdir):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    arrays = [(d.x.tobytes(), d.y.tobytes(), d.names) for d in workload.designs]
    cases = [(c.key, c.kind, tuple(a.replace(str(workdir), "") for a in c.argv), c.design, c.d, c.mode)
             for c in workload.cases]
    return files, arrays, cases


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    first = _snapshot(*_build(name, 7, tmp_path, "a"))
    again = _snapshot(*_build(name, 7, tmp_path, "b"))
    other = _snapshot(*_build(name, 8, tmp_path, "c"))
    assert first == again
    assert first[0] != other[0]


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),      # child
        (5.0, 9.0, 0),      # child with a grandchild
        (6.0, 8.0, 2),      # grandchild
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    overlapping = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 6.0, 0), (8.0, 12.0, 0)]
    assert self_times(overlapping)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    value, pct = harness.tail(samples)
    assert (value, pct) == (90, 90.0)
    assert sum(s > value for s in samples) == 10
    assert harness.tail(list(range(20))) == (9, 50.0)
    assert harness.tail(list(range(11))) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_windowed_tail_is_the_median_of_fixed_window_tails():
    w = harness.TAIL_WINDOW
    # Three windows whose tails are 1, 2 and 100, plus a partial window left out.
    samples = [0.0] * (w - 11) + [1.0] * 11 + [0.0] * (w - 11) + [2.0] * 11
    samples += [0.0] * (w - 11) + [100.0] * 11 + [1e6] * (w // 2)
    value, pct, windows = harness.windowed_tail(samples)
    assert (value, windows) == (2.0, 3)
    assert pct == pytest.approx(100.0 * (w - 10) / w)
    # A run shorter than one window is one window, as with ``tail``.
    assert harness.windowed_tail(list(range(20))) == (9, 50.0, 1)


def _compare_json(workload, case):
    design = workload.designs[case.design]
    data = pcreg.model.Dataset(y=design.y, x=design.x, names=design.names, intercept_included=True)
    data, record = pcreg.cli.standardize(data, case.mode)
    return pcreg.cli.render_json(pcreg.cli.compare_payload(data, case.d, record))


def _corrupt(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def test_oracle_passes_real_output_and_flags_corrupted_payloads(tmp_path):
    workload, _ = _build("fits-batch", 3, tmp_path, "w")
    case = workload.cases[0]
    ref = oracle.reference(workload.designs[case.design], case.mode, case.d)
    text = _compare_json(workload, case)
    assert oracle.check("compare-json", text, ref) == []

    def residual(p):
        p["residuals"]["three_forms_spread"] = 1e-3

    def beta(p):
        p["estimates"]["ols"][1] *= 1 + 1e-6

    def unknown(p):
        p["residuals"]["new_identity"] = 0.0

    for edit in (residual, beta, unknown):
        assert oracle.check("compare-json", _corrupt(text, edit), ref)
    assert oracle.check("compare-json", text[:-10], ref)


def test_oracle_flags_alerts_and_the_wrong_adjudication(tmp_path):
    payload = {"alert": False, "adjudication": {"winner": "n-d"},
               "config": {"replicates": 5000}, "rows": []}
    assert oracle.check("simulate-json", json.dumps(payload), None, 5000) == []
    alerted = dict(payload, alert=True)
    flipped = dict(payload, adjudication={"winner": "n-p"})
    assert oracle.check("simulate-json", json.dumps(alerted), None, 5000)
    assert oracle.check("simulate-json", json.dumps(flipped), None, 5000)


def test_oracle_flags_wrong_singular_values():
    x = np.random.default_rng(0).standard_normal((30, 4))

    class Bent:
        def __init__(self, sigma):
            self.sigma = sigma

    assert oracle.sigma_problems(x, pcreg.linalg.svd_thin) == []
    assert oracle.sigma_problems(x, lambda a: Bent(pcreg.linalg.svd_thin(a).sigma * (1 + 1e-9)))


def test_oracle_checks_table_footers(tmp_path):
    workload, _ = _build("cli-fixture", 1, tmp_path, "w")
    case = next(c for c in workload.cases if c.kind == "compare-table")
    ref = oracle.reference(workload.designs[0], case.mode, case.d)
    out = tmp_path / "table.txt"
    assert pcreg.cli.main([*case.argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert oracle.check("compare-table", text, ref) == []
    assert oracle.check("compare-table", text.replace("sigma2: ols ", "sigma2: ols 9"), ref)


def test_a_changed_output_on_the_same_input_is_a_failure(tmp_path):
    workload, _ = _build("fits-batch", 3, tmp_path, "w")
    runner = harness.Runner(workload, {}, stop=0.0)
    case = workload.cases[0]
    text = _compare_json(workload, case)
    assert runner.verify(case, "library", 0, text)
    assert runner.verify(case, "library", 0, text)
    reordered = json.dumps(json.loads(text), indent=1)
    assert not runner.verify(case, "library", 0, reordered)
    assert not runner.verify(case, "library", 3, "")
    assert (runner.attempted, runner.failed) == (4, 2)


def test_tracer_wraps_every_namespace_and_counts_one_compare(tmp_path):
    workload, _ = _build("fits-batch", 3, tmp_path, "w")
    case = workload.cases[0]
    holders = [pcreg, pcreg.cli, pcreg.model, pcreg.diagnostics, pcreg.montecarlo, pcreg.linalg]
    originals = [getattr(m, "gram_pseudo_inverse") for m in holders]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, "gram_pseudo_inverse") is not o for m, o in zip(holders, originals))
        tracer.start_op()
        _compare_json(workload, case)
        figures = tracer.finish_op()
    finally:
        tracer.uninstall()
    assert [getattr(m, "gram_pseudo_inverse") for m in holders] == originals
    assert figures["linalg.gram_pseudo_inverse.calls"] == 8
    assert figures["linalg.loading_projector.calls"] == 3
    assert figures["diagnostics.pcr_covariance.calls"] == 2
    assert figures["linalg.svd_thin.calls"] == 1
    layer_ms = sum(v for k, v in figures.items() if k.endswith(".ms") and k != "op.ms")
    assert layer_ms == pytest.approx(figures["op.ms"])


def test_benchmark_spec_names_only_measured_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    tracer = Tracer()
    tracer.start_op()
    produced = set(tracer.finish_op()) | {"trace.call_ms_p50", "trace.untraced_call_ms_p50",
                                          "trace.overhead_ms"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
