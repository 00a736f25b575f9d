"""The ledger's own test: ``python -m pytest benchmarks/ledger -q``.

Outside tier-1 (``testpaths`` is ``tests``).  One smoke run of the whole
set with 2 s windows checks the plumbing — every named metric on every
workload with a unit, exact accounting, determinism of the payload
pools, the reconciliation identity, the trace schema — not the numbers.
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.ledger.paths import ROOT, require_program

require_program()

from repro.obs import analyze  # noqa: E402 - needs src/ on the path first

from benchmarks.ledger import aa, catalog, cli, stats  # noqa: E402
from benchmarks.ledger.layers import PROBES  # noqa: E402
from benchmarks.ledger.workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    build_envelope,
    build_pool,
    full_check,
    pool_digest,
    quick_check,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke() -> dict:
    return cli.run_ledger(seed=11, seconds=cli.SMOKE_SECONDS)


def test_benchmark_json_matches_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["command"] == ["python3", "-m", "benchmarks.ledger"]
    assert document["paths"] == ["benchmarks/ledger"]
    assert document["run_seconds"] == cli.WINDOW_SECONDS
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)

    # a demoted metric leaves the bounded list and reappears as ledger.<name>
    assert [(m["name"], m["unit"], m["better"]) for m in document["end_to_end"]] == list(
        catalog.END_TO_END
    )
    assert set(catalog.DEMOTED) < set(catalog.LIVE_NAMES)
    assert {"ledger." + name for name in catalog.DEMOTED} <= set(catalog.PER_LAYER_NAMES)
    listed = {m["name"]: m for m in document["end_to_end"]}
    for name, entry in listed.items():
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= (0.25 if name == "setup_s" else aa.BOUND_CAP)
    assert listed["setup_s"]["bound"] == max(m["bound"] for m in listed.values())

    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == list(
        catalog.PER_LAYER
    )
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 1 <= len(document["per_layer"]) <= 128


def test_every_metric_on_every_workload_with_a_unit(smoke):
    assert set(smoke["workloads"]) == set(BY_NAME)
    for name, entry in smoke["workloads"].items():
        for label, expected in (
            ("live", catalog.LIVE),
            ("traced", catalog.PER_LAYER),
        ):
            metrics = entry[label]["metrics"]
            assert list(metrics) == [n for n, _unit, _better in expected], (name, label)
            for metric, unit, _better in expected:
                value = metrics[metric]
                assert value["unit"] == unit and UNIT.fullmatch(unit)
                assert NAME.fullmatch(metric)
                assert isinstance(value["value"], float)
                # the residual is a difference; its sign has its own test
                assert value["value"] > 0 or metric == "ledger.trace_residual_us", (name, metric)


def test_accounting_is_exact_and_nothing_failed(smoke):
    assert smoke["correct"]
    for entry in smoke["workloads"].values():
        for result in entry.values():
            assert result["attempted"] == result["completed"] + result["failed"]
            assert result["failed"] == 0 and result["errors"] == []
            line = cli.driver_object(result)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert tuple(line["metrics"]) == (
                catalog.END_TO_END_NAMES if result["pass"] == "live"
                else catalog.PER_LAYER_NAMES
            )
        live = entry["live"]
        assert live["failed_share"] == 0
        assert live["connections"] <= stats.nproc()
        assert live["warmup_exchanges"] == 50 * live["connections"]


def test_reconciliation_identity(smoke):
    for name, entry in smoke["workloads"].items():
        traced = entry["traced"]
        m = traced["metrics"]
        total = m["ledger.trace_sum_layers_us"]["value"]
        residual = m["ledger.trace_residual_us"]["value"]
        live = m["ledger.trace_live_p50_us"]["value"]
        assert total + residual == pytest.approx(live, rel=1e-9), name
        assert traced["reconciled"] == (residual >= 0)
        # on text_xml the codec is ~70 % of the exchange, so the host changing
        # speed between the live loop and the probes can turn the residual
        # negative (2 of 10 A/A passes); elsewhere the margin is several-fold
        assert residual >= 0 or name == "text_xml", name
        assert m[traced["core_floor"]]["value"] > 0
        assert 0 < m["ledger.trace_overhead_ratio"]["value"] < 2
        # every probe was timed, each over the floor number of calls at least
        assert len(traced["calls"]) == PROBES + 3
        assert min(traced["calls"].values()) >= 5


def test_trace_file_is_in_the_programs_schema(smoke, capsys):
    path = smoke["workloads"]["small_bxsa"]["traced"]["trace_file"]
    document = analyze.load_trace(path)  # raises on any other schema
    assert document["meta"]["scheme"] == "small_bxsa"
    pooled = analyze.aggregate([document])
    assert pooled["segments"]["probe.xdm.build"]["count"] >= 200
    assert {"xdm.build", "core.policies.encode", "transport.sockets.recv"} <= set(
        pooled["segments"]
    )
    assert analyze.main(["aggregate", path]) == 0
    assert "xdm.build" in capsys.readouterr().out
    # spans of one exchange share its id and hang under one root
    exchanges = [
        span
        for root in document["spans"]
        for span in analyze.iter_spans(root)
        if span["name"] == "ledger.exchange"
    ]
    assert exchanges
    for child in exchanges[0]["children"]:
        assert child["attributes"]["exchange"] == exchanges[0]["attributes"]["exchange"]


def test_same_seed_same_pool_other_seed_other_pool(smoke):
    for workload in WORKLOADS:
        first = pool_digest(build_pool(workload, 11))
        assert first == pool_digest(build_pool(workload, 11))
        assert first != pool_digest(build_pool(workload, 12))
        assert first == smoke["workloads"][workload.name]["live"]["pool_digest"]
        assert first == smoke["workloads"][workload.name]["traced"]["pool_digest"]
    assert (
        smoke["workloads"]["bulk_bxsa"]["live"]["pool_digest"]
        == smoke["workloads"]["bulk_bxsa_threaded"]["live"]["pool_digest"]
    )


def test_reply_checks_catch_a_wrong_reply():
    pool = build_pool(BY_NAME["text_xml"], 3)
    request = build_envelope(pool[0])
    echoed = build_envelope(pool[0])
    echoed.body_root.name = type(echoed.body_root.name)("EchoResponse")
    assert quick_check(request, echoed) and full_check(request, echoed)
    values = echoed.body_root.children[0].children[1].values
    middle = values.copy()
    middle[len(middle) // 2] += 1.0
    echoed.body_root.children[0].children[1].values = middle
    assert quick_check(request, echoed)  # edges only: the middle is full_check's job
    assert not full_check(request, echoed)
    edge = values.copy()
    edge[-1] += 1.0
    echoed.body_root.children[0].children[1].values = edge
    assert not quick_check(request, echoed)


def test_fingerprint_fields():
    fingerprint = stats.fingerprint(seed=5, seconds=30)
    assert {
        "nproc", "cpu_model", "python", "numpy", "git_commit", "seed",
        "window_seconds", "loopback",
    } <= set(fingerprint)
    assert "loopback" in fingerprint["loopback"]


def test_bound_rule_demotes_instead_of_widening():
    def spreads(p99_spread):
        table = {
            name: {"w": {"spread": 0.01, "median": 1.0, "q1": 1.0, "q3": 1.0}}
            for name in catalog.LIVE_NAMES
        }
        table["latency_p99_ms"]["w"]["spread"] = p99_spread
        table["setup_s"]["w"]["spread"] = 0.5
        return table

    bounds, demoted = aa.bounds_from(spreads(0.03))
    assert bounds["latency_p99_ms"] == 0.09 and bounds["exchanges_per_s"] == 0.05
    assert bounds["setup_s"] == aa.SETUP_BOUND and not demoted
    bounds, demoted = aa.bounds_from(spreads(0.04))
    assert "latency_p99_ms" not in bounds
    assert [d["metric"] for d in demoted] == ["latency_p99_ms"]
    document = aa.benchmark_document(bounds, 30)
    assert "latency_p99_ms" not in [m["name"] for m in document["end_to_end"]]
