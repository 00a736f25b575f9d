"""Tests for the live-telemetry layer: labelled metrics, exposition,
sampling, the analyze CLI, and RED instrumentation end to end.

The acceptance-criterion test lives in :class:`TestServiceRedEndToEnd`:
run a SOAP/HTTP service, make exchanges, scrape ``GET /metrics`` over the
same listener, and check the ``soap_requests_total`` series sum equals
the number of exchanges made.
"""

import json
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Dispatcher,
    SoapEnvelope,
    SoapFault,
    SoapHttpClient,
    SoapHttpService,
    SoapTcpClient,
    SoapTcpService,
    XMLEncoding,
)
from repro.harness.measure import traced_run
from repro.obs import HeadSampler, MetricsRegistry, render_prometheus, render_varz
from repro.obs.analyze import (
    aggregate,
    critical_path,
    diff_directories,
    main as analyze_main,
    quantile_of,
    reconcile,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
)
from repro.transport import MemoryNetwork
from repro.transport.http import HttpClient, HttpServer
from repro.transport.resilience import RetryBudgetExhausted, RetryPolicy, retry_call
from repro.xdm import element, leaf


def make_dispatcher() -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request: SoapEnvelope):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Fail")
    def fail(request: SoapEnvelope):
        raise SoapFault("soap:Server", "deliberate failure")

    return d


def echo_envelope() -> SoapEnvelope:
    return SoapEnvelope.wrap(element("Echo", leaf("n", 7, "int")))


def parse_prometheus(text: str) -> dict:
    """Sample lines of the exposition as ``{'name{labels}': float}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


def series_sum(samples: dict, name: str) -> float:
    return sum(v for k, v in samples.items() if k.split("{")[0] == name)


# ---------------------------------------------------------------------------
# labelled families


class TestLabelledFamilies:
    def test_labels_fan_out_into_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("req_total", labels={"op": "echo", "status": "ok"}).add(3)
        registry.counter("req_total", labels={"op": "echo", "status": "error"}).add()
        registry.counter("req_total", labels={"op": "sum", "status": "ok"}).add(2)
        snap = registry.snapshot()["counters"]
        assert snap['req_total{op="echo",status="ok"}'] == 3
        assert snap['req_total{op="echo",status="error"}'] == 1
        assert snap['req_total{op="sum",status="ok"}'] == 2

    def test_same_values_get_the_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"k": "v"})
        b = registry.counter("c", labels={"k": "v"})
        assert a is b

    def test_family_rejects_mismatched_label_names(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"op": "echo"})
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("c", labels={"status": "ok"})

    def test_family_rejects_wrong_label_set_on_labels_call(self):
        registry = MetricsRegistry()
        family = registry.counter_family("c", ("op",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(op="echo", extra="nope")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_gauge_family_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("open", labels={"pool": "a"})
        g.inc()
        g.inc()
        g.dec()
        assert registry.snapshot()["gauges"]['open{pool="a"}'] == 1


class TestCardinalityGuard:
    def test_live_writes_hit_the_cap(self):
        registry = MetricsRegistry()
        family = registry.counter_family("c", ("id",), max_series=4)
        for i in range(4):
            family.labels(id=str(i)).add()
        with pytest.raises(LabelCardinalityError, match="cap of 4"):
            family.labels(id="one-too-many")
        # existing series stay usable after the refusal
        family.labels(id="0").add()

    def test_merge_bypasses_the_cap(self):
        """Folding shard registries must be lossless even above the cap."""
        dest = MetricsRegistry()
        dest_family = dest.counter_family("c", ("id",), max_series=2)
        dest_family.labels(id="a").add()
        dest_family.labels(id="b").add()
        source = MetricsRegistry()
        source_family = source.counter_family("c", ("id",), max_series=8)
        for i in range(5):
            source_family.labels(id=f"s{i}").add()
        dest.merge(source)
        assert len(dest_family.series()) == 7


class TestBoundFamilies:
    """A serving instrument is bound once and then hit without a lock: the
    fast path keeps the family's contract."""

    def test_a_bound_family_still_enforces_its_cap(self):
        family = MetricsRegistry().counter_family("c", ("id",), max_series=2)
        family.labels(id="a").add()
        family.labels(id="b").add()
        family.labels(id="a").add()  # a hit at the cap is no new series
        with pytest.raises(LabelCardinalityError, match="cap of 2"):
            family.labels(id="c")
        assert sorted(s.value for s in family.series()) == [1, 2]

    @pytest.mark.parametrize(
        "labels",
        [
            {"op": "echo"},
            {"op": "echo", "status": "ok", "extra": "nope"},
            {"op": "echo", "state": "ok"},
        ],
        ids=["missing", "extra", "misnamed"],
    )
    def test_wrong_label_names_raise_on_a_hit(self, labels):
        family = MetricsRegistry().counter_family("c", ("op", "status"))
        family.labels(op="echo", status="ok")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(**labels)
        assert len(family.series()) == 1

    def test_racing_first_uses_make_one_series_per_label_set(self):
        """Hits read the series map without the lock while misses insert
        under it: threads racing to first use of a label set must all get
        the one series, or their updates land on a series nobody exports."""
        family = MetricsRegistry().counter_family("c", ("id",))
        threads, per_thread, keys = 8, 2000, 16
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(per_thread):
                family.labels(id=str((seed + i) % keys)).add()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(s,)) for s in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(family.series()) == keys
        assert sum(s.value for s in family.series()) == threads * per_thread

    def test_series_made_before_and_after_binding_are_one_series(self):
        def record(registry, bind_first):
            if bind_first:
                requests = registry.counter_family("req_total", ("method", "status"))
                seconds = registry.histogram_family("req_seconds", ("method",))
            registry.counter("req_total", labels={"status": "2xx", "method": "GET"}).add()
            registry.histogram("req_seconds", labels={"method": "GET"}).observe(0.5)
            if not bind_first:
                requests = registry.counter_family("req_total", ("method", "status"))
                seconds = registry.histogram_family("req_seconds", ("method",))
            requests.labels(method="GET", status="2xx").add()
            requests.labels(method="POST", status="5xx").add(2)
            seconds.labels(method="GET").observe(0.25)
            assert requests.labels(method="GET", status="2xx") is registry.counter(
                "req_total", labels={"method": "GET", "status": "2xx"}
            )

        bound, looked_up = MetricsRegistry(), MetricsRegistry()
        record(bound, bind_first=True)
        record(looked_up, bind_first=False)
        assert render_prometheus(bound) == render_prometheus(looked_up)
        assert 'req_total{method="GET",status="2xx"} 2' in render_prometheus(bound)
        merged = MetricsRegistry()
        merged.merge(bound)
        merged.merge(looked_up)
        counters = merged.snapshot()["counters"]
        assert counters == {
            'req_total{method="GET",status="2xx"}': 4,
            'req_total{method="POST",status="5xx"}': 4,
        }
        assert merged.snapshot()["histograms"]['req_seconds{method="GET"}']["count"] == 4


# ---------------------------------------------------------------------------
# histogram quantiles


class TestHistogramQuantile:
    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.quantile(0.5) is None
        assert h.mean == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_quantile_bounds_validation(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_extremes_are_exact(self):
        h = Histogram("h")
        for v in (0.003, 0.04, 0.5):
            h.observe(v)
        assert h.quantile(0.0) == 0.003
        assert h.quantile(1.0) == 0.5

    def test_single_observation_all_quantiles(self):
        h = Histogram("h")
        h.observe(0.25)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.25)

    def test_quantiles_are_monotone_and_clamped(self):
        h = Histogram("h")
        for i in range(1, 101):
            h.observe(i / 1000.0)
        qs = [h.quantile(q / 20.0) for q in range(21)]
        assert qs == sorted(qs)
        assert all(0.001 <= v <= 0.100 for v in qs)
        # bucketed p50 lands within the bucket containing the true median
        assert h.quantile(0.5) == pytest.approx(0.050, rel=0.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", bounds=(1.0, 0.5))


# ---------------------------------------------------------------------------
# merge semantics


class TestMergeSemantics:
    def test_counter_gauge_histogram_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").add(2)
        b.counter("c").add(3)
        a.gauge("g").set(4)
        b.gauge("g").set(1)
        a.histogram("h").observe(0.1)
        b.histogram("h").observe(0.3)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 5  # gauges add: shards of one server
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 0.1
        assert snap["histograms"]["h"]["max"] == 0.3

    def test_type_mismatch_raises(self):
        c, h = Counter("x"), Histogram("x")
        with pytest.raises(TypeError):
            c.merge(h)
        with pytest.raises(TypeError):
            h.merge(c)
        with pytest.raises(TypeError):
            Gauge("x").merge(c)

    def test_histogram_bound_mismatch_raises(self):
        a = Histogram("h", bounds=(0.1, 1.0))
        b = Histogram("h", bounds=(0.2, 2.0))
        with pytest.raises(ValueError, match="refusing to mix scales"):
            a.merge(b)

    def test_differently_labelled_families_refuse_to_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", labels={"op": "echo"})
        b.counter("c", labels={"status": "ok"})
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_hammer_under_concurrent_observes(self):
        """Merging while both sides take writes must not tear or deadlock.

        Writers hammer a source histogram + counter while the main thread
        repeatedly merges into a destination; afterwards one final merge
        must land exactly the writes the destination had not yet seen —
        checked via the internal consistency count == sum(bucket counts).
        """
        source = MetricsRegistry()
        dest = MetricsRegistry()
        go = threading.Event()
        per_thread = 5000
        n_threads = 4

        def writer():
            h = source.histogram("h", labels={"w": "x"})
            c = source.counter("c")
            go.wait()
            for i in range(per_thread):
                h.observe((i % 7) / 100.0)
                c.add()

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        go.set()
        for _ in range(25):
            probe = MetricsRegistry()
            probe.merge(source)
            snap = probe.snapshot()["histograms"].get('h{w="x"}')
            if snap is not None:
                # the locked snapshot may never tear: bucket counts always
                # account for exactly `count` observations
                assert sum(snap["counts"]) == snap["count"]
        for t in threads:
            t.join()
        dest.merge(source)
        snap = dest.snapshot()
        assert snap["counters"]["c"] == per_thread * n_threads
        assert snap["histograms"]['h{w="x"}']["count"] == per_thread * n_threads

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=0,
            max_size=40,
        ),
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=0,
            max_size=40,
        ),
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=0,
            max_size=40,
        ),
    )
    def test_histogram_merge_is_associative(self, xs, ys, zs):
        """(a ⊕ b) ⊕ c equals a ⊕ (b ⊕ c) on all exported state."""

        def hist(samples):
            h = Histogram("h")
            for v in samples:
                h.observe(v)
            return h

        left = hist(xs)
        ab = hist(ys)
        left.merge(ab)
        c1 = hist(zs)
        left.merge(c1)

        right_tail = hist(ys)
        right_tail.merge(hist(zs))
        right = hist(xs)
        right.merge(right_tail)

        sl, sr = left.snapshot(), right.snapshot()
        assert sl["counts"] == sr["counts"]
        assert sl["count"] == sr["count"]
        assert sl["total"] == pytest.approx(sr["total"])
        assert sl["min"] == sr["min"] and sl["max"] == sr["max"]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_histogram_is_observation_order_independent(self, samples):
        forward, backward = Histogram("h"), Histogram("h")
        for v in samples:
            forward.observe(v)
        for v in reversed(samples):
            backward.observe(v)
        assert forward.snapshot()["counts"] == backward.snapshot()["counts"]
        assert forward.quantile(0.5) == pytest.approx(backward.quantile(0.5))


# ---------------------------------------------------------------------------
# exposition


class TestExposition:
    def test_prometheus_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("soap.requests", labels={"op": "echo"}).add(2)
        registry.gauge("open_conns").set(3)
        text = render_prometheus(registry)
        assert "# TYPE open_conns gauge\n" in text
        assert "# TYPE soap_requests counter\n" in text  # dot sanitized
        assert 'soap_requests{op="echo"} 2\n' in text
        assert "open_conns 3\n" in text

    def test_prometheus_histogram_is_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        samples = parse_prometheus(render_prometheus(registry))
        assert samples['lat_bucket{le="0.01"}'] == 1
        assert samples['lat_bucket{le="0.1"}'] == 2
        assert samples['lat_bucket{le="1.0"}'] == 3
        assert samples['lat_bucket{le="+Inf"}'] == 4
        assert samples["lat_count"] == 4
        assert samples["lat_sum"] == pytest.approx(5.555)
        assert samples["lat_min"] == pytest.approx(0.005)
        assert samples["lat_max"] == pytest.approx(5.0)

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"msg": 'say "hi"\nnow\\'}).add()
        text = render_prometheus(registry)
        assert '\\"hi\\"' in text
        assert "\\n" in text
        assert "\\\\" in text

    def test_varz_document_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").add(7)
        doc = render_varz(registry, name="svc", uptime_seconds=1.5)
        assert doc["schema"] == "repro.obs.varz/1"
        assert doc["metrics"]["counters"]["c"] == 7
        assert doc["server"] == {"name": "svc", "uptime_seconds": 1.5}
        json.dumps(doc)  # must be JSON-serializable as-is


# ---------------------------------------------------------------------------
# sampling


class TestHeadSampler:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            HeadSampler(1.5)
        with pytest.raises(ValueError):
            HeadSampler(-0.1)

    def test_rate_edges(self):
        assert HeadSampler(1.0).decide("anything") is True
        assert HeadSampler(0.0).decide("anything") is False

    def test_deterministic_across_instances(self):
        keys = [f"figure5-bxsa-n{i}" for i in range(200)]
        a = [HeadSampler(0.3, seed=7).decide(k) for k in keys]
        b = [HeadSampler(0.3, seed=7).decide(k) for k in keys]
        assert a == b
        # a different seed picks a different subset
        c = [HeadSampler(0.3, seed=8).decide(k) for k in keys]
        assert a != c

    def test_kept_fraction_tracks_rate(self):
        sampler = HeadSampler(0.5, seed=1)
        kept = sum(sampler.decide(f"k{i}") for i in range(2000))
        assert 0.4 < kept / 2000 < 0.6

    def test_should_sample_counts_and_count_into(self):
        sampler = HeadSampler(0.5, seed=1)
        for i in range(100):
            sampler.should_sample(f"k{i}")
        assert sampler.sampled + sampler.dropped == 100
        assert sampler.sampled > 0 and sampler.dropped > 0
        registry = MetricsRegistry()
        sampler.count_into(registry)
        snap = registry.snapshot()["gauges"]
        assert snap["obs_traces_sampled"] == sampler.sampled
        assert snap["obs_traces_dropped"] == sampler.dropped


class TestTracedRunSampling:
    """Sampling thins trace files only — metrics stay exact."""

    def _run(self, tmp_path, rate, n=12):
        trace_dir = tmp_path / f"rate{rate}"
        trace_dir.mkdir(parents=True)
        metrics = MetricsRegistry()
        sampler = HeadSampler(rate, seed=3)
        for i in range(n):
            traced_run(
                str(trace_dir),
                f"exchange-{i}",
                lambda: None,
                metrics=metrics,
                sampler=sampler,
                figure="t",
                scheme="s",
            )
        return trace_dir, metrics, sampler

    def test_metrics_exact_under_sampling(self, tmp_path):
        trace_dir, metrics, sampler = self._run(tmp_path, rate=0.5)
        snap = metrics.snapshot()
        counted = snap["counters"]['harness_exchanges_total{figure="t",scheme="s"}']
        assert counted == 12  # every exchange counted, dropped or not
        files = list(trace_dir.glob("*.json"))
        assert len(files) == sampler.sampled
        assert sampler.sampled + sampler.dropped == 12
        assert 0 < len(files) < 12
        assert snap["gauges"]["obs_traces_sampled"] == sampler.sampled
        assert snap["gauges"]["obs_traces_dropped"] == sampler.dropped

    def test_rate_one_keeps_everything(self, tmp_path):
        trace_dir, _, _ = self._run(tmp_path, rate=1.0, n=4)
        assert len(list(trace_dir.glob("*.json"))) == 4

    def test_kept_set_is_deterministic(self, tmp_path):
        dir_a, _, _ = self._run(tmp_path / "a", rate=0.5)
        dir_b, _, _ = self._run(tmp_path / "b", rate=0.5)
        assert sorted(p.name for p in dir_a.glob("*.json")) == sorted(
            p.name for p in dir_b.glob("*.json")
        )


# ---------------------------------------------------------------------------
# analyze CLI


def make_trace(name_total_pairs, scheme="bxsa", reported=None):
    """A minimal but schema-valid trace document for analyze tests."""

    def seg(name, seconds, kind="cpu"):
        return {
            "id": name,
            "name": name,
            "kind": kind,
            "thread": "t",
            "start": 0.0,
            "seconds": seconds,
            "modelled": kind != "cpu",
            "attributes": {"segment": True},
            "events": [],
            "children": [],
        }

    children = [seg(n, s, k) for n, s, k in name_total_pairs]
    total = sum(s for _, s, _ in name_total_pairs)
    root = {
        "id": "root",
        "name": "exchange",
        "kind": "internal",
        "thread": "t",
        "start": 0.0,
        "seconds": total,
        "modelled": False,
        "attributes": {
            "reported_total_seconds": total if reported is None else reported
        },
        "events": [],
        "children": children,
    }
    return {
        "schema": "repro.obs.trace/1",
        "meta": {"scheme": scheme},
        "spans": [root],
        "counters": {},
        "histograms": {},
        "orphan_events": [],
    }


class TestAnalyze:
    SEGMENTS = [("encode", 0.002, "cpu"), ("wire", 0.010, "wire"), ("decode", 0.001, "cpu")]

    def test_critical_path_descends_heaviest_child(self):
        path = critical_path(make_trace(self.SEGMENTS))
        assert [s["name"] for s in path] == ["exchange", "wire"]

    def test_reconcile_ok_and_mismatch(self):
        total, reported, ok = reconcile(make_trace(self.SEGMENTS))
        assert ok and total == pytest.approx(reported)
        _, _, bad = reconcile(make_trace(self.SEGMENTS, reported=0.5))
        assert not bad

    def test_reconcile_without_reported_total_passes(self):
        doc = make_trace(self.SEGMENTS)
        del doc["spans"][0]["attributes"]["reported_total_seconds"]
        total, reported, ok = reconcile(doc)
        assert reported is None and ok
        assert total == pytest.approx(0.013)

    def test_quantile_of(self):
        with pytest.raises(ValueError):
            quantile_of([], 0.5)
        assert quantile_of([3.0], 0.9) == 3.0
        assert quantile_of([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert quantile_of([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert quantile_of([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_aggregate_pools_segments_and_schemes(self):
        docs = [
            make_trace(self.SEGMENTS, scheme="bxsa"),
            make_trace([("encode", 0.004, "cpu"), ("wire", 0.020, "wire")], scheme="soap"),
        ]
        result = aggregate(docs)
        assert result["traces"] == 2
        assert result["segments"]["encode"]["count"] == 2
        assert result["segments"]["encode"]["p50"] == pytest.approx(0.003)
        assert result["segments"]["encode"]["total"] == pytest.approx(0.006)
        assert result["schemes"]["bxsa"]["cpu"] == pytest.approx(0.003)
        assert result["schemes"]["bxsa"]["wire"] == pytest.approx(0.010)
        assert result["schemes"]["soap"]["wire"] == pytest.approx(0.020)

    def test_diff_directories(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        (dir_a / "x.json").write_text(json.dumps(make_trace(self.SEGMENTS)))
        (dir_b / "x.json").write_text(
            json.dumps(make_trace([("encode", 0.002, "cpu"), ("wire", 0.030, "wire")]))
        )
        (dir_a / "only-a.json").write_text(json.dumps(make_trace(self.SEGMENTS)))
        result = diff_directories(str(dir_a), str(dir_b))
        assert result["only_a"] == ["only-a.json"]
        assert result["only_b"] == []
        entry = result["common"]["x.json"]
        assert entry["delta"] == pytest.approx(0.032 - 0.013)
        assert entry["segments"]["wire"] == (pytest.approx(0.010), pytest.approx(0.030))

    def test_cli_critical_path_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_trace(self.SEGMENTS)))
        assert analyze_main(["critical-path", str(good)]) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out and "wire" in out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make_trace(self.SEGMENTS, reported=9.9)))
        assert analyze_main(["critical-path", str(tmp_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_cli_aggregate_and_diff(self, tmp_path, capsys):
        (tmp_path / "t.json").write_text(json.dumps(make_trace(self.SEGMENTS)))
        assert analyze_main(["aggregate", str(tmp_path)]) == 0
        assert "per-segment latency" in capsys.readouterr().out
        assert analyze_main(["diff", str(tmp_path), str(tmp_path)]) == 0
        assert "+0.0%" in capsys.readouterr().out

    def test_cli_rejects_empty_input(self, tmp_path):
        assert analyze_main(["critical-path", str(tmp_path)]) == 1

    def test_load_rejects_unknown_schema(self, tmp_path):
        from repro.obs.analyze import load_trace

        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": "something/9"}))
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_trace(str(path))


# ---------------------------------------------------------------------------
# HTTP admin surface + hardening


class TestHttpAdminSurface:
    def setup_method(self):
        self.net = MemoryNetwork()

        def handler(request):
            if request.target == "/boom":
                raise RuntimeError("secret internal detail")
            from repro.transport.http import HttpResponse

            return HttpResponse(200, body=b"app")

        self.server = HttpServer(self.net.listen("web"), handler, name="t-web").start()
        self.client = HttpClient(lambda: self.net.connect("web"))

    def teardown_method(self):
        self.client.close()
        self.server.stop()

    def test_metrics_endpoint_serves_prometheus_text(self):
        self.client.get("/app")
        resp = self.client.get("/metrics")
        assert resp.status == 200
        assert resp.headers.get("Content-Type") == "text/plain; version=0.0.4"
        samples = parse_prometheus(str(resp.body, "utf-8"))
        # the /app request is already on the books by the time we scrape
        assert samples['http_requests_total{method="GET",status="2xx"}'] >= 1
        assert series_sum(samples, "http_request_seconds_count") >= 1
        assert samples["http_connections_open"] == 1

    def test_healthz(self):
        resp = self.client.get("/healthz")
        assert resp.status == 200
        payload = json.loads(bytes(resp.body))
        assert payload["status"] == "ok"
        assert payload["server"] == "t-web"
        assert payload["uptime_seconds"] >= 0.0
        assert payload["connections_open"] == 1

    def test_varz_includes_recent_error_detail_server_side_only(self):
        resp = self.client.get("/boom")
        assert resp.status == 500
        # the client sees a generic body — no exception detail leaks
        assert resp.body == b"internal server error"
        assert b"secret internal detail" not in bytes(resp.body)

        varz = json.loads(bytes(self.client.get("/varz").body))
        assert varz["schema"] == "repro.obs.varz/1"
        errors = varz["server"]["recent_errors"]
        assert errors[-1]["error"] == "RuntimeError"
        assert errors[-1]["detail"] == "secret internal detail"
        assert errors[-1]["target"] == "/boom"
        counters = varz["metrics"]["counters"]
        assert counters['http_handler_errors_total{type="RuntimeError"}'] == 1

    def test_admin_endpoints_are_get_only(self):
        resp = self.client.post("/metrics", b"nope")
        assert resp.status == 405

    def test_admin_can_be_disabled(self):
        net = MemoryNetwork()
        from repro.transport.http import HttpResponse

        server = HttpServer(
            net.listen("web"), lambda r: HttpResponse(200, body=b"handler"), admin=False
        ).start()
        client = HttpClient(lambda: net.connect("web"))
        try:
            assert client.get("/metrics").body == b"handler"
        finally:
            client.close()
            server.stop()

    def test_stop_drains_and_joins_connection_threads(self):
        self.client.get("/app")  # establish a live keep-alive connection
        assert any(t.is_alive() for t in self.server._conn_threads)
        # the client hanging up lets the connection thread finish its
        # in-flight read; stop() must then join it within the drain budget
        self.client.close()
        self.server.stop()
        assert all(not t.is_alive() for t in self.server._conn_threads)
        assert not self.server._conn_channels

    def test_make_admin_server(self):
        from repro.transport.http.server import make_admin_server

        net = MemoryNetwork()
        registry = MetricsRegistry()
        registry.counter("app_things_total").add(5)
        server = make_admin_server(net.listen("admin"), registry).start()
        client = HttpClient(lambda: net.connect("admin"))
        try:
            samples = parse_prometheus(str(client.get("/metrics").body, "utf-8"))
            assert samples["app_things_total"] == 5
            assert client.get("/other").status == 404
        finally:
            client.close()
            server.stop()


# ---------------------------------------------------------------------------
# RED instrumentation end to end (the acceptance criterion)


class TestServiceRedEndToEnd:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.service = SoapHttpService(
            self.net.listen("web"), make_dispatcher(), name="red-web"
        ).start()

    def teardown_method(self):
        self.service.stop()

    def scrape(self) -> dict:
        scraper = HttpClient(lambda: self.net.connect("web"))
        try:
            resp = scraper.get("/metrics")
            assert resp.status == 200
            return parse_prometheus(str(resp.body, "utf-8"))
        finally:
            scraper.close()

    def test_soap_requests_total_sum_equals_exchanges(self):
        client = SoapHttpClient(lambda: self.net.connect("web"), encoding=XMLEncoding())
        exchanges = 0
        for _ in range(5):
            client.call(echo_envelope())
            exchanges += 1
        for _ in range(2):
            with pytest.raises(SoapFault):
                client.call(SoapEnvelope.wrap(element("Fail")))
            exchanges += 1
        with pytest.raises(SoapFault):
            client.call(SoapEnvelope.wrap(element("NoSuchOp")))
        exchanges += 1
        client.close()

        samples = self.scrape()
        assert series_sum(samples, "soap_requests_total") == exchanges
        # label names render sorted: binding, encoding, operation, status
        ct = XMLEncoding().content_type.split(";")[0].strip()
        ok_key = (
            f'soap_requests_total{{binding="http",encoding="{ct}",'
            f'operation="Echo",status="ok"}}'
        )
        fail_key = (
            f'soap_requests_total{{binding="http",encoding="{ct}",'
            f'operation="Fail",status="server_fault"}}'
        )
        unknown_key = (
            f'soap_requests_total{{binding="http",encoding="{ct}",'
            f'operation="?",status="client_fault"}}'
        )
        assert samples[ok_key] == 5
        assert samples[fail_key] == 2
        assert samples[unknown_key] == 1
        # latency histogram counted every exchange too
        assert series_sum(samples, "soap_request_seconds_count") == exchanges
        # and the HTTP layer agrees (each SOAP exchange is one POST;
        # fault envelopes ride back on 5xx per the SOAP 1.1 HTTP binding)
        post_total = sum(
            v
            for k, v in samples.items()
            if k.startswith('http_requests_total{method="POST"')
        )
        assert post_total == exchanges
        assert samples['http_requests_total{method="POST",status="2xx"}'] == 5

    def test_tcp_service_records_red_metrics(self):
        registry = MetricsRegistry()
        service = SoapTcpService(
            self.net.listen("svc"), make_dispatcher(), metrics=registry
        ).start()
        client = SoapTcpClient(lambda: self.net.connect("svc"), encoding=XMLEncoding())
        try:
            client.call(echo_envelope())
            client.call(echo_envelope())
            with pytest.raises(SoapFault):
                client.call(SoapEnvelope.wrap(element("Fail")))
        finally:
            client.close()
            service.stop()
        samples = parse_prometheus(render_prometheus(registry))
        assert series_sum(samples, "soap_requests_total") == 3
        ct = XMLEncoding().content_type.split(";")[0].strip()
        key = (
            f'soap_requests_total{{binding="tcp",encoding="{ct}",'
            f'operation="Echo",status="ok"}}'
        )
        assert samples[key] == 2


class TestDispatcherAndResilienceMetrics:
    def test_dispatcher_labels_by_operation_and_status(self):
        registry = MetricsRegistry()
        d = make_dispatcher()
        d.metrics = registry
        d.dispatch(echo_envelope())
        with pytest.raises(SoapFault):
            d.dispatch(SoapEnvelope.wrap(element("Fail")))
        with pytest.raises(SoapFault):
            d.dispatch(SoapEnvelope.wrap(element("Nope")))
        snap = registry.snapshot()["counters"]
        assert snap['soap_dispatch_total{operation="Echo",status="ok"}'] == 1
        assert snap['soap_dispatch_total{operation="Fail",status="server_fault"}'] == 1
        # unknown operations share the "?" series — cardinality stays bounded
        assert snap['soap_dispatch_total{operation="?",status="client_fault"}'] == 1

    def test_retry_call_counts_retries_and_exhaustion(self):
        registry = MetricsRegistry()
        policy = RetryPolicy(max_attempts=3, base_backoff=0.0, jitter=0.0)

        def always_fails(attempt):
            raise ConnectionError("down")

        with pytest.raises(RetryBudgetExhausted):
            retry_call(
                always_fails,
                policy,
                retryable=lambda exc: True,
                sleep=lambda s: None,
                metrics=registry,
            )
        snap = registry.snapshot()["counters"]
        assert snap['resilience_retries_total{error="ConnectionError"}'] == 2
        assert snap['resilience_exhausted_total{error="ConnectionError"}'] == 1


# ---------------------------------------------------------------------------
# Concurrency: pipelined keep-alive exchanges, connection caps, drain


class TestServerConcurrency:
    def test_pipelined_keepalive_exchanges_have_no_crosstalk(self):
        """N threads x M exchanges each over its own keep-alive connection:
        every response matches its request, and ``soap_requests_total``
        sums to exactly N*M."""
        n_threads, m_exchanges = 6, 8
        net = MemoryNetwork()
        service = SoapHttpService(net.listen("web"), make_dispatcher()).start()
        mismatches: list[tuple[int, int, str]] = []
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            client = SoapHttpClient(lambda: net.connect("web"), encoding=XMLEncoding())
            try:
                for j in range(m_exchanges):
                    # a unique text payload per exchange
                    marker = f"w{worker_id}-r{j}"
                    request = SoapEnvelope.wrap(
                        element("Echo", leaf("marker", marker, "string"))
                    )
                    response = client.call(request)
                    got = response.body_root.text_content()
                    if got != marker:
                        mismatches.append((worker_id, j, got))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        try:
            assert not errors
            assert mismatches == []
            samples = parse_prometheus(render_prometheus(service.metrics))
            assert series_sum(samples, "soap_requests_total") == n_threads * m_exchanges
        finally:
            service.stop()

    def test_connection_cap_rejects_past_the_limit(self):
        """Connections past ``max_connections`` get a clean 503 +
        Retry-After from the accept loop — never an unbounded thread."""
        from repro.transport.http import HttpResponse
        from repro.transport.http.pipeline import REJECT_RETRY_AFTER

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"),
            lambda r: HttpResponse(200, body=b"ok"),
            max_connections=2,
        ).start()
        keepers = [HttpClient(lambda: net.connect("web")) for _ in range(2)]
        try:
            for client in keepers:
                assert client.get("/app").status == 200  # both slots now held
            extra = HttpClient(lambda: net.connect("web"))
            try:
                response = extra.get("/app")
                assert response.status == 503
                assert response.headers.get("Retry-After") == f"{REJECT_RETRY_AFTER:g}"
                assert response.headers.get("Connection") == "close"
            finally:
                extra.close()
            samples = parse_prometheus(render_prometheus(server.metrics))
            assert samples["http_connections_rejected_total"] == 1
            assert samples["http_connections_open"] == 2
        finally:
            for client in keepers:
                client.close()
            server.stop()

    def test_connection_cap_validation(self):
        net = MemoryNetwork()
        with pytest.raises(ValueError):
            HttpServer(net.listen("web"), lambda r: None, max_connections=0)

    def test_stop_drain_deadline_is_configurable_and_completes_under_load(self):
        """``stop(drain_timeout=...)`` finishes in-flight requests within
        the budget and joins every connection thread — no flaky teardown."""
        from repro.transport.http import HttpResponse

        release = threading.Event()
        entered = threading.Semaphore(0)

        def slow_handler(request):
            entered.release()
            release.wait(10)
            return HttpResponse(200, body=b"slow but served")

        net = MemoryNetwork()
        server = HttpServer(net.listen("web"), slow_handler).start()
        results: list[int] = []

        def one_request() -> None:
            client = HttpClient(lambda: net.connect("web"))
            try:
                results.append(client.get("/slow").status)
            finally:
                client.close()

        threads = [
            threading.Thread(target=one_request, daemon=True) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for _ in range(4):  # every request is in flight before the stop
            assert entered.acquire(timeout=5)
        # release the handlers just as the drain begins: stop() must wait
        # for the in-flight responses, not cut them off
        threading.Timer(0.05, release.set).start()
        began = time.monotonic()
        server.stop(drain_timeout=10)
        elapsed = time.monotonic() - began
        assert elapsed < 10
        for t in threads:
            t.join(5)
        assert all(not t.is_alive() for t in threads)
        assert results == [200, 200, 200, 200]
        assert all(not t.is_alive() for t in server._conn_threads)

    def test_stop_with_tiny_drain_budget_is_bounded(self):
        """A handler that never returns cannot hold ``stop()`` hostage:
        past the drain budget the channels are force-closed and stop()
        returns promptly."""
        from repro.transport.http import HttpResponse

        stuck = threading.Event()
        entered = threading.Event()

        def wedged_handler(request):
            entered.set()
            stuck.wait(30)
            return HttpResponse(200, body=b"too late")

        net = MemoryNetwork()
        server = HttpServer(net.listen("web"), wedged_handler).start()
        client = HttpClient(lambda: net.connect("web"))
        thread = threading.Thread(target=lambda: _swallow(client), daemon=True)
        thread.start()
        try:
            assert entered.wait(5)
            began = time.monotonic()
            server.stop(drain_timeout=0.2)
            assert time.monotonic() - began < 5
        finally:
            stuck.set()
            client.close()


def _swallow(client) -> None:
    try:
        client.request("GET", "/wedged")
    except Exception:
        pass


def _wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


class _CloseRaisesOnce:
    """Channel whose first close() raises — the shape of a peer that
    reset the socket between the last read and the server's cleanup."""

    def __init__(self, inner):
        self._inner = inner
        self._raised = False

    def send_all(self, data):
        self._inner.send_all(data)

    def recv(self, max_bytes: int = 65536):
        return self._inner.recv(max_bytes)

    def close(self):
        if not self._raised:
            self._raised = True
            self._inner.close()
            from repro.transport.base import TransportClosed

            raise TransportClosed("connection reset by peer during close")
        self._inner.close()


class _WrappingListener:
    def __init__(self, inner, wrap):
        self._inner = inner
        self._wrap = wrap

    def accept(self):
        return self._wrap(self._inner.accept())

    def close(self):
        self._inner.close()


class TestConnectionLifecycleRegressions:
    """Regression pins for the connection-lifecycle fixes: each of these
    failed (leaked a slot, surfaced an exception, or reused stale state)
    before the corresponding fix."""

    def test_channel_close_raising_does_not_escape_the_connection_thread(self):
        """Regression: the bare ``channel.close()`` in ``_serve_connection``'s
        finally let a TransportError escape and kill the thread noisily."""
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        listener = _WrappingListener(net.listen("web"), _CloseRaisesOnce)
        server = HttpServer(listener, lambda r: HttpResponse(200, body=b"ok")).start()
        uncaught: list = []
        previous_hook = threading.excepthook
        threading.excepthook = lambda args: uncaught.append(args)
        try:
            client = HttpClient(lambda: net.connect("web"))
            try:
                response = client.request("GET", "/x", headers={"Connection": "close"})
                assert response.status == 200
            finally:
                client.close()
            # the connection thread runs its finally (close raises) here
            _wait_until(
                lambda: server.metrics.gauge("http_connections_open").snapshot() == 0
            )
            _wait_until(lambda: all(not t.is_alive() for t in server._conn_threads))
        finally:
            threading.excepthook = previous_hook
            server.stop()
        assert uncaught == [], f"connection thread leaked: {uncaught[0]}"

    def test_spawn_failure_releases_the_connection_slot(self):
        """Regression: when ``thread.start()`` raised, the channel stayed
        registered forever, permanently eating a max_connections slot."""
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"),
            lambda r: HttpResponse(200, body=b"ok"),
            max_connections=1,
        ).start()
        real_start = threading.Thread.start
        failed_once = threading.Event()

        def failing_start(thread):
            if thread.name.endswith("-conn") and not failed_once.is_set():
                failed_once.set()
                raise RuntimeError("cannot spawn: resource pressure")
            real_start(thread)

        threading.Thread.start = failing_start
        try:
            doomed = HttpClient(lambda: net.connect("web"))
            try:
                doomed.get("/x")
            except Exception:
                pass  # the connection whose thread failed to spawn died
            finally:
                doomed.close()
            assert failed_once.is_set()
        finally:
            threading.Thread.start = real_start
        try:
            _wait_until(lambda: not server._conn_channels)
            # the slot must be free again: with max_connections=1 a leaked
            # registration would turn every future connection into a 503
            client = HttpClient(lambda: net.connect("web"))
            try:
                assert client.get("/x").status == 200
            finally:
                client.close()
        finally:
            server.stop()

    def test_connection_cap_slot_reusable_after_close_without_rejection(self):
        """The cap boundary race: a connection arriving as another exits
        must get the freed slot — never a spurious 503."""
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"),
            lambda r: HttpResponse(200, body=b"ok"),
            max_connections=1,
        ).start()
        try:
            for _ in range(8):
                client = HttpClient(lambda: net.connect("web"))
                try:
                    assert client.get("/x").status == 200
                finally:
                    client.close()
                _wait_until(lambda: not server._conn_channels)
            assert (
                server.metrics.counter("http_connections_rejected_total").snapshot()
                == 0
            )
        finally:
            server.stop()

    def test_connection_churn_at_cap_never_exceeds_and_never_errors(self):
        """Concurrent churn against a cap of 2: every exchange is either
        served (200) or cleanly rejected (503); the open-connection gauge
        never exceeds the cap."""
        from repro.transport.base import TransportError
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"),
            lambda r: HttpResponse(200, body=b"ok"),
            max_connections=2,
        ).start()
        statuses: list[int] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def churn() -> None:
            for _ in range(10):
                client = HttpClient(lambda: net.connect("web"))
                try:
                    status = client.get("/x").status
                    with lock:
                        statuses.append(status)
                except TransportError:
                    pass  # torn down mid-handshake under churn; acceptable
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        errors.append(exc)
                finally:
                    client.close()

        threads = [threading.Thread(target=churn, daemon=True) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        try:
            assert not errors
            assert statuses and all(s in (200, 503) for s in statuses)
            assert any(s == 200 for s in statuses)
            assert server.metrics.gauge("http_connections_open").snapshot() <= 2
        finally:
            server.stop()

    def test_server_cannot_be_restarted_after_stop(self):
        """Regression: start() after stop() used to silently reuse stale
        connection bookkeeping on a closed listener."""
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"), lambda r: HttpResponse(200, body=b"ok")
        ).start()
        client = HttpClient(lambda: net.connect("web"))
        try:
            assert client.get("/x").status == 200
        finally:
            client.close()
        server.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            server.start()

    def test_double_start_still_rejected_while_running(self):
        from repro.transport.http import HttpResponse

        net = MemoryNetwork()
        server = HttpServer(
            net.listen("web"), lambda r: HttpResponse(200, body=b"ok")
        ).start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                server.start()
        finally:
            server.stop()
