"""Hot-path codec benchmarks: warm CodecSession vs cold stateless codec.

Pins the speedup ratios the compiled-plan/session work exists for, on the
Figure 5 payload (a SOAP-wrapped doubles array from the LEAD workload):

* ``encode``   — session plan replay vs a fresh stateless encode per message
* ``decode``   — session decode-plan replay vs stateless decode
* ``roundtrip``— encode + decode, warm vs cold

Ratios are cold/warm (>1 means the session wins); a full-mode run keeps the
rendered table as ``benchmarks/results/hotpath.txt``.  The acceptance bars —
at the smallest Figure 5 size, where per-message interpreter overhead (not
array memcpy) dominates — are asserted here and stated nowhere else; the
absolute warm times are the ledger's ``bxsa.encode_warm_us`` /
``bxsa.decode_warm_us``.  Byte compatibility is asserted on every measured
message.
"""

import pytest

from repro.bxsa import CodecSession, decode, encode
from repro.harness.measure import median_seconds, timed_median
from repro.workloads.lead import lead_dataset

from benchmarks.conftest import quick_mode, spool_result

pytestmark = pytest.mark.bench

#: Figure 5 sweep prefix; the small end is where plan replay pays off and
#: the large end shows the ratio converging to 1 as memcpy dominates.
SIZES = [1365] if quick_mode() else [1365, 5460, 21840, 87360]
#: Acceptance criteria at SIZES[0], where per-message interpreter overhead
#: (not array memcpy) dominates: warm-session encode, decode-plan replay
#: (the ISSUE 6 bar: ≥1.8x with self-verification on) and the roundtrip.
MIN_ENCODE_SPEEDUP = 2.0
MIN_DECODE_SPEEDUP = 1.8
MIN_ROUNDTRIP_SPEEDUP = 1.9
#: Same sample counts in quick and full mode: the asserted ratios come from
#: SIZES[0] (microseconds per run), so quick mode only trims the sweep.
REPEATS = 30
ROUNDS = 5


def _interleaved_medians(pairs: dict) -> dict:
    """Median runtime per label, measured in interleaved rounds.

    Alternating cold/warm within each round cancels slow drift (thermal,
    allocator growth, background load) that sequential measurement would
    attribute to whichever side ran later — the ratio, not the absolute
    time, is what this benchmark pins.
    """
    samples: dict = {label: [] for label in pairs}
    for _ in range(ROUNDS):
        for label, fn in pairs.items():
            samples[label].append(timed_median(fn, REPEATS, scale=False)[0])
    return {label: median_seconds(times) for label, times in samples.items()}


def _ratios_for(size: int) -> dict:
    document = lead_dataset(size).to_document()
    session = CodecSession()

    warm_blob = session.encode(document)
    cold_blob = encode(document)
    assert warm_blob == cold_blob, "warm session output must be byte-identical"
    # warm output decodes with a stateless decoder (wire compatibility)
    assert encode(decode(warm_blob)) == cold_blob

    medians = _interleaved_medians(
        {
            "cold_encode": lambda: encode(document),
            "warm_encode": lambda: session.encode(document),
            "cold_decode": lambda: decode(cold_blob),
            "warm_decode": lambda: session.decode(cold_blob),
            "cold_roundtrip": lambda: decode(encode(document)),
            "warm_roundtrip": lambda: session.decode(session.encode(document)),
        }
    )
    cold_encode = medians["cold_encode"]
    warm_encode = medians["warm_encode"]
    cold_decode = medians["cold_decode"]
    warm_decode = medians["warm_decode"]
    cold_roundtrip = medians["cold_roundtrip"]
    warm_roundtrip = medians["warm_roundtrip"]

    assert session.stats.poisoned_shapes == 0
    assert session.stats.plan_hits > 0
    # the decode side must have ridden verified plan replay, not fallbacks
    assert session.stats.decode_plan_hits > 0
    assert session.stats.decode_poisoned == 0
    return {
        "model_size": size,
        "cold_encode_us": cold_encode * 1e6,
        "warm_encode_us": warm_encode * 1e6,
        "cold_decode_us": cold_decode * 1e6,
        "warm_decode_us": warm_decode * 1e6,
        "encode_speedup": cold_encode / warm_encode,
        "decode_speedup": cold_decode / warm_decode,
        "roundtrip_speedup": cold_roundtrip / warm_roundtrip,
    }


def _render(rows: list[dict]) -> str:
    header = (
        f"{'n':>8} {'cold enc us':>12} {'warm enc us':>12} "
        f"{'cold dec us':>12} {'warm dec us':>12} "
        f"{'enc x':>7} {'dec x':>7} {'rt x':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['model_size']:>8} {row['cold_encode_us']:>12.1f} "
            f"{row['warm_encode_us']:>12.1f} {row['cold_decode_us']:>12.1f} "
            f"{row['warm_decode_us']:>12.1f} {row['encode_speedup']:>7.2f} "
            f"{row['decode_speedup']:>7.2f} {row['roundtrip_speedup']:>7.2f}"
        )
    return "\n".join(lines)


class TestHotPath:
    def test_warm_session_speedups(self, results_dir):
        rows = [_ratios_for(size) for size in SIZES]
        rendered = _render(rows)
        print("\n" + rendered)
        spool_result(results_dir, "hotpath", rendered)
        assert rows[0]["encode_speedup"] >= MIN_ENCODE_SPEEDUP, (
            f"warm encode speedup {rows[0]['encode_speedup']:.2f}x at "
            f"n={SIZES[0]} below the {MIN_ENCODE_SPEEDUP:.1f}x acceptance bar"
        )
        assert rows[0]["decode_speedup"] >= MIN_DECODE_SPEEDUP, (
            f"warm decode speedup {rows[0]['decode_speedup']:.2f}x at "
            f"n={SIZES[0]} below the {MIN_DECODE_SPEEDUP:.1f}x acceptance bar"
        )
        assert rows[0]["roundtrip_speedup"] >= MIN_ROUNDTRIP_SPEEDUP, (
            f"warm roundtrip speedup {rows[0]['roundtrip_speedup']:.2f}x at "
            f"n={SIZES[0]} below the {MIN_ROUNDTRIP_SPEEDUP:.1f}x acceptance bar"
        )
