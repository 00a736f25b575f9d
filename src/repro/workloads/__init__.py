"""Workload generators for the evaluation.

* :mod:`~repro.workloads.lead` — the paper's benchmark dataset: a LEAD-like
  atmospheric sample reduced to an int32 index array plus a float64 value
  array of equal length (the "model size");
* :mod:`~repro.workloads.sensors` — the small-but-frequent message regime
  the introduction motivates with wide-scale wireless sensor networks;
* :mod:`~repro.workloads.datamining` — the large-binary-transfer regime
  motivated with distributed data mining.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "LeadDataset": "lead",
        "lead_dataset": "lead",
        "SensorReading": "sensors",
        "sensor_stream": "sensors",
        "feature_block": "datamining",
    },
)
