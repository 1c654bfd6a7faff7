"""Fast self-test of the benchmark's own arithmetic and names.

    python3 perfbench/selftest.py

Checks self-time and layer arithmetic on hand-built span trees, the host
scaling factor, the metric name grammar, and that BENCHMARK.json lists
exactly the metrics run.py reports, with the same units.  Needs numpy only;
imports no program code.
"""

import json
import os
import sys

import numpy as np

import hostspeed
import run
import spans


def check_self_time():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds g [6, 7]
    table = spans.SpanTable(["root", "a", "b", "g"], [0, 1, 2, 3], [-1, 0, 0, 2],
                            [0.0, 1.0, 5.0, 6.0], [10.0, 4.0, 9.0, 7.0])
    assert np.allclose(table.self_time, [3.0, 3.0, 3.0, 1.0]), table.self_time
    assert list(table.root) == [0, 0, 0, 0], table.root
    assert np.isclose(table.self_time.sum(), table.duration[0])


def check_recorder_nesting():
    rec = spans.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    sibling = rec.open("inner")
    rec.close(sibling)
    rec.close(outer)
    assert list(rec.parent) == [-1, outer, outer]
    assert rec.names == ["outer", "inner"] and list(rec.name_id) == [0, 1, 1]
    table = rec.table()
    assert np.all(table.self_time >= 0) and np.all(table.duration >= 0)


def check_layer_arithmetic():
    # one traced training step: loss_and_grads [0, 10] containing a train-mode
    # forward [1, 5], then optimizer_step [10, 12]; all in microseconds
    names = ["mlp.loss_and_grads:adam", "mlp.forward.train:adam", "mlp.optimizer_step:adam"]
    us = 1e-6
    table = spans.SpanTable(names, [0, 1, 2], [-1, 0, -1],
                            [0.0, 1 * us, 10 * us], [10 * us, 5 * us, 12 * us])
    out = spans.layer_metrics(table, {})
    assert out["mlp.steps"] == 1 and out["mlp.steps.adam"] == 1 and out["mlp.steps.rmsprop"] == 0
    assert np.isclose(out["mlp.backward_us.adam"], 6.0)
    assert np.isclose(out["mlp.forward_train_us"], 4.0)
    assert np.isclose(out["mlp.optimizer_step_us"], 2.0)
    assert out["search.cells"] == 0 and out["ensemble.train_s"] == 0.0


def check_host_scaling():
    # a kernel that always takes 5x the nominal time: every gap reads that,
    # and work between two gaps is scaled down 5x
    real = hostspeed.kernel
    hostspeed.kernel = lambda: 5 * hostspeed.REFERENCE_S
    try:
        speed = hostspeed.HostSpeed()
        result, factor = speed.around(lambda: "done")
    finally:
        hostspeed.kernel = real
    assert result == "done" and np.isclose(factor, 0.2), factor
    assert np.isclose(speed.mean_call_ms(), 5e3 * hostspeed.REFERENCE_S)


def check_names():
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(run.WORKLOAD_NAMES):
        assert spans.METRIC_NAME.fullmatch(name), f"bad metric name {name!r}"
    for bad in ("", ".x", "a b", "x" * 65, "lat/ms"):
        assert not spans.METRIC_NAME.fullmatch(bad), f"accepted {bad!r}"
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def main():
    for check in (check_self_time, check_recorder_nesting, check_layer_arithmetic,
                  check_host_scaling, check_names):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
