"""Chrome trace export from the tracer."""

import json

import pytest

from repro.core import MCRCommunicator
from repro.obs import save_chrome_trace
from repro.sim import Simulator


@pytest.fixture
def traced_result():
    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        ctx.launch(100.0, label="compute-k")
        h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
        h.synchronize()
        comm.finalize()

    return Simulator(2, trace=True).run(main)


class TestChromeTrace:
    def test_complete_events_for_every_record(self, traced_result):
        events = traced_result.tracer.to_chrome_trace()
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(traced_result.tracer.records)

    def test_event_fields(self, traced_result):
        events = traced_result.tracer.to_chrome_trace()
        compute = next(e for e in events if e["ph"] == "X" and e["name"] == "compute-k")
        assert compute["dur"] == 100.0
        assert compute["cat"] == "compute"
        assert compute["pid"] in (0, 1)

    def test_thread_metadata_per_stream(self, traced_result):
        events = traced_result.tracer.to_chrome_trace()
        metas = [e for e in events if e["ph"] == "M"]
        names = {(m["pid"], m["args"]["name"]) for m in metas}
        assert (0, "default") in names
        assert any(stream.startswith("nccl:comm") for _, stream in names)

    def test_thread_ids_stable_within_rank(self, traced_result):
        events = traced_result.tracer.to_chrome_trace()
        seen: dict[tuple, set] = {}
        for e in events:
            if e["ph"] != "X":
                continue
            seen.setdefault((e["pid"], e["tid"]), set()).add(e["name"])
        # a (pid, tid) pair never mixes categories from different streams
        metas = {
            (m["pid"], m["tid"]): m["args"]["name"]
            for m in events
            if m["ph"] == "M"
        }
        assert all(key in metas for key in seen)

    def test_save_writes_valid_json(self, traced_result, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(path, traced_result.tracer)
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and payload

    def test_empty_tracer_exports_empty_list(self):
        from repro.sim.trace import Tracer

        assert Tracer().to_chrome_trace() == []
