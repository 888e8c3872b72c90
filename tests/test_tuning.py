"""Tuning tables and the tuning suite (paper §V-F, C5).

Every dispatch decision that reads a table reads it in one place,
``Health.choose`` (``test_one_place_picks_a_backend``).
"""

import json
import math
import pathlib

import pytest

from repro.backends.ops import OpFamily
from repro.cluster import lassen, thetagpu
from repro.core import (
    MCRCommunicator,
    TuningError,
    TuningTable,
    Tuner,
    message_bucket,
)
from repro.sim import Simulator

from .lint_harness import method_calls

#: the one (file, enclosing function) allowed to look a table up
_CHOOSER = ("src/repro/core/health.py", "choose")
#: reports the table's picks and does not dispatch
_REPORTER = "src/repro/bench/perfregress.py"


def test_one_place_picks_a_backend():
    """``"auto"``, ``hier:*`` routing and failover all take their tuned
    choice from ``Health.choose``: no other dispatch site looks a
    tuning table up, so no two sites can disagree."""
    found = [hit for hit in method_calls("lookup") if hit[0] != _REPORTER]
    assert [hit[:2] for hit in found] == [_CHOOSER], "pick a backend through Health.choose"


class TestMessageBucket:
    def test_powers_of_two_fixed(self):
        assert message_bucket(4096) == 4096

    def test_rounds_to_nearest_pow2_in_log_space(self):
        # geometric midpoint of [2048, 4096] is ~2896
        assert message_bucket(2800) == 2048
        assert message_bucket(3000) == 4096

    def test_floor_at_one(self):
        assert message_bucket(0) == 1
        assert message_bucket(1) == 1

    def test_midpoint_boundaries_exact(self):
        # the geometric midpoint of [2**k, 2**(k+1)] is 2**(k+0.5); the
        # largest integer below it is isqrt(2**(2k+1) - 1).  Exact
        # round-half-up: that integer snaps down, the next one snaps up,
        # at every scale
        for k in range(1, 60):
            below = math.isqrt((1 << (2 * k + 1)) - 1)
            assert message_bucket(below) == 1 << k, k
            assert message_bucket(below + 1) == 1 << (k + 1), k

    def test_large_sizes_not_subject_to_float_rounding(self):
        # regression: round(math.log2(n)) could not separate values
        # around large midpoints, and banker's rounding then snapped
        # both of these into the same (2**48) bucket
        assert message_bucket(199032864766430) == 1 << 47
        assert message_bucket(398065729532861) == 1 << 49


class TestTuningTable:
    def make(self):
        t = TuningTable(system="lassen")
        t.add("allreduce", 16, 1024, "mvapich2-gdr")
        t.add("allreduce", 16, 1 << 20, "nccl")
        t.add("allreduce", 64, 1 << 20, "nccl")
        t.add("allgather", 16, 16384, "msccl")
        return t

    def test_exact_lookup(self):
        assert self.make().lookup("allreduce", 16, 1024) == "mvapich2-gdr"

    def test_message_size_snaps_to_nearest(self):
        assert self.make().lookup("allreduce", 16, 900) == "mvapich2-gdr"
        assert self.make().lookup("allreduce", 16, 2 << 20) == "nccl"

    def test_lookup_splits_at_bucket_midpoint(self):
        t = TuningTable(system="lassen")
        t.add("allreduce", 16, 2048, "mvapich2-gdr")
        t.add("allreduce", 16, 4096, "nccl")
        # geometric midpoint of [2048, 4096] is ~2896.3
        assert t.lookup("allreduce", 16, 2896) == "mvapich2-gdr"
        assert t.lookup("allreduce", 16, 2897) == "nccl"

    def test_world_size_snaps_log_space(self):
        # 48 is closer to 64 than to 16 in log2 space
        assert self.make().lookup("allreduce", 48, 1 << 20) == "nccl"

    def test_unknown_op_returns_none(self):
        assert self.make().lookup("alltoall", 16, 1024) is None

    def test_rows_table2_format(self):
        rows = self.make().rows("allreduce", 16)
        assert rows == [(1024, "mvapich2-gdr"), (1 << 20, "nccl")]

    def test_rows_missing_scale_raises(self):
        with pytest.raises(TuningError):
            self.make().rows("allreduce", 999)

    def test_num_entries(self):
        assert self.make().num_entries() == 4

    def test_roundtrip_save_load(self, tmp_path):
        t = self.make()
        path = tmp_path / "table.json"
        t.save(path)
        loaded = TuningTable.load(path)
        assert loaded.system == "lassen"
        assert loaded.lookup("allreduce", 16, 1024) == "mvapich2-gdr"
        assert loaded.num_entries() == t.num_entries()

    def test_load_enforces_system(self, tmp_path):
        """Tables are not transferable across systems (§V-F)."""
        t = self.make()
        path = tmp_path / "table.json"
        t.save(path)
        with pytest.raises(TuningError, match="not transferable"):
            TuningTable.load(path, expect_system="thetagpu")

    @pytest.mark.parametrize(
        "ws, bucket, message",
        [("0", "1024", "world size 0"), ("16", "0", "bucket 0"), ("16", "1000", "bucket 1000")],
    )
    def test_load_rejects_what_merge_rejects(self, tmp_path, ws, bucket, message):
        """A table read from a file gets merge's checks at load time, not
        a math domain error at its first "auto" lookup."""
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            {"system": "lassen", "entries": {"allreduce": {ws: {bucket: "nccl"}}}}
        ))
        with pytest.raises(TuningError, match=message):
            TuningTable.load(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1], "JSON object"),
            ({"entries": []}, "malformed"),
            ({"entries": {"allreduce": [2]}}, "malformed"),
            ({"entries": {"allreduce": {"2": []}}}, "malformed"),
            ({"entries": {"allreduce": {"eight": {"4096": "nccl"}}}}, "malformed.*'eight'"),
            ({"entries": {"allreduce": {"2": {"4k": "nccl"}}}}, "malformed.*'4k'"),
            ({"entries": {"allreduce": {"2": {"4096": 5}}}}, "bad backend 5"),
            ("{not json", "is not JSON"),  # a str payload is the file's text
        ],
    )
    def test_load_rejects_malformed_file(self, tmp_path, payload, message):
        """A wrong-shaped file is a TuningError at load time, not an
        AttributeError or ValueError (or a JSONDecodeError) there or
        inside the first "auto" lookup."""
        path = tmp_path / "table.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(TuningError, match=message):
            TuningTable.load(path)

    def test_committed_table_loads(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "results"
        table = TuningTable.load(path / "tuning_table_lassen.json", expect_system="lassen")
        assert table.num_entries() == 36 and table.generation == 0

    def test_merge(self):
        a, b = self.make(), TuningTable()
        b.add("alltoall", 16, 1024, "mvapich2-gdr")
        a.merge(b)
        assert a.lookup("alltoall", 16, 1024) == "mvapich2-gdr"

    def test_invalid_add_rejected(self):
        t = TuningTable()
        with pytest.raises(TuningError):
            t.add("allreduce", 0, 1024, "nccl")
        with pytest.raises(TuningError):
            t.add("allreduce", 4, -1, "nccl")

    @pytest.mark.parametrize("backend", [None, 7])
    def test_add_rejects_what_merge_rejects(self, backend):
        """A backend name that is not a string is a TuningError at
        ``add``, as at ``merge`` and ``load``: it never reaches an
        ``"auto"`` post, and the table is left as it was."""
        t = self.make()
        entries, generation = str(t.entries), t.generation
        with pytest.raises(TuningError, match="bad backend"):
            t.add("allgather", 2, 4096, backend)
        assert str(t.entries) == entries and t.generation == generation

    def test_merge_bumps_generation_once_per_changing_merge(self):
        a, b = self.make(), TuningTable()
        b.add("alltoall", 16, 1024, "mvapich2-gdr")
        b.add("alltoall", 16, 65536, "nccl")
        before = a.generation
        a.merge(b)
        assert a.generation == before + 1

    def test_noop_merge_keeps_generation_and_memo(self):
        """Regression: a merge that changes nothing must not invalidate
        every cached "auto" dispatch plan downstream."""
        a = self.make()
        # prime the lookup memo, then merge an identical overlay
        assert a.lookup("allreduce", 16, 1024) == "mvapich2-gdr"
        before = a.generation
        a.merge(self.make())
        assert a.generation == before
        assert a._lookup_cache  # memo survived
        # merging an empty table is also a no-op
        a.merge(TuningTable())
        assert a.generation == before

    def test_merge_invalid_keys_rejected_atomically(self):
        """Regression: merge validates like add(), and a bad overlay must
        not leave the table half-updated."""
        a = self.make()
        before_entries = {
            op: {ws: dict(b) for ws, b in scales.items()}
            for op, scales in a.entries.items()
        }
        before_gen = a.generation

        bad_ws = TuningTable()
        bad_ws.entries = {"alltoall": {0: {1024: "nccl"}}}
        with pytest.raises(TuningError, match="world size"):
            a.merge(bad_ws)

        bad_bucket = TuningTable()
        # one good entry *before* the bad one: neither may land
        bad_bucket.entries = {
            "allgather": {8: {1024: "nccl"}},
            "alltoall": {8: {1000: "nccl"}},  # not a power-of-two bucket
        }
        with pytest.raises(TuningError, match="bucket"):
            a.merge(bad_bucket)

        assert a.entries == before_entries
        assert a.generation == before_gen

    def test_nearest_tie_breaks_to_smaller_candidate(self):
        """Equidistant log2 neighbours resolve to the smaller entry —
        pinned because online retuning needs every rank to agree."""
        # 32 is exactly between tuned scales 16 and 64 in log2 space
        t = TuningTable(system="lassen")
        t.add("allreduce", 16, 1024, "small-ws")
        t.add("allreduce", 64, 1024, "large-ws")
        assert t.lookup("allreduce", 32, 1024) == "small-ws"
        # same for message buckets: 2048 is the log2 midpoint of 1024/4096
        t2 = TuningTable(system="lassen")
        t2.add("allreduce", 16, 1024, "small-msg")
        t2.add("allreduce", 16, 4096, "large-msg")
        assert t2.lookup("allreduce", 16, 2048) == "small-msg"
        assert TuningTable._nearest([16, 64], 32) == 16

    def test_clone_is_independent(self):
        a = self.make()
        c = a.clone()
        assert c.system == a.system
        assert c.entries == a.entries
        assert c.generation == 0
        c.add("allreduce", 16, 1024, "msccl")
        assert a.lookup("allreduce", 16, 1024) == "mvapich2-gdr"
        assert c.lookup("allreduce", 16, 1024) == "msccl"


class TestTuner:
    def test_analytic_builds_full_table(self):
        tuner = Tuner(lassen(), ["nccl", "mvapich2-gdr", "msccl"])
        report = tuner.build_table(
            world_sizes=[16], message_sizes=[256, 4096, 1 << 20],
            ops=[OpFamily.ALLREDUCE, OpFamily.ALLGATHER],
        )
        # Num_Collectives x Num_Scales x Num_Message_Sizes (paper §V-F)
        assert report.table.num_entries() == 2 * 1 * 3
        assert len(report.samples) == 2 * 1 * 3 * 3

    def test_winner_has_min_latency(self):
        tuner = Tuner(lassen(), ["nccl", "mvapich2-gdr", "msccl"])
        report = tuner.build_table(
            world_sizes=[16], message_sizes=[4096], ops=[OpFamily.ALLGATHER]
        )
        samples = report.samples_for("allgather", 16, 4096)
        best = min(samples, key=lambda s: s.latency_us)
        assert report.table.lookup("allgather", 16, 4096) == best.backend

    def test_simulated_and_analytic_agree_on_ranking(self):
        kwargs = dict(
            world_sizes=[4], message_sizes=[1024, 1 << 18], ops=[OpFamily.ALLREDUCE]
        )
        analytic = Tuner(lassen(), ["nccl", "mvapich2-gdr"], mode="analytic").build_table(**kwargs)
        simulated = Tuner(
            lassen(), ["nccl", "mvapich2-gdr"], mode="simulated", iterations=3
        ).build_table(**kwargs)
        assert analytic.table.entries == simulated.table.entries

    def test_sweep_samples_cover_every_cell_once_per_backend(self):
        """Sweep integrity: no cell is skipped or double-measured."""
        backends = ["nccl", "mvapich2-gdr", "msccl"]
        ops = [OpFamily.ALLREDUCE, OpFamily.ALLTOALL]
        world_sizes = [4, 16]
        sizes = [256, 4096, 1 << 20]
        report = Tuner(lassen(), backends).build_table(
            world_sizes=world_sizes, message_sizes=sizes, ops=ops
        )
        expected = len(ops) * len(world_sizes) * len(sizes) * len(backends)
        assert len(report.samples) == expected
        for op in ops:
            for ws in world_sizes:
                for msg in sizes:
                    cell = report.samples_for(str(op), ws, msg)
                    assert len(cell) == len(backends), (op, ws, msg)
                    assert sorted(s.backend for s in cell) == sorted(backends)

    def test_table_roundtrip_serves_auto_dispatch_keys(self, tmp_path):
        # "auto" in core/comm.py looks tables up by OpFamily.value; a
        # saved/loaded table must keep serving exactly those keys
        ops = [OpFamily.ALLREDUCE, OpFamily.ALLGATHER, OpFamily.ALLTOALL]
        report = Tuner(lassen(), ["nccl", "mvapich2-gdr"]).build_table(
            world_sizes=[16], message_sizes=[256, 1 << 20], ops=ops
        )
        path = tmp_path / "table.json"
        report.table.save(path)
        loaded = TuningTable.load(path, expect_system="lassen")
        assert set(loaded.entries) == {op.value for op in ops}
        for op in ops:
            assert str(op) == op.value  # the contract build_table relies on
            for msg in (256, 1 << 20):
                choice = loaded.lookup(op.value, 16, msg)
                assert choice is not None
                assert choice == report.table.lookup(op.value, 16, msg)

    def test_bad_mode_rejected(self):
        with pytest.raises(TuningError):
            Tuner(lassen(), ["nccl"], mode="magic")

    def test_empty_backends_rejected(self):
        with pytest.raises(TuningError):
            Tuner(lassen(), [])

    def test_world_size_one_rejected(self):
        with pytest.raises(TuningError):
            Tuner(lassen(), ["nccl"]).build_table(world_sizes=[1], message_sizes=[256])


class TestAutoDispatch:
    def build_table(self):
        return Tuner(lassen(), ["nccl", "mvapich2-gdr", "msccl"]).build_table(
            world_sizes=[4],
            message_sizes=[256, 4096, 1 << 20],
        ).table

    def test_auto_routes_by_size(self):
        """Fine-grained mixing: one op, different backend per size."""
        table = self.build_table()

        def main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr", "msccl"], tuning_table=table
            )
            comm.all_reduce("auto", ctx.zeros(64))  # 256 B
            comm.all_reduce("auto", ctx.virtual_tensor(1 << 18))  # 1 MiB
            comm.finalize()

        res = Simulator(4, trace=True).run(main)
        labels = {r.detail for r in res.tracer.filter(rank=0, category="comm")}
        chosen_small = table.lookup("allreduce", 4, 256)
        chosen_large = table.lookup("allreduce", 4, 1 << 20)
        assert chosen_small != chosen_large  # the table is actually mixed
        assert f"allreduce:{chosen_small}" in labels
        assert f"allreduce:{chosen_large}" in labels

    def test_auto_skips_uninitialized_backend(self):
        table = TuningTable()
        table.add("allreduce", 4, 256, "gloo")  # tuned for a missing backend

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"], tuning_table=table)
            comm.all_reduce("auto", ctx.zeros(64))
            comm.finalize()

        Simulator(4).run(main)  # falls back instead of crashing

    def test_table_ops_cover_paper_defaults(self):
        from repro.core import DEFAULT_OPS

        assert OpFamily.ALLREDUCE in DEFAULT_OPS
        assert OpFamily.ALLTOALL in DEFAULT_OPS
        assert len(DEFAULT_OPS) == 8
