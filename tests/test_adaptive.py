"""Online adaptive dispatch: drift detection, retuning, and probation.

Every test here runs real SPMD jobs through the Simulator: the adaptive
retuner's core obligation is that per-rank state evolves identically on
all ranks (dispatch keys must keep matching), so the tests assert
cross-rank equality of the snapshot/table/quarantine state — and the
fact that a run *finishes* is itself the no-deadlock assertion.
"""

import pytest

from repro.backends.ops import OpFamily
from repro.cluster import lassen
from repro.core import MCRCommunicator, MCRConfig, TuningTable
from repro.core.adaptive import CellBook, _Cell
from repro.core.config import AdaptiveConfig
from repro.sim import Simulator
from repro.sim.faults import BackendFault, FaultSpec

NBYTES = 1 << 20


def adaptive_config(**overrides) -> AdaptiveConfig:
    base = dict(enabled=True, min_samples=5, explore_ops=3, drift_ratio=1.5)
    base.update(overrides)
    return AdaptiveConfig(**base)


def degraded_table(world_size: int) -> TuningTable:
    t = TuningTable(system="lassen")
    t.add("allreduce", world_size, NBYTES, "nccl")
    return t


def run_loop(
    world_size: int,
    ops: int,
    adaptive=None,
    faults=None,
    tail_ops: int = 0,
    epsilon_free: bool = True,
):
    """Blocking all-reduce loop; returns per-rank (tail_us, snapshot,
    table entries, quarantined, plan invalidations)."""
    table = degraded_table(world_size)

    def rank_main(ctx):
        config = MCRConfig()
        if adaptive is not None:
            config.adaptive = adaptive
        comm = MCRCommunicator(
            ctx,
            ["nccl", "mvapich2-gdr"],
            config=config,
            tuning_table=table,
            comm_id="adapt-test",
        )
        x = ctx.virtual_tensor(NBYTES // 4)
        t_tail = 0.0
        for i in range(ops):
            if tail_ops and i == ops - tail_ops:
                t_tail = ctx.now
            # block per op so the host clock tracks completions: a
            # free-running post loop would outrun mid-run fault windows
            comm.all_reduce("auto", x, async_op=True).synchronize()
        tail = ctx.now - (t_tail if tail_ops else 0.0)
        retuner = comm.retuner
        snap = retuner.snapshot() if retuner is not None else None
        entries = (
            {
                op: {ws: dict(b) for ws, b in scales.items()}
                for op, scales in comm.tuning_table.entries.items()
            }
            if retuner is not None
            else None
        )
        out = (
            tail,
            snap,
            entries,
            sorted(comm.health.quarantined),
            comm.plan_stats["invalidations"],
        )
        comm.finalize()
        return out

    sim = Simulator(world_size, system=lassen(), faults=faults)
    return sim.run(rank_main).rank_results, table


class TestAdaptiveConfig:
    def test_defaults_off(self):
        assert not MCRConfig().adaptive.enabled

    @pytest.mark.parametrize(
        "bad",
        [
            dict(drift_ratio=1.0),
            dict(min_samples=0),
            dict(explore_ops=0),
            dict(epsilon=1.0),
            dict(epsilon=-0.1),
            dict(probation_interval=-1),
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            AdaptiveConfig(enabled=True, **bad).validate()

    def test_disabled_means_no_retuner(self):
        results, _ = run_loop(4, 3)
        for _, snap, entries, _, _ in results:
            assert snap is None and entries is None


class TestCellBook:
    def test_one_observation_per_collective(self, monkeypatch):
        """The group's one book ingests each collective of the
        communicator's own group once, not once per rank; a composite's
        phase groups are not observed."""
        calls = []
        on_complete = CellBook.on_complete

        def counted(book, *args):
            calls.append(args[:3])
            on_complete(book, *args)

        monkeypatch.setattr(CellBook, "on_complete", counted)

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"],
                config=MCRConfig(adaptive=adaptive_config()),
                tuning_table=degraded_table(8), comm_id="adapt-once",
            )
            x = ctx.virtual_tensor(NBYTES // 4)
            for _ in range(10):
                comm.all_reduce("auto", x)
            for _ in range(4):
                out, x_small = ctx.virtual_tensor(8 * 256), ctx.virtual_tensor(256)
                comm.all_gather("mvapich2-gdr", out, x_small)
            for _ in range(3):
                comm.all_reduce("hier:nccl+mvapich2-gdr", x)
            comm.synchronize()
            comm.finalize()
            return comm.retuner.snapshot()["ops"]

        ops = Simulator(8, system=lassen()).run(rank_main).rank_results
        assert ops == [17] * 8
        assert len(calls) == 14
        assert calls.count((OpFamily.ALLREDUCE, NBYTES, "nccl")) == 10


class TestDriftRetune:
    """A mid-run degraded link must flip the cell off its tuned pick."""

    def run_degraded(self):
        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")
        return run_loop(
            16, 150, adaptive=adaptive_config(), faults=faults, tail_ops=40
        )

    def test_recovers_over_static_table(self):
        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")
        static, _ = run_loop(16, 150, faults=faults, tail_ops=40)
        adaptive, _ = self.run_degraded()
        static_tail = max(r[0] for r in static)
        adaptive_tail = max(r[0] for r in adaptive)
        assert static_tail / adaptive_tail >= 1.2

    def test_full_lifecycle_and_symmetry(self):
        results, shared_table = self.run_degraded()
        tails, snaps, entries, quarantined, _ = zip(*results)
        # identical decisions on every rank
        assert len(set(map(str, snaps))) == 1
        assert len(set(map(str, entries))) == 1
        snap = snaps[0]
        assert snap["stats"]["drift"] >= 1
        assert snap["stats"]["explore"] >= 1
        assert snap["stats"]["retune"] >= 1
        cell = snap["cells"]["allreduce/%d" % NBYTES]
        assert cell["current"] != "nccl"
        # the committed winner landed in the group's table version...
        assert entries[0]["allreduce"][16][NBYTES] == cell["current"]
        # ...while the installed table is untouched
        assert shared_table.lookup("allreduce", 16, NBYTES) == "nccl"
        assert quarantined[0] == []

    def test_healthy_run_is_inert_and_time_identical(self):
        plain, _ = run_loop(16, 60)
        adapt, _ = run_loop(16, 60, adaptive=adaptive_config())
        assert [r[0] for r in plain] == [r[0] for r in adapt]
        snap = adapt[0][1]
        assert snap["stats"] == {
            "drift": 0, "explore": 0, "retune": 0, "probation": 0
        }
        cell = snap["cells"]["allreduce/%d" % NBYTES]
        assert cell["current"] == "nccl"
        assert adapt[0][2]["allreduce"][16][NBYTES] == "nccl"


class TestTableVersions:
    """A retune swaps every rank of the group to the group's next table
    version; the installed table is never edited."""

    def test_one_table_per_group(self, monkeypatch):
        """After a retune the ranks hold one table object, the installed
        table is untouched, each book edit cloned a table once (not the
        construction, not a swap), and the group indexes one ``"auto"``
        plan per version."""
        clones = []
        clone = TuningTable.clone

        def counted(table):
            clones.append(table)
            return clone(table)

        monkeypatch.setattr(TuningTable, "clone", counted)
        table = degraded_table(16)
        installed = (str(table.entries), table.generation)
        config = MCRConfig(adaptive=adaptive_config())

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table,
                comm_id="one-table",
            )
            built = len(clones)
            x = ctx.virtual_tensor(NBYTES // 4)
            for _ in range(150):
                comm.all_reduce("auto", x, async_op=True).synchronize()
            retuned, before_swap = comm.tuning_table, len(clones)
            comm.tuning_table = table
            swapped = len(clones) - before_swap
            comm.tuning_table = retuned
            book = comm.retuner.book
            auto = sum(key[1] == "auto" for key in comm._group.state.plans)
            out = built, swapped, retuned, list(book.edits), auto
            comm.finalize()
            return out

        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")
        results = Simulator(16, system=lassen(), faults=faults).run(rank_main).rank_results
        built, swapped, tables, edits, auto = zip(*results)
        assert built == swapped == (0,) * 16
        assert len({id(t) for t in tables}) == 1 and tables[0] is not table
        assert (str(table.entries), table.generation) == installed
        effects = [edit[0] for edit in edits[0]]
        assert len(effects) == len(set(effects)) >= 2
        assert len(clones) == len(effects)
        # the installed table and one version per edit, each posted
        assert auto == (1 + len(effects),) * 16

    def test_edits_apply_in_effect_order(self):
        """An edit decided later may take effect earlier (a sweep
        schedules its candidates ahead): the book keeps its edits in
        effect order, ties in decision order, and every rank applies
        them in that order."""
        table = TuningTable()
        table.add("allreduce", 2, 4096, "mvapich2-gdr")
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, drift_ratio=10.0, probation_interval=0
        ))

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table,
                comm_id="order",
            )
            x = ctx.virtual_tensor(1024)
            served = []
            for i in range(16):
                handle = comm.all_reduce("auto", x, async_op=True)
                handle.synchronize()
                served.append(handle.backend_name)
                if i == 0 and comm.rank == 0:
                    book = comm.retuner.book
                    cell = _Cell(family=OpFamily.ALLREDUCE, bucket=4096)
                    book._edit(cell, "mvapich2-gdr", offset=6)
                    book._edit(cell, "nccl")
                    book._edit(cell, "nccl", offset=6)
            out = served, list(comm.retuner.book.edits)
            comm.finalize()
            return out

        results = Simulator(2).run(rank_main).rank_results
        (served, edits), (served1, _) = results
        first = edits[0][0]
        assert [(e - first, name) for e, _, _, name in edits] == [
            (0, "nccl"), (6, "mvapich2-gdr"), (6, "nccl"),
        ]
        # ops are 1-based: op ``first`` is served[first - 1]
        assert served == served1
        assert set(served[:first - 1]) == {"mvapich2-gdr"}
        assert set(served[first - 1:]) == {"nccl"}

    def test_retune_at_an_untrained_world_size_moves_only_its_cell(self):
        """A table trained at ws 4 serves a ws-8 job from its nearest row.
        The retune of the 1 MiB cell builds a ws-8 row; it starts as a copy
        of the row the lookup served, so a 4 KiB ``"auto"`` all-reduce,
        whose cell was never observed, stays on its tuned backend (a row
        holding only the 1 MiB bucket once served it the 1 MiB winner)."""
        table = TuningTable(system="lassen")
        for nbytes in (4096, NBYTES):
            table.add("allreduce", 4, nbytes, "nccl")
        config = MCRConfig(adaptive=adaptive_config())

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table,
                comm_id="untrained-ws",
            )
            x = ctx.virtual_tensor(NBYTES // 4)
            for _ in range(150):
                comm.all_reduce("auto", x, async_op=True).synchronize()
            small = comm.all_reduce("auto", ctx.virtual_tensor(1024), async_op=True)
            small.synchronize()
            out = small.backend_name, comm.retuner.snapshot()["stats"]["retune"]
            comm.finalize()
            return out

        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")
        results = Simulator(8, system=lassen(), faults=faults).run(rank_main).rank_results
        assert results == [("nccl", 1)] * 8

    def test_a_second_communicator_on_one_comm_id_retunes_as_the_first(self):
        """A rank's k-th adaptive communicator on one group and
        ``comm_id`` shares book k.  The second communicator counts its
        ops from 1, so it must not inherit the first's book: its edits
        would take effect past the first's high-water mark, an op index
        it never reaches, and it would serve ``nccl`` throughout.  Rank 0
        builds its second one last."""
        table = degraded_table(8)
        config = MCRConfig(adaptive=adaptive_config())

        def rank_main(ctx):
            served = []
            for generation in range(2):
                if generation and ctx.rank == 0:
                    ctx.sleep(50.0)
                comm = MCRCommunicator(
                    ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table,
                    comm_id="twice",
                )
                x = ctx.virtual_tensor(NBYTES // 4)
                ops = []
                for _ in range(100):
                    handle = comm.all_reduce("auto", x, async_op=True)
                    handle.synchronize()
                    ops.append(handle.backend_name)
                served.append((ops, comm.retuner.snapshot()["stats"]["retune"]))
                comm.finalize()
            return served

        faults = FaultSpec.parse("link=10000:inf:4.0:backend=nccl")
        results = Simulator(8, system=lassen(), faults=faults).run(rank_main).rank_results
        assert all(r == results[0] for r in results)
        (first, first_retunes), (second, second_retunes) = results[0]
        assert first[0] == second[0] == "nccl"
        assert second[-1] == first[-1] != "nccl"
        assert first_retunes == second_retunes == 1


class TestEpsilonTrials:
    def test_trials_sample_alternates_without_retuning(self):
        adaptive = adaptive_config(epsilon=0.2, drift_ratio=10.0)
        results, _ = run_loop(16, 60, adaptive=adaptive)
        _, snaps, entries, _, _ = zip(*results)
        assert len(set(map(str, snaps))) == 1
        cell = snaps[0]["cells"]["allreduce/%d" % NBYTES]
        # alternates got sampled...
        assert cell["count"].get("mvapich2-gdr", 0) >= 1
        # ...but the cell and table still serve the tuned pick
        assert cell["current"] == "nccl"
        assert entries[0]["allreduce"][16][NBYTES] == "nccl"

    def test_trials_keep_ranks_symmetric(self):
        """A long run of epsilon trials leaves every rank with the same
        retuner snapshot and table, with the alternate sampled.  A trial
        routes its one op and never edits the table, so the installed
        table's generation stays 1 (its one ``add``) and no plan is
        invalidated; its plan is the one its group indexes for the
        alternate, so trials compile nothing new.  The comm log records a
        trial op as ``"auto"`` dispatch on the alternate."""
        table = degraded_table(4)
        adaptive = adaptive_config(epsilon=0.2, drift_ratio=10.0)
        config = MCRConfig(adaptive=adaptive, enable_logging=True)

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config,
                tuning_table=table, comm_id="adapt-marks",
            )
            x = ctx.virtual_tensor(NBYTES // 4)
            for _ in range(500):
                comm.all_reduce("auto", x, async_op=True).synchronize()
            snap = comm.retuner.snapshot()
            out = (
                snap["cells"]["allreduce/%d" % NBYTES]["count"],
                str(snap),
                str(comm.tuning_table.entries),
                comm.tuning_table.generation,
                comm.plan_stats["invalidations"],
                comm.plan_compiles,
                len(comm._group.state.plans),
            )
            comm.finalize()
            return out

        run = Simulator(4, system=lassen()).run(rank_main)
        counts, snaps, tables, generations, invalidations, compiles, plans = zip(
            *run.rank_results
        )
        assert counts[0].get("mvapich2-gdr", 0) > 0
        assert len(set(snaps)) == 1 and len(set(tables)) == 1
        assert generations == (1,) * 4 and invalidations == (0,) * 4
        # one compile per indexed plan, none per trial: the group's one
        # "auto" plan on the shared table, and the alternate's one plan
        assert compiles == plans == (2,) * 4
        records = [r for r in run.shared["comm_logger"].records if r.rank == 0]
        assert {r.detail for r in records} == {"auto"}
        trialled = [r for r in records if r.backend == "mvapich2-gdr"]
        assert len(trialled) == counts[0]["mvapich2-gdr"]

    def test_explicit_ops_draw_no_trial(self):
        """Only an ``"auto"`` post draws an epsilon trial: explicit ops
        at trial indexes leave the table and the ``"auto"`` plans alone."""
        table = TuningTable()
        table.add("allreduce", 2, 4096, "nccl")
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, epsilon=0.5, drift_ratio=10.0, probation_interval=0
        ))

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table
            )
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("auto", x, async_op=True).synchronize()
            for _ in range(20):
                comm.all_reduce("mvapich2-gdr", x)
            comm.all_reduce("auto", x, async_op=True).synchronize()
            out = (
                self._trials(comm, 0.5, 22), comm.tuning_table.generation,
                comm.plan_stats["invalidations"],
            )
            comm.finalize()
            return out

        for trials, generation, invalidations in Simulator(2).run(rank_main).rank_results:
            assert len(trials) >= 8  # explicit ops sit at many trial indexes
            # the installed table's own generation: its one ``add``
            assert (generation, invalidations) == (1, 0)

    def test_trial_alternates_skip_this_ranks_quarantines(self):
        """An epsilon trial picks its alternate from this rank's own
        quarantine set, which every rank has reached at the op being
        posted; the group's mirror may already hold a quarantine another
        rank's gate added at that same op, and the ranks then trialled
        different backends and deadlocked."""
        table = TuningTable()
        table.add("allreduce", 2, 4096, "mvapich2-gdr")
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, epsilon=0.5, probation_interval=0
        ))
        faults = FaultSpec(
            backend_faults=(BackendFault("nccl", "permanent", at_op=1),)
        )

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr", "ucc"], config=config, tuning_table=table
            )
            x = ctx.virtual_tensor(1024)
            handles = [comm.all_reduce("auto", x, async_op=True) for _ in range(12)]
            for handle in handles:
                handle.synchronize()
            quarantined = sorted(comm.health.quarantined)
            comm.finalize()
            return quarantined

        results = Simulator(2, faults=faults).run(rank_main).rank_results
        assert results == [["nccl"], ["nccl"]]

    @staticmethod
    def _trials(comm, epsilon: float, ops: int) -> list[int]:
        """The op indexes up to ``ops`` whose epsilon draw trials a
        4 KiB all-reduce cell."""
        return [
            idx for idx in range(1, ops + 1)
            if comm.retuner._hash("allreduce", 4096, idx) / 2**32 < epsilon
        ]

    def test_failover_after_explicit_trial_indexes_is_followed(self):
        """A trial is known where its op resolves: explicit ops at trial
        indexes owe the book nothing, so an ``"auto"`` op that a
        quarantine fails over is followed at its first completion."""
        table = TuningTable()
        table.add("allreduce", 2, 4096, "nccl")
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, epsilon=0.5, drift_ratio=10.0, probation_interval=0
        ))
        # nccl's second op (the "auto" op 22) fails hard
        faults = FaultSpec(backend_faults=(BackendFault("nccl", "permanent", at_op=2),))

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table,
                comm_id="follow-1",
            )
            x = ctx.virtual_tensor(1024)

            def current():
                return comm.retuner.snapshot()["cells"]["allreduce/4096"]["current"]

            comm.all_reduce("auto", x, async_op=True).synchronize()
            before = current()
            for _ in range(20):
                comm.all_reduce("mvapich2-gdr", x)
            failover = comm.all_reduce("auto", x, async_op=True)
            failover.synchronize()
            out = (
                self._trials(comm, 0.5, 22), before, failover.backend_name,
                sorted(comm.health.quarantined), current(),
            )
            comm.finalize()
            return out

        for trials, before, served, quarantined, after in (
            Simulator(2, faults=faults).run(rank_main).rank_results
        ):
            # the two "auto" ops are not trials; many explicit ones are
            assert 1 not in trials and 22 not in trials and len(trials) >= 8
            assert (before, served, quarantined) == ("nccl", "mvapich2-gdr", ["nccl"])
            assert after == "mvapich2-gdr"

    def test_trial_leaves_the_table_alone(self):
        """A trial routes its op and edits no table: a ``table.add`` right
        after the trial stands.  The ranks share the installed table, so
        its generation moves once at setup and once per rank's ``add``."""
        backends = ["nccl", "mvapich2-gdr", "ucc"]
        table = TuningTable()
        table.add("allreduce", 2, 4096, "nccl")
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, epsilon=0.5, drift_ratio=10.0, probation_interval=0
        ))

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, backends, config=config, tuning_table=table, comm_id="restore-1"
            )
            x = ctx.virtual_tensor(1024)
            trial = comm.all_reduce("auto", x, async_op=True)
            edit = next(b for b in backends if b not in ("nccl", trial.backend_name))
            comm.tuning_table.add("allreduce", 2, 4096, edit)
            after = comm.all_reduce("auto", x, async_op=True)
            for handle in (trial, after):
                handle.synchronize()
            out = (
                self._trials(comm, 0.5, 2), trial.backend_name, edit, after.backend_name,
                comm.tuning_table.entries["allreduce"][2][4096],
                comm.tuning_table.generation,
            )
            comm.finalize()
            return out

        results = Simulator(2).run(rank_main).rank_results
        for trials, trialled, edit, served, entry, generation in results:
            assert trials == [1]  # op 1 is a trial, op 2 is not
            assert trialled != "nccl"
            assert served == entry == edit
            assert generation == 3

    def test_table_swap_reaches_the_retuner(self):
        """A table installed mid-run is the one the retuner reads: every
        rank installs it as given, as at construction, and an epsilon
        trial right after the swap serves its op on the swapped-in cell's
        alternate."""
        old, new = TuningTable(), TuningTable()
        old.add("allreduce", 2, 4096, "nccl")
        new.add("allreduce", 2, 4096, "mvapich2-gdr")
        # the config caps epsilon below 1; the first op's draw is below it
        config = MCRConfig(adaptive=AdaptiveConfig(
            enabled=True, epsilon=0.999, probation_interval=0
        ))

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=old
            )
            comm.tuning_table = new
            handle = comm.all_reduce("auto", ctx.virtual_tensor(1024), async_op=True)
            handle.synchronize()
            trial = comm.retuner.trial
            table = comm.tuning_table
            comm.finalize()
            return handle.backend_name, trial, table

        results = Simulator(2).run(rank_main).rank_results
        (served0, trial0, table0), (served1, trial1, table1) = results
        assert trial0 == trial1 == "nccl"
        assert served0 == served1 == "nccl"
        assert table0 is table1 is new
        assert new.lookup("allreduce", 2, 4096) == "mvapich2-gdr"

    def test_edit_pending_across_a_swap_lands_in_the_new_table(self):
        """A book edit goes to the table installed at its effect index on
        every rank, however far apart the ranks were when it was decided.
        Op 1's completion decides an edit (a degraded nccl link trips the
        drift check at once) after rank 0 has posted op 2 but before rank
        1 has, so it takes effect at op 3, after the swap: both ranks'
        swapped-in tables must carry it."""
        old, new = TuningTable(), TuningTable()
        old.add("allreduce", 2, NBYTES, "nccl")
        new.add("allreduce", 2, NBYTES, "mvapich2-gdr")
        config = MCRConfig(adaptive=adaptive_config(min_samples=1))
        faults = FaultSpec.parse("link=0:inf:4.0:backend=nccl")

        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=old
            )
            x = ctx.virtual_tensor(NBYTES // 4)
            first = comm.all_reduce("auto", x, async_op=True)
            if ctx.rank == 1:
                ctx.sleep(1e6)  # op 1 completes while rank 1 sleeps
            comm.all_reduce("auto", x)
            comm.tuning_table = new
            comm.all_reduce("auto", x)
            first.synchronize()
            book = comm.retuner.book
            out = (list(book.edits), str(comm.tuning_table.entries))
            comm.finalize()
            return out

        results = Simulator(2, faults=faults).run(rank_main).rank_results
        (edits, table0), (_, table1) = results
        assert edits and edits[0][:2] == (3, "allreduce")
        assert table0 == table1
        assert f"{NBYTES}: '{edits[0][3]}'" in table0


class TestProbation:
    """quarantine -> probe -> probe -> recovery, symmetric on all ranks."""

    def run_outage(self, probation_interval=4, ops=25):
        # nccl fails hard at its 3rd collective and recovers at its 6th
        # (probes increment the same per-backend fault counter, so two
        # probes fail before the third sees the healthy index)
        faults = FaultSpec.parse("backend=nccl:permanent:at=3:until=6")
        adaptive = adaptive_config(
            probation_interval=probation_interval, drift_ratio=10.0
        )
        return run_loop(4, ops, adaptive=adaptive, faults=faults)

    def test_unquarantines_symmetrically(self):
        results, _ = self.run_outage()
        _, snaps, entries, quarantined, invalidations = zip(*results)
        assert len(set(map(str, snaps))) == 1
        assert len(set(map(str, quarantined))) == 1
        # the backend is live again on every rank
        assert quarantined[0] == []
        assert snaps[0]["stats"]["probation"] >= 2  # failed probes + recovery
        # quarantine + unquarantine each recompiled the dispatch plans
        assert invalidations[0] >= 2

    def test_probation_disabled_stays_quarantined(self):
        faults = FaultSpec.parse("backend=nccl:permanent:at=3:until=6")
        adaptive = adaptive_config(probation_interval=0, drift_ratio=10.0)
        results, _ = run_loop(4, 25, adaptive=adaptive, faults=faults)
        _, snaps, _, quarantined, _ = zip(*results)
        assert quarantined[0] == ["nccl"]
        assert snaps[0]["stats"]["probation"] == 0


class TestUnquarantineCascade:
    """A phase group's health unions the parent's quarantines: parent
    recovery is group recovery, and a group-local quarantine stays put."""

    def test_phase_groups_follow_parent(self):
        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], comm_id="cascade-test"
            )
            x = ctx.virtual_tensor(1024)
            # split the phase groups
            comm.all_reduce("hier:nccl+mvapich2-gdr", x)
            comm.synchronize()
            groups = list(comm._phase_groups.values())
            assert groups
            comm.health.quarantine("nccl", "test outage")
            assert all("nccl" in g.health.dead() for g in groups)
            # a union, not a copy: nothing was written into the groups
            assert all(not g.health.quarantined for g in groups)
            comm.health.unquarantine("nccl", "probe cleared")
            assert all("nccl" not in g.health.dead() for g in groups)
            assert "nccl" not in comm.health.quarantined
            comm.finalize()
            return True

        assert all(Simulator(16, system=lassen()).run(rank_main).rank_results)

    def test_quarantine_before_the_split_recovers_too(self):
        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], comm_id="cascade-spawn"
            )
            comm.health.quarantine("nccl", "outage before any phase group")
            # the phase groups split now, under the quarantine
            comm.all_reduce("hier:nccl+mvapich2-gdr", ctx.virtual_tensor(1024))
            comm.synchronize()
            groups = list(comm._phase_groups.values())
            assert groups
            assert all("nccl" in g.health.dead() for g in groups)
            comm.health.unquarantine("nccl", "probe cleared")
            recovered = all("nccl" not in g.health.dead() for g in groups)
            comm.finalize()
            return recovered

        assert all(Simulator(16, system=lassen()).run(rank_main).rank_results)

    def test_group_local_quarantine_stays_put(self):
        def rank_main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], comm_id="cascade-local"
            )
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("hier:nccl+mvapich2-gdr", x)
            comm.synchronize()
            group = next(iter(comm._phase_groups.values()))
            # a fault observed only inside one phase group
            group.health.quarantine("nccl", "group-local fault")
            assert "nccl" not in comm.health.quarantined
            comm.health.quarantine("nccl", "parent outage")
            comm.health.unquarantine("nccl", "probe cleared")
            # the group's own quarantine is not the parent's to lift
            assert "nccl" in group.health.dead()
            comm.finalize()
            return True

        assert all(Simulator(16, system=lassen()).run(rank_main).rank_results)
