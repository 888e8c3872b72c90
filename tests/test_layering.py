"""The comm-core layering contract (docs/INTERNALS.md §15).

Two halves:

* the real tree is clean — op surface → dispatch/op-table → execution
  only, extensions hold a :class:`~repro.core.protocols.CommCore`, and
  ``core/comm.py`` stays an op-surface-sized module;
* the ``imports`` rule of ``scripts/lint.py`` works — run against a
  copied tree with an injected violation it actually fails.

This file also holds the lint's one CLI exit-status test and its one
"CI runs the lint" test.
"""

from __future__ import annotations

from repro.core import MCRCommunicator
from repro.core.protocols import CommCore
from repro.sim import Simulator

from .lint_harness import REPO, check, copy_tree, real_tree, run_cli

SRC = REPO / "src"


def _inject(root, module: str, before: str = "", after: str = ""):
    target = root / "src" / "repro" / module
    target.write_text(before + target.read_text() + after)


class TestRealTree:
    def test_clean(self):
        assert real_tree("imports") == []

    def test_cli_exit_status(self):
        proc = run_cli()
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_comm_is_op_surface_sized(self):
        # acceptance: core/comm.py shrinks to the op-surface layer only
        n = len((SRC / "repro" / "core" / "comm.py").read_text().splitlines())
        assert n < 800, f"core/comm.py is {n} lines — op surface only"

    def test_ci_runs_the_lint(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "python scripts/lint.py" in ci

    def test_communicator_satisfies_protocol(self):
        # runtime_checkable protocols verify method presence; attribute
        # members need an instance, so build one inside the simulator
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            assert isinstance(comm, CommCore)
            for attr in CommCore.__annotations__:
                assert hasattr(comm, attr), attr
            comm.finalize()

        Simulator(2).run(main)


class TestInjectedViolations:
    def test_injected_cycle_fails(self, tmp_path):
        root = copy_tree(tmp_path)
        _inject(root, "core/rendezvous.py",
                before="from repro.core.comm import MCRCommunicator  # injected\n")
        violations = check(root)
        assert any("cycle" in v for v in violations), violations
        assert any("layer violation" in v for v in violations), violations

    def test_relative_import_cycle_through_package_init_fails(self, tmp_path):
        # in a package's __init__, "from .persistent import" names a
        # module inside that package, not a sibling of it (no other
        # module of the package imports persistent, so the cycle closes
        # only through that edge)
        root = copy_tree(tmp_path)
        init = root / "src" / "repro" / "ext" / "__init__.py"
        init.write_text(
            init.read_text().replace("from repro.ext.persistent import", "from .persistent import")
        )
        _inject(root, "ext/persistent.py", before="import repro.ext  # injected\n")
        violations = check(root)
        assert any(
            "import cycle" in v and "repro.ext <-> repro.ext.persistent" in v for v in violations
        ), violations

    def test_lower_layer_importing_up_fails_even_without_cycle(self, tmp_path):
        root = copy_tree(tmp_path)
        _inject(root, "core/protocols.py", after="\nfrom repro.core.dispatch import CommPlan\n")
        violations = check(root)
        assert any(
            "repro.core.protocols" in v and "repro.core.dispatch" in v
            for v in violations
        ), violations

    def test_type_checking_layer_edge_fails(self, tmp_path):
        # the cycle-papering idiom is banned inside the core even when
        # guarded: a TYPE_CHECKING edge upward is still a layer breach
        root = copy_tree(tmp_path)
        _inject(root, "core/dispatch.py", after=(
            "\nfrom typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from repro.core.comm import MCRCommunicator\n"
        ))
        violations = check(root)
        assert any("TYPE_CHECKING import of repro.core.comm" in v for v in violations)

    def test_ext_importing_concrete_class_fails(self, tmp_path):
        root = copy_tree(tmp_path)
        _inject(root, "ext/fusion.py",
                before="from repro.core.comm import MCRCommunicator  # injected\n")
        violations = check(root)
        assert any(
            "repro.ext.fusion" in v and "CommCore" in v for v in violations
        ), violations

    def test_framework_function_local_import_fails(self, tmp_path):
        root = copy_tree(tmp_path)
        _inject(root, "frameworks/horovod.py", after=(
            "\ndef _sneaky():\n    from repro.core.comm import MCRCommunicator\n"
            "    return MCRCommunicator\n"
        ))
        violations = check(root)
        assert any("function-local import of repro.core.comm" in v for v in violations)

    def test_deferred_import_outside_core_fails(self, tmp_path):
        # bench/ may construct the concrete class, but only via a
        # top-level import — deferred imports were the cycle-papering
        # idiom and stay banned everywhere outside repro/core/
        root = copy_tree(tmp_path)
        _inject(root, "bench/microbench.py", after=(
            "\ndef _lazy():\n    from repro.core.comm import MCRCommunicator\n"
            "    return MCRCommunicator\n"
        ))
        violations = check(root)
        assert any("function-local import of repro.core.comm" in v for v in violations)

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        root = copy_tree(tmp_path)
        _inject(root, "core/op_table.py", before="import repro.core.dispatch  # injected\n")
        proc = run_cli(root)
        assert proc.returncode == 1
        assert "layer violation" in proc.stderr
        assert run_cli(tmp_path / "src").returncode == 2  # no src/repro under it
