"""The benchmark's operations pass their own output checks.

One pass of every workload in perfbench/ runs through the benchmark's own
harness call (worker.run_op, which calls cli.main) on the benchmark's
configs, and each result goes through workloads.run_check.  Operations
tagged known_defect reproduce a recorded defect and may fail.
"""

import os
import sys

import pytest

from sbmatch import analyze, cli, kernel, model, policy, simulate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
try:
    import worker
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_operations_pass_their_checks(tmp_path, workload):
    workdir = str(tmp_path)
    workloads.write_configs(workdir)
    failures = {}
    for op in workloads.operations(workload, 1, workloads.load_reference()):
        _, res = worker.run_op(cli.main, op, workdir,
                               (analyze, cli, kernel, model, policy, simulate))
        reason = workloads.run_check(op, res, workdir)
        if reason is not None and op.known_defect is None:
            failures[op.name] = reason
    assert failures == {}
