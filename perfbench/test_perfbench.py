"""Tests of the benchmark itself: the oracle catches wrong reports, every
workload runs clean, and the traced counts repeat exactly.

    python3 -m pytest perfbench
"""

import json
from collections import Counter

import pytest

import oracle
import reference
import run
import spans
import workloads

SEED = 1


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    w = workloads.WORKLOADS["small-docs"]
    cli, plan, warm, _ = run.set_up(w, SEED, str(tmp_path_factory.mktemp("small")))
    return cli, plan, warm


def _result(plan, warm, key):
    return next((inv, res) for inv, res in zip(plan, warm) if inv.key == key)


def test_oracle_flags_one_altered_bound(small):
    _, plan, warm = small
    inv, res = _result(plan, warm, "analyze:random")
    assert oracle.check(inv, res.rc, res.data, SEED) == []
    report = json.loads(res.data)
    report["results"]["bounds"]["upper"] *= 1.0 + 1e-6
    problems = oracle.check(inv, res.rc, json.dumps(report).encode(), SEED)
    assert len(problems) == 1 and problems[0].startswith("bounds.upper")


def test_oracle_flags_a_wrong_exit_code(small):
    _, plan, warm = small
    inv, res = _result(plan, warm, "represent:dilation:theorem21")
    assert res.rc == 3  # ||T|| = c < 1
    assert oracle.check(inv, res.rc, res.data, SEED) == []
    assert oracle.check(inv, 0, res.data, SEED) != []


def test_oracle_flags_a_witness_pair_that_passes(small):
    _, plan, warm = small
    inv, res = _result(plan, warm, "perturb:unitary-orbit:witness")
    report = json.loads(res.data)
    report["results"]["inequality_holds"] = True
    assert oracle.check(inv, res.rc, json.dumps(report).encode(), SEED) != []


def test_changed_bytes_count_as_failures(small):
    cli, plan, warm = small
    problems = {inv.key: [] for inv in plan}
    altered = list(warm)
    altered[1] = altered[1]._replace(data=altered[1].data + b" ")
    assert run.count_failures(plan, warm, [warm, altered], problems) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, tmp_path):
    w = workloads.WORKLOADS[name]
    cli, plan, warm, _ = run.set_up(w, SEED, str(tmp_path))
    problems = run.verdicts(w, SEED, plan, warm)
    assert not any(problems.values()), problems
    again = run.run_cycle(cli, plan)
    assert run.count_failures(plan, warm, [again], problems) == 0


def test_counts_repeat_exactly(small):
    cli, plan, _ = small
    tracer = spans.Tracer()
    original = cli.frame_bounds
    recorded = []
    for _ in range(2):
        with tracer.installed():
            assert cli.frame_bounds is not original
            run.run_cycle(cli, plan, tracer)
        recorded.append(tracer.take())
    assert cli.frame_bounds is original
    first, second = recorded[0][1], recorded[1][1]
    assert first == second
    per_command = Counter(inv.command for inv in plan)
    metrics = [spans.cycle_metrics(s, c, per_command) for s, c in recorded]
    counted = [k for k in metrics[0] if not k.endswith("_s") and not k.startswith("trace.")]
    assert {k: metrics[0][k] for k in counted} == {k: metrics[1][k] for k in counted}
    assert metrics[0]["frames.frame_operator_per_analyze"] == 3
    assert metrics[0]["hilbert.contains_calls"] > 0
    assert 0.5 < metrics[0]["trace.coverage"] <= 1.0


def test_calibrated_cycle_scales_every_invocation(small):
    cli, plan, warm = small
    results = run.run_cycle(cli, plan, calibrated=True)
    assert all(r.scaled is not None and r.scaled > 0 for r in results)
    assert run.count_failures(plan, warm, [results], {inv.key: [] for inv in plan}) == 0


def test_reference_scale_uses_the_mean_of_the_bracketing_samples():
    nominal = reference.NOMINAL_S
    assert reference.scale(1.0, nominal, nominal) == pytest.approx(1.0)
    assert reference.scale(1.0, nominal, 3 * nominal) == pytest.approx(0.5)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(1, 21))) == (50, 10)
    p, value = run.tail(list(range(1, 49)))
    assert sum(v > value for v in range(1, 49)) >= 10

