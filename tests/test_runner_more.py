"""Runner, workload, and experiment-harness details not covered elsewhere."""

import pytest

from repro.core import EnforcerOptions
from repro.workloads import (
    MimicConfig,
    PolicyParams,
    build_experiment,
    make_workload,
    repeat_query,
    round_robin,
    run_stream,
)


class TestPolicyParams:
    def test_for_config_scales_p5(self):
        config = MimicConfig(n_patients=100)
        params = PolicyParams.for_config(config)
        assert params.p5_max_tuples == 50

    def test_for_config_overrides_win(self):
        config = MimicConfig(n_patients=100)
        params = PolicyParams.for_config(config, p5_max_tuples=7, p1_window=9)
        assert params.p5_max_tuples == 7
        assert params.p1_window == 9

    def test_p3_floor(self):
        params = PolicyParams.for_config(MimicConfig(n_patients=30))
        assert params.p3_max_output >= 100


class TestWorkloadScaling:
    def test_subject_constants_within_range(self):
        for n in (40, 500, 3000):
            workload = make_workload(MimicConfig(n_patients=n))
            for sql in workload.all().values():
                # every numeric subject constant must be within 1..n
                import re

                for match in re.findall(r"subject_id [<>=]+ (\d+)", sql):
                    assert 1 <= int(match) <= n

    def test_thresholds_track_density(self):
        sparse = make_workload(
            MimicConfig(n_patients=100, hr_events_base=2, hr_events_spread=3)
        )
        dense = make_workload(
            MimicConfig(n_patients=100, hr_events_base=20, hr_events_spread=30)
        )
        assert sparse.w3 != dense.w3


class TestStreams:
    def test_repeat_query(self):
        stream = repeat_query("q", 5, 3)
        assert stream == [("q", 5)] * 3

    def test_round_robin_cycles_independently(self):
        stream = round_robin(["a", "b", "c"], [1, 2], 7)
        assert stream[:4] == [("a", 1), ("b", 2), ("c", 1), ("a", 2)]
        assert len(stream) == 7

    def test_run_stream_counts_rejections(self, tiny_mimic_config):
        experiment = build_experiment(
            policy_names=["P2"], config=tiny_mimic_config
        )
        stream = [
            (experiment.workload["W1"], 1),
            (
                "SELECT o.poe_id FROM poe_order o, d_patients p "
                "WHERE o.subject_id = p.subject_id",
                1,
            ),
        ]
        result = run_stream(experiment.enforcer, stream, execute=False)
        assert result.allowed == 1
        assert result.rejected == 1
        assert result.total == 2

    def test_build_experiment_with_custom_options_and_clock(
        self, tiny_mimic_config
    ):
        experiment = build_experiment(
            policy_names=["P6"],
            config=tiny_mimic_config,
            options=EnforcerOptions.datalawyer(compaction_every=4),
            clock_step_ms=25,
        )
        assert experiment.enforcer.options.compaction_every == 4
        experiment.enforcer.submit(
            experiment.workload["W1"], uid=1, execute=False
        )
        assert experiment.enforcer.clock.now() == 25
