"""The fuzz campaign and the failure shrinker, end to end.

Covers the full loop the ISSUE's acceptance criteria describe: a clean
engine fuzzes green with a deterministic manifest fingerprint; a
chaos-armed (intentionally broken) engine yields oracle violations,
and the shrinker reduces each violating scenario to a strictly smaller
standalone reproducer.
"""

from __future__ import annotations

import json

import pytest

import repro.harness.fuzz
from repro.__main__ import main as cli_main
from repro.harness.fuzz import run_fuzz, shrink_scenario
from repro.harness.fuzz.campaign import (
    fuzz_grid,
    fuzz_sample,
    sample_scenario,
    swarm_scenario,
)
from repro.harness.fuzz.generator import ScenarioGenerator, scenario_to_json
from repro.harness.fuzz.shrink import scenario_size
from repro.harness.manifest import manifest_fingerprint, read_manifest
from repro.harness.oracles import run_scenario_oracles
from repro.harness.timing import PhaseTimer

CHAOS = {"mode": "teleport", "uav": "uav1", "at": 10.0}


class TestFuzzGrid:
    def test_preset_parsing(self):
        assert len(fuzz_grid("smoke:7")) == 7
        assert fuzz_grid("smoke:2") == [
            {"profile": "smoke", "case": 0},
            {"profile": "smoke", "case": 1},
        ]
        assert len(fuzz_grid("smoke")) > 0  # default count

    def test_bad_presets_rejected(self):
        with pytest.raises(KeyError):
            fuzz_grid("nightmare:5")
        with pytest.raises(ValueError):
            fuzz_grid("smoke:0")

    def test_registered_in_the_catalogue(self):
        from repro.experiments.campaigns import get_experiment

        assert get_experiment("fuzz").name == "fuzz"


class TestFuzzSample:
    def test_sample_carries_oracle_verdict(self):
        result = fuzz_sample({"profile": "smoke", "case": 0}, 123, PhaseTimer())
        assert result["oracles"]["passed"] is True
        assert result["profile"] == "smoke"
        assert result["n_uavs"] >= 1

    def test_scenario_reconstructible_from_seed_alone(self):
        # The manifest audit contract: config + seed fully determine the
        # scenario that ran.
        config = {"profile": "default", "case": 3}
        assert sample_scenario(config, 999) == sample_scenario(config, 999)
        assert (
            sample_scenario(config, 999)
            == ScenarioGenerator(999).generate("default")
        )

    def test_chaos_block_merges_into_generated_scenario(self):
        scenario = sample_scenario(
            {"profile": "smoke", "case": 0, "chaos": CHAOS}, 7
        )
        assert scenario["chaos"] == CHAOS

    def test_explicit_scenario_wins_over_generation(self):
        explicit = {"seed": 1, "uavs": [{"id": "u", "base": [0, 0, 0]}]}
        scenario = sample_scenario({"scenario": explicit}, 42)
        assert scenario == explicit


class TestFuzzCampaign:
    def test_clean_engine_fuzzes_green_and_deterministically(self, tmp_path):
        first = run_fuzz(
            "smoke", count=6, root_seed=11, workers=1,
            manifest_path=tmp_path / "m1.json",
        )
        second = run_fuzz(
            "smoke", count=6, root_seed=11, workers=3,
            manifest_path=tmp_path / "m2.json",
        )
        assert first.ok and second.ok
        m1, m2 = read_manifest(tmp_path / "m1.json"), read_manifest(tmp_path / "m2.json")
        assert manifest_fingerprint(m1) == manifest_fingerprint(m2)
        assert m1["schema_version"] == 3
        sample = m1["samples"][0]
        assert sample["oracles"]["passed"] is True
        assert sample["status"] == "ok"

    def test_oracles_block_participates_in_fingerprint(self, tmp_path):
        run_fuzz("smoke", count=2, root_seed=5,
                 manifest_path=tmp_path / "m.json")
        manifest = read_manifest(tmp_path / "m.json")
        baseline = manifest_fingerprint(manifest)
        manifest["samples"][0]["oracles"]["passed"] = False
        assert manifest_fingerprint(manifest) != baseline

    def test_chaos_armed_engine_is_caught_shrunk_and_reproducible(
        self, tmp_path
    ):
        outcome = run_fuzz(
            "smoke", count=2, root_seed=11, workers=1,
            manifest_path=tmp_path / "m.json",
            artifacts_dir=tmp_path / "artifacts",
            chaos=CHAOS, max_shrink=2,
        )
        assert not outcome.ok
        assert len(outcome.violations) == 2
        assert len(outcome.repro_paths) == 2
        for record in outcome.violations:
            # The quarantined verdict is in the manifest record.
            assert record.oracles["passed"] is False
            assert record.oracles["violations"][0]["oracle"] == "teleport_bound"
            path = outcome.repro_paths[record.seed]
            assert path.name == f"repro_{record.seed}.json"
            minimized = json.loads(path.read_text())
            # Strictly smaller than the scenario that originally ran...
            original = sample_scenario(record.config, record.seed)
            assert scenario_size(minimized) < scenario_size(original)
            # ...and still reproduces the failure standalone.
            replay = run_scenario_oracles(minimized)
            assert "teleport_bound" in replay.violated_oracles


class TestFuzzCli:
    def _argv(self, tmp_path, *flags):
        return [
            "campaign", "fuzz", "--profile", "smoke", "--count", "1",
            "--no-cache", "--artifacts", str(tmp_path / "artifacts"), *flags,
        ]

    def test_clean_run_exits_0(self, tmp_path, capsys):
        assert cli_main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "campaign fuzz grid=smoke:1" in out
        assert "0 violating" in out

    def test_violation_exits_1(self, tmp_path, capsys):
        chaos = json.dumps({"mode": "exception", "at": 1})
        argv = self._argv(tmp_path, "--chaos", chaos, "--no-shrink")
        assert cli_main(argv) == 1
        assert "1 oracle-violating" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--batch"])
    def test_unsupported_flags_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        flags = [flag] if flag == "--batch" else [flag, str(out)]
        assert cli_main(self._argv(tmp_path, *flags)) == 2
        err = capsys.readouterr().err
        assert f"campaign fuzz does not support {flag}" in err
        assert not out.exists()

    def test_unshrunk_repro_is_printed_without_shrink_stats(
        self, tmp_path, capsys, monkeypatch
    ):
        # Swarm violations are saved as generated: the outcome has a
        # reproducer path but no shrink result for that seed.
        real_run_fuzz = repro.harness.fuzz.run_fuzz

        def fake_run_fuzz(**kwargs):
            outcome = real_run_fuzz(**kwargs)
            outcome.repro_paths[123] = tmp_path / "repro_123.json"
            return outcome

        monkeypatch.setattr(repro.harness.fuzz, "run_fuzz", fake_run_fuzz)
        assert cli_main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert f"repro: {tmp_path / 'repro_123.json'}" in out
        assert "scenario replay" in out

    def test_swarm_repro_replays_under_the_swarm_oracle(self, tmp_path, capsys):
        config = {"profile": "smoke", "case": 0, "kind": "swarm"}
        path = tmp_path / "repro_5.json"
        path.write_text(scenario_to_json(swarm_scenario(config, 5)))
        assert cli_main(["scenario", "replay", str(path), "--horizon", "20"]) == 0
        out = capsys.readouterr().out
        assert "over 20 s sim time" in out
        assert "swarm_tasking" in out


class TestShrinker:
    def _violating_scenario(self):
        scenario = ScenarioGenerator(20).generate("default")
        scenario["chaos"] = dict(CHAOS)
        return scenario

    def test_minimized_scenario_reproduces_and_is_strictly_smaller(self):
        scenario = self._violating_scenario()
        assert not run_scenario_oracles(scenario).passed
        result = shrink_scenario(scenario)
        assert result.oracle == "teleport_bound"
        assert scenario_size(result.config) < scenario_size(scenario)
        replay = run_scenario_oracles(result.config)
        assert result.oracle in replay.violated_oracles

    def test_shrinks_to_the_chaos_essentials(self):
        result = shrink_scenario(self._violating_scenario())
        config = result.config
        # Only the chaos target can be load-bearing for a teleport bug.
        assert [uav["id"] for uav in config["uavs"]] == ["uav1"]
        assert config.get("faults", []) == []
        assert config.get("attacks", []) == []
        # Horizon clipped to just past the chaos fire time.
        assert config["horizon_s"] == pytest.approx(CHAOS["at"])

    def test_input_config_is_not_mutated(self):
        scenario = self._violating_scenario()
        snapshot = json.loads(json.dumps(scenario))
        shrink_scenario(scenario)
        assert scenario == snapshot

    def test_non_violating_scenario_rejected(self):
        scenario = ScenarioGenerator(20).generate("smoke")
        with pytest.raises(ValueError, match="violates no oracle"):
            shrink_scenario(scenario)

    def test_wrong_target_oracle_rejected(self):
        with pytest.raises(ValueError, match="does not violate"):
            shrink_scenario(
                self._violating_scenario(), target_oracle="soc_monotonic"
            )
