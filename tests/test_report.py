"""Tests for the paper-fidelity report (repro.obs.report).

The golden-file test pins the full ``RESULTS.md`` rendering for a tiny
one-trace matrix.  Regenerate after an intentional rendering change::

    REGEN_REPORT_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_report.py::TestGoldenReport -q
"""

import os

import pytest

from repro.obs.report import (
    CHECK_EXPERIMENTS,
    REPORT_PROTOCOLS,
    build_manifest,
    collect_report,
    delta_pct,
    experiment_label,
    format_delta,
    git_sha,
    load_checkpoint_results,
    render_report,
)
from repro.replay.serialize import write_checkpoint

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "RESULTS_golden.md"
)


@pytest.fixture(scope="module")
def report_data():
    """One tiny matrix run (EPA x three protocols at scale 0.02)."""
    return collect_report(
        scale=0.02, seed=42, experiments=CHECK_EXPERIMENTS, git_sha="testsha"
    )


class TestDeltaArithmetic:
    def test_delta_pct(self):
        assert delta_pct(110.0, 100.0) == pytest.approx(10.0)
        assert delta_pct(90.0, 100.0) == pytest.approx(-10.0)
        assert delta_pct(100.0, 100.0) == pytest.approx(0.0)

    def test_delta_pct_zero_paper_value(self):
        assert delta_pct(5.0, 0.0) is None
        assert delta_pct(5.0, None) is None

    def test_format_delta(self):
        assert format_delta(110.0, 100.0) == "+10.0%"
        assert format_delta(85.0, 100.0) == "-15.0%"
        assert format_delta(5.0, 0.0) == "n/a"

    def test_experiment_label(self):
        assert experiment_label("EPA", 50.0, "polling") == "EPA-50d/polling"
        assert experiment_label("SDSC", 2.5, "ttl") == "SDSC-2.5d/ttl"


class TestManifest:
    def test_deterministic_across_same_seed_runs(self):
        # Two full collect_report calls with the same seed must agree on
        # every digest (the determinism promise RESULTS.md rests on).
        runs = [
            collect_report(
                scale=0.02,
                seed=42,
                experiments=CHECK_EXPERIMENTS,
                git_sha="pinned",
            )
            for _ in range(2)
        ]
        assert runs[0].manifest == runs[1].manifest
        assert render_report(runs[0]) == render_report(runs[1])

    def test_seed_changes_results_digest(self, report_data):
        other = collect_report(
            scale=0.02, seed=43, experiments=CHECK_EXPERIMENTS,
            git_sha="testsha",
        )
        assert (
            other.manifest["results_digest"]
            != report_data.manifest["results_digest"]
        )
        # Config digest covers (scale, seed, matrix), so it moves too.
        assert (
            other.manifest["config_digest"]
            != report_data.manifest["config_digest"]
        )

    def test_generated_only_on_request(self, report_data):
        assert "generated" not in report_data.manifest
        stamped = build_manifest(
            0.02,
            42,
            CHECK_EXPERIMENTS,
            report_data.results,
            git_sha="testsha",
            generated="2026-08-05T00:00:00",
        )
        assert stamped["generated"] == "2026-08-05T00:00:00"
        unstamped = dict(stamped)
        del unstamped["generated"]
        assert unstamped == report_data.manifest


class TestCheckpointLoading:
    def test_roundtrip_via_checkpoints(self, report_data, tmp_path):
        for index, (label, result) in enumerate(
            sorted(report_data.results.items())
        ):
            write_checkpoint(
                result, str(tmp_path / f"point-{index:04d}.json"), label=label
            )
        loaded = collect_report(
            scale=0.02,
            seed=42,
            experiments=CHECK_EXPERIMENTS,
            from_checkpoints=str(tmp_path),
            git_sha="testsha",
        )
        assert loaded.manifest == report_data.manifest
        assert render_report(loaded) == render_report(report_data)

    def test_missing_points_named(self, report_data, tmp_path):
        label = experiment_label("EPA", 50.0, REPORT_PROTOCOLS[0])
        write_checkpoint(
            report_data.results[label], str(tmp_path / "only.json"),
            label=label,
        )
        with pytest.raises(ValueError) as err:
            load_checkpoint_results(str(tmp_path), CHECK_EXPERIMENTS)
        message = str(err.value)
        assert "EPA-50d/invalidation" in message
        assert "EPA-50d/ttl" in message

    def test_non_checkpoint_files_skipped(self, report_data, tmp_path):
        (tmp_path / "other.json").write_text('{"schema": 1}')
        (tmp_path / "notes.json").write_text("[]")
        for index, (label, result) in enumerate(
            sorted(report_data.results.items())
        ):
            write_checkpoint(
                result, str(tmp_path / f"p{index}.json"), label=label
            )
        loaded = load_checkpoint_results(str(tmp_path), CHECK_EXPERIMENTS)
        assert set(loaded) == set(report_data.results)


class TestGoldenReport:
    def test_matches_golden_file(self, report_data):
        text = render_report(report_data)
        if os.environ.get("REGEN_REPORT_GOLDEN"):
            os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
            with open(GOLDEN_PATH, "w") as handle:
                handle.write(text)
        with open(GOLDEN_PATH) as handle:
            golden = handle.read()
        assert text == golden, (
            "RESULTS.md rendering changed; if intentional, regenerate with "
            "REGEN_REPORT_GOLDEN=1"
        )

    def test_report_sections_present(self, report_data):
        text = render_report(report_data)
        for heading in (
            "## Run manifest",
            "## Table 1",
            "## Table 2",
            "## Tables 3–4",
            "## Table 5",
            "claims checklist",
        ):
            assert heading in text
        assert "testsha" in text


def test_git_sha_returns_string():
    sha = git_sha()
    assert isinstance(sha, str)
    assert sha


def test_git_sha_independent_of_working_directory(monkeypatch, tmp_path):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(__file__)))
    from_repo_root = git_sha()
    monkeypatch.chdir(tmp_path)
    assert git_sha() == from_repo_root
