"""Every registered verification suite runs green on a fixed seed."""

import pytest

from banachkit.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    rep = run_suite(name, seed=20240809)
    failed = [r.name for r in rep.records if r.verdict == "fail"]
    assert rep.passed, f"{name}: failing checks {failed}"


def test_reports_carry_direction_tags_and_seeds():
    rep = run_suite("pi1", seed=5)
    for r in rep.records:
        assert r.tier in ("ASSERT", "OBSERVE")
        assert r.verdict in ("pass", "fail", "observe")
    doc = rep.to_dict()
    assert doc["master_seed"] == 5
    assert doc["version"]


def test_record_extras_are_flat():
    rep = run_suite("growth", seed=0)
    extras = [r.to_dict()["extra"] for r in rep.records]
    assert all("extra" not in e for e in extras)
    assert any("warnings" in e for e in extras)
