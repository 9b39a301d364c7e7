"""Repo-wide fixtures: the chaos harness.

``chaos_run`` runs a named chaos scenario with small, test-friendly
defaults and returns its deterministic report; tests override any knob
by keyword (``chaos_run("flaky-3g", seed=11, inject_bug=...)``).
"""

import pytest

from repro.chaos import run_scenario


@pytest.fixture
def chaos_run():
    def run(name, **kwargs):
        kwargs.setdefault("seed", 7)
        kwargs.setdefault("minutes", 6.0)
        kwargs.setdefault("devices", 2)
        return run_scenario(name, **kwargs)

    return run
