"""Simulation-level sanitizer contract.

The load-bearing property: sanitizer-on results are bit-identical to
clean runs (the hooks only observe), which is what entitles the
differential confirmer to attribute any perturbed-run difference to
same-timestamp ordering rather than to the instrumentation itself.
"""

import pytest

from repro.core.config import paper_default_config
from repro.core.simulation import Simulation
from repro.sanitizer import checks, run_sanitized, session
from repro.sanitizer.core import Sanitizer, diff_results
from repro.sim.kernel import Environment, SimulationError

from tests.sim import reference_kernel


def tiny_config(algorithm="2pl", seed=11):
    """Small enough for a sub-second run, contended enough to produce
    same-timestamp activity on shared resources."""
    return paper_default_config(
        algorithm, think_time=1.0, seed=seed
    ).with_(duration=4.0, warmup=1.0).with_workload(num_terminals=6)


class TestBitIdentical:
    def test_sanitized_result_equals_clean_result(self):
        clean = Simulation(tiny_config()).run()
        sanitized, _ = run_sanitized(tiny_config(), confirm=False)
        assert diff_results(clean, sanitized) == ""

    def test_sanitized_result_equals_clean_result_heap(self, monkeypatch):
        """Both runs on the reference heap, which must also reproduce
        the calendar queue's result."""
        calendar = Simulation(tiny_config()).run()
        reference_kernel.install(monkeypatch, scheduler="heap")
        clean = Simulation(tiny_config()).run()
        sanitized, _ = run_sanitized(tiny_config(), confirm=False)
        assert diff_results(clean, sanitized) == ""
        assert diff_results(calendar, clean) == ""

    def test_sanitized_rerun_is_deterministic(self):
        _, first = run_sanitized(tiny_config(), confirm=False)
        _, second = run_sanitized(tiny_config(), confirm=False)
        assert [v.as_dict() for v in first] == [
            v.as_dict() for v in second
        ]


class TestConfirmer:
    def test_contended_run_produces_races(self):
        _, findings = run_sanitized(tiny_config(), confirm=False)
        races = [
            v for v in findings if v.rule_id == checks.SAME_TIME_RACE
        ]
        assert races, "expected same-timestamp activity in a real run"
        assert all("[unconfirmed]" in v.message for v in races)
        assert all(v.severity == "warning" for v in races)

    def test_confirmer_classifies_every_race(self):
        _, findings = run_sanitized(tiny_config(), confirm=True)
        races = [
            v for v in findings if v.rule_id == checks.SAME_TIME_RACE
        ]
        assert races
        for violation in races:
            benign = "[benign-commutative" in violation.message
            changing = "[outcome-changing" in violation.message
            assert benign != changing
            assert violation.severity == (
                "warning" if benign else "error"
            )

    def test_verdict_to_severity_mapping(self):
        """Unit-level pin of the classification table."""
        for verdict, severity, fragment in (
            (True, "error", "outcome-changing"),
            (False, "warning", "benign-commutative"),
        ):
            sanitizer = Sanitizer(confirm=False)
            sanitizer._races.append(
                {"path": "x.py", "line": 1, "message": "conflict"}
            )
            sanitizer._race_verdict = verdict
            [finding] = sanitizer.finalize()
            assert finding.severity == severity
            assert fragment in finding.message

    def test_perturbed_run_is_deterministic(self):
        """reverse-batch is a fixed alternative order, not a shuffle:
        the confirmer's verdict must be reproducible."""
        first = Simulation(tiny_config(), tiebreak="reverse-batch").run()
        second = Simulation(tiny_config(), tiebreak="reverse-batch").run()
        assert diff_results(first, second) == ""


class TestDiffResults:
    def test_identical_runs_diff_empty(self):
        first = Simulation(tiny_config()).run()
        second = Simulation(tiny_config()).run()
        assert diff_results(first, second) == ""

    def test_different_seeds_diff_names_fields(self):
        first = Simulation(tiny_config(seed=11)).run()
        second = Simulation(tiny_config(seed=12)).run()
        diff = diff_results(first, second)
        assert diff != ""


class TestModeSelection:
    def test_sanitizer_excludes_tiebreak(self):
        with pytest.raises(SimulationError):
            Environment(
                sanitizer=Sanitizer(confirm=False),
                tiebreak="reverse-batch",
            )

    def test_bogus_tiebreak_rejected(self):
        with pytest.raises(ValueError):
            Environment(tiebreak="random")

    def test_fifo_tiebreak_is_the_clean_loop(self):
        explicit = Simulation(tiny_config(), tiebreak="fifo").run()
        default = Simulation(tiny_config()).run()
        assert diff_results(explicit, default) == ""

    def test_env_var_auto_sanitizes_and_publishes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        monkeypatch.setenv("REPRO_SIMSAN_CONFIRM", "0")
        Simulation(tiny_config()).run()
        assert session.session_runs() == 1
        assert session.session_findings()

    def test_explicit_sanitizer_does_not_publish(self):
        session.activate(confirm=False)
        try:
            sanitizer = Sanitizer(confirm=False)
            Simulation(tiny_config(), sanitizer=sanitizer).run()
        finally:
            session.deactivate()
        # The session counted nothing: an explicit instance is the
        # caller's to finalize.
        assert session.session_runs() == 0

    def test_sanitizer_false_forces_clean_run(self):
        session.activate(confirm=False)
        try:
            simulation = Simulation(tiny_config(), sanitizer=False)
            assert simulation.sanitizer is None
            simulation.run()
        finally:
            session.deactivate()
        assert session.session_runs() == 0
