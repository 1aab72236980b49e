"""Environment-knob parsing: warn-once fallback instead of silent swallow.

Every knob used to ``try: int(...) except ValueError: pass`` — a typo'd
``REPRO_SESSION_SHARDS=two`` silently ran the default configuration with
no hint anything was ignored.  The shared :mod:`repro.envknobs` helpers
now emit one :class:`RuntimeWarning` per distinct (knob, value) pair and
fall back to the documented default; unset and empty stay silent.
"""

import warnings

import pytest

from repro.db.columnar import BACKEND_ENV, default_backend
from repro.dynamic.maintainer import (
    MAINTAINER_BUDGET_ENV,
    maintainer_budget_from_env,
)
from repro.envknobs import env_float, env_int, reset_env_warnings
from repro.service.router import SESSION_SHARDS_ENV, default_shards


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    reset_env_warnings()
    yield
    reset_env_warnings()


class TestHelpers:
    def test_unset_is_silent_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_empty_is_silent_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert env_int("REPRO_TEST_KNOB", 7) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_float("REPRO_TEST_KNOB", 0.0) == 2.5

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB='banana'"):
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_warns_once_per_name_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.warns(RuntimeWarning):
            env_int("REPRO_TEST_KNOB", 7)
        # Same (name, value): silent on re-read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7
        # A *different* garbage value warns again.
        monkeypatch.setenv("REPRO_TEST_KNOB", "kiwi")
        with pytest.warns(RuntimeWarning, match="kiwi"):
            env_int("REPRO_TEST_KNOB", 7)


class TestSessionShardsKnob:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv(SESSION_SHARDS_ENV, "5")
        assert default_shards() == 5

    def test_garbage_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(SESSION_SHARDS_ENV, "two")
        with pytest.warns(RuntimeWarning, match=SESSION_SHARDS_ENV):
            assert default_shards() == 2

    def test_nonpositive_clamped(self, monkeypatch):
        monkeypatch.setenv(SESSION_SHARDS_ENV, "-3")
        assert default_shards() == 1


class TestMaintainerBudgetKnob:
    def test_valid_mb(self, monkeypatch):
        monkeypatch.setenv(MAINTAINER_BUDGET_ENV, "2")
        assert maintainer_budget_from_env() == 2 * 1024 * 1024

    def test_zero_means_unbounded(self, monkeypatch):
        monkeypatch.setenv(MAINTAINER_BUDGET_ENV, "0")
        assert maintainer_budget_from_env() is None

    def test_garbage_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(MAINTAINER_BUDGET_ENV, "lots")
        with pytest.warns(RuntimeWarning, match=MAINTAINER_BUDGET_ENV):
            assert maintainer_budget_from_env() is None


class TestBackendKnob:
    def test_valid_and_case_insensitive(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "columnar")
        assert default_backend() == "columnar"
        monkeypatch.setenv(BACKEND_ENV, "COLUMNAR")
        assert default_backend() == "columnar"
        monkeypatch.setenv(BACKEND_ENV, "tuple")
        assert default_backend() == "tuple"

    def test_unset_defaults_to_tuple(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_backend() == "tuple"

    def test_garbage_warns_once_and_falls_back_to_tuple(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "arrow")
        with pytest.warns(RuntimeWarning, match=BACKEND_ENV):
            assert default_backend() == "tuple"
        # Same garbage value: silent on re-read, same fallback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_backend() == "tuple"
