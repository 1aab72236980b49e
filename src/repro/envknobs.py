"""Shared parsing of the ``REPRO_*`` environment knobs.

Every environment knob in the repository goes through these helpers so a
malformed value is **never silently swallowed**: an unparseable setting
(``REPRO_SESSION_SHARDS=two``) emits one :class:`RuntimeWarning` per
distinct ``(name, value)`` pair and falls back to the knob's default —
visible, deterministic, and impossible to mistake for the knob having
taken effect.

Unset and empty values mean "use the default" and never warn (an empty
string is how the CI matrix expresses "leg does not set this knob").
The knobs currently wired through here:

* ``REPRO_SESSION_SHARDS`` — :func:`repro.service.default_shards`
* ``REPRO_MAINTAINER_BUDGET_MB`` —
  :func:`repro.dynamic.maintainer.maintainer_budget_from_env`
* ``REPRO_BACKEND`` — :func:`repro.db.columnar.default_backend`
  (``tuple`` or ``columnar``; the relation storage / kernel backend)
* ``REPRO_COST_UNITS_PER_MS`` —
  :func:`repro.counting.engine.cost_units_per_ms` (deadline calibration)
* ``REPRO_PLAN_CACHE_DIR`` —
  :func:`repro.counting.plan_cache.default_plan_cache`
* ``REPRO_SHARD_ADDRS`` — comma-separated ``host:port`` shard server
  addresses (:func:`repro.service.net.default_shard_addrs`); when set,
  a ``MultiWriterSession`` built without an explicit ``shard_mode``
  runs ``tcp`` shards on those servers (the CI ``net`` leg sets only
  this)
* ``REPRO_NET_TIMEOUT_MS`` / ``REPRO_NET_RETRIES`` — per-request
  timeout and transport retry budget of the networked shard clients
  (:mod:`repro.service.net.client`)

Tests and benchmarks that must run under *their own* knob settings use
:func:`isolated_repro_env`, the one shared snapshot/restore helper (it
also resets the process-wide default plan cache, which may have been
built from a knob that no longer applies inside the sandbox).
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from typing import Iterator, Optional, Sequence, Set, Tuple

#: ``(name, raw value)`` pairs already warned about — one warning per
#: distinct misconfiguration per process, not one per read (knobs like
#: ``REPRO_BACKEND`` are consulted on every relation built).
_WARNED: Set[Tuple[str, str]] = set()
_WARNED_LOCK = threading.Lock()


def _warn_once(name: str, raw: str, expected: str) -> None:
    with _WARNED_LOCK:
        key = (name, raw)
        if key in _WARNED:
            return
        _WARNED.add(key)
    warnings.warn(
        f"ignoring unparseable environment knob {name}={raw!r} "
        f"(expected {expected}); using the default instead",
        RuntimeWarning,
        stacklevel=4,
    )


def reset_env_warnings() -> None:
    """Forget which misconfigurations were warned about (tests only)."""
    with _WARNED_LOCK:
        _WARNED.clear()


def env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """``$name`` as an ``int``, or *default*.

    Unset/empty values return *default* silently; an unparseable value
    warns once (per distinct value) and returns *default*.
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        _warn_once(name, raw, "an integer")
        return default


def env_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """``$name`` as a ``float``, or *default* (same contract as
    :func:`env_int`)."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        _warn_once(name, raw, "a number")
        return default


def env_choice(name: str, choices: Sequence[str], default: str) -> str:
    """``$name`` restricted to *choices* (case-insensitive), or *default*.

    Unset/empty values return *default* silently; a value outside
    *choices* warns once and returns *default* — same contract as the
    numeric knobs.
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    lowered = raw.strip().lower()
    if lowered in choices:
        return lowered
    _warn_once(name, raw, "one of " + "/".join(choices))
    return default


#: Prefix of every environment knob this repository reads.
ENV_PREFIX = "REPRO_"


@contextlib.contextmanager
def isolated_repro_env(**pins: object) -> Iterator[None]:
    """Run a block under snapshot/restored ``REPRO_*`` knobs.

    On entry every ``REPRO_*`` environment variable is snapshotted and
    the process-wide default plan cache is cleared (so a cache built
    under outside knobs never leaks into the sandbox); *pins* are then
    applied (``NAME=value`` sets the variable, ``NAME=None`` unsets it).
    On exit the environment is restored exactly — pins removed,
    outside-world knobs reinstated — and the previous default plan cache
    is put back.  This is the one shared isolation helper behind the
    ``repro_env_sandbox`` test fixture and the benchmarks' "measure
    under my own knobs" blocks.
    """
    from .counting.plan_cache import set_default_plan_cache

    saved = {name: value for name, value in os.environ.items()
             if name.startswith(ENV_PREFIX)}
    previous_cache = set_default_plan_cache(None)
    try:
        for name, value in pins.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = str(value)
        yield
    finally:
        for name in list(os.environ):
            if name.startswith(ENV_PREFIX) and name not in saved:
                del os.environ[name]
        os.environ.update(saved)
        set_default_plan_cache(previous_cache)
