"""Static audit: telemetry stays inside ``repro.obs``.

The determinism contract (``control/events.py``, ``obs/registry.py``)
only holds if no other module under ``src/repro`` reaches for the wall
clock or prints ad-hoc telemetry.  This test parses every module and
enforces it:

* ``time`` (and ``datetime``) may only be imported inside ``repro.obs``
  — everything else must route wall-clock measurement through a
  :class:`repro.obs.MetricsRegistry` timer;
* ``print`` may only be called from ``repro.cli`` (the user interface)
  — library code reports through the registry, event log, or tracer;
* the anonymous-event sleep idiom (``threading.Event().wait(delay)``)
  may only appear inside ``repro.obs`` — it is covert wall-clock
  timing that bypasses the :class:`repro.obs.Clock` abstraction, which
  is what keeps the serving stack (``repro.server``, ``repro.chaos``)
  drivable by a :class:`repro.obs.FakeClock` in tests;
* ``threading.Timer`` may appear nowhere, ``repro.obs`` included: it
  is covert timing as well, and a thread per deadline — the real clock
  serves every deadline from one timer thread.

Docstring examples don't count (the AST walk sees only real calls).
"""

import ast
import pathlib

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: Modules (relative to the package root) allowed to import time.
TIME_ALLOWED_PREFIXES = ("obs/",)

#: Modules allowed to call print() — the CLI is the user interface.
PRINT_ALLOWED = ("cli.py",)

CLOCK_MODULES = {"time", "datetime"}


def _modules():
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        yield path.relative_to(PACKAGE_ROOT).as_posix(), path


MODULES = list(_modules())


def _clock_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in CLOCK_MODULES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in CLOCK_MODULES:
                yield node.lineno, node.module


def _print_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield node.lineno


@pytest.mark.parametrize("relative,path", MODULES,
                         ids=[rel for rel, _ in MODULES])
def test_no_clock_outside_obs(relative, path):
    if relative.startswith(TIME_ALLOWED_PREFIXES):
        pytest.skip("repro.obs owns the clock")
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = list(_clock_imports(tree))
    assert not offenders, (
        f"{relative} imports the clock {offenders}; wall-clock telemetry "
        "must go through repro.obs (MetricsRegistry.timer)"
    )


@pytest.mark.parametrize("relative,path", MODULES,
                         ids=[rel for rel, _ in MODULES])
def test_no_print_outside_cli(relative, path):
    if relative in PRINT_ALLOWED:
        pytest.skip("the CLI prints to the user by design")
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = list(_print_calls(tree))
    assert not offenders, (
        f"{relative} calls print() at lines {offenders}; library code "
        "reports through the registry, event log, or tracer"
    )


def _is_threading_event_call(node: ast.AST) -> bool:
    """``threading.Event()`` or ``Event()`` (as a call expression)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr == "Event"
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading")
    return isinstance(func, ast.Name) and func.id == "Event"


def _timer_calls(tree: ast.AST):
    """``threading.Timer(...)`` / ``Timer(...)`` constructions."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "Timer"
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"):
            yield node.lineno, "threading.Timer"
        elif isinstance(func, ast.Name) and func.id == "Timer":
            yield node.lineno, "Timer"


def _event_sleeps(tree: ast.AST):
    """Anonymous ``threading.Event().wait(...)`` sleeps."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
                and _is_threading_event_call(node.func.value)):
            yield node.lineno, "threading.Event().wait"


@pytest.mark.parametrize("relative,path", MODULES,
                         ids=[rel for rel, _ in MODULES])
def test_no_covert_timing_outside_obs(relative, path):
    if relative.startswith(TIME_ALLOWED_PREFIXES):
        pytest.skip("repro.obs owns the clock")
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = list(_event_sleeps(tree))
    assert not offenders, (
        f"{relative} uses covert wall-clock timing {offenders}; sleeps "
        "and timers must go through the repro.obs Clock abstraction "
        "(clock.sleep / clock.call_at) so FakeClock tests stay exact"
    )


@pytest.mark.parametrize("relative,path", MODULES,
                         ids=[rel for rel, _ in MODULES])
def test_no_thread_per_timer(relative, path):
    """Not even ``repro.obs`` starts a ``threading.Timer``: the real
    clock serves every deadline from one timer thread."""
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = list(_timer_calls(tree))
    assert not offenders, (
        f"{relative} starts a thread per deadline {offenders}; arm "
        "deadlines with clock.call_at (one timer thread per process)"
    )


def test_audit_covers_the_serving_stack():
    """The ban really sweeps the serving and chaos layers — if one of
    these modules moved, the parametrised audits above would silently
    stop covering it."""
    covered = {rel for rel, _ in MODULES}
    for required in (
        "server/server.py",
        "server/coalescer.py",
        "server/pool.py",
        "server/procpool.py",
        "server/supervisor.py",
        "chaos/plan.py",
        "chaos/soak.py",
        "obs/spans.py",
        "obs/slo.py",
        "obs/status.py",
    ):
        assert required in covered, f"{required} missing from the audit"


def test_obs_is_the_only_time_owner():
    """The inverse direction: the registry and the clock abstraction
    really do use the clock (so the allowlist isn't vacuous)."""
    owners = []
    for relative, path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(_clock_imports(tree)):
            owners.append(relative)
    assert owners == ["obs/clock.py", "obs/registry.py"]
