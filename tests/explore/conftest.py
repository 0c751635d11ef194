"""Shared fakes for the explore test suite.

The coordinator's liveness machinery (leases, heartbeats, stealing) is
driven entirely by an injected clock and performs no waiting of its own, so
the fault-injection tests replace both sides of the wire:

* :class:`FakeClock` — a manually advanced monotonic clock; "a worker went
  silent for 90 s" is one ``advance(90)`` call, deterministic and instant.
* :class:`FlakyClient` — wraps a client and raises ``ConnectionError`` for
  a scripted number of calls: a network partition between worker and
  coordinator, without sockets.

Real sockets are exercised separately by the protocol tests in
``test_coordinator.py``; everything else runs through
:class:`repro.explore.worker.InProcessClient` — the same frames and op
handler as the socket, minus the socket — so arbitrary interleavings can be
scripted without threads or sleeps.
"""

import re

import pytest

#: One Prometheus text-format sample line: name, optional {labels}, value.
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))$")
_LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def parse_prometheus_text(payload: str):
    """Validate a text-exposition payload line by line; return the samples.

    Every non-comment line must be a well-formed sample; HELP/TYPE comments
    must precede their metric's samples.  Returns ``{(name, labels): value}``
    with labels as a sorted tuple of (key, value) pairs — the shape the
    monotone-counter assertions diff between scrapes.
    """
    samples = {}
    typed = set()
    for line in payload.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            assert parts[1] in ("HELP", "TYPE"), f"bad comment: {line!r}"
            if parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or base in typed, \
            f"sample {name!r} before its # TYPE line"
        labels = []
        if match.group("labels"):
            for pair in match.group("labels").split(","):
                label = _LABEL.match(pair)
                assert label, f"malformed label in line: {line!r}"
                labels.append((label.group(1), label.group(2)))
        value = match.group("value")
        samples[(name, tuple(sorted(labels)))] = float(
            value.replace("Inf", "inf").replace("NaN", "nan"))
    assert payload.endswith("\n"), "exposition must end with a newline"
    return samples


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        assert seconds >= 0, "monotonic clocks do not run backwards"
        self.now += seconds


class FlakyClient:
    """Delegate to *client*, failing the next *failures* calls.

    Models a partition between one worker and the coordinator: calls raise
    ``ConnectionError`` while the partition lasts, then heal.  The worker
    loop treats that as "coordinator unreachable" and exits; the remaining
    workers (and the lease-timeout steal) absorb its work.
    """

    def __init__(self, client, failures: int = 0):
        self._client = client
        self.failures = failures

    def partition(self, calls: int) -> None:
        self.failures = calls

    def _check(self):
        if self.failures > 0:
            self.failures -= 1
            raise ConnectionError("injected partition")

    def request_leases(self, worker, count):
        self._check()
        return self._client.request_leases(worker, count)

    def heartbeat_many(self, lease_ids, worker=None, rtt=None):
        self._check()
        return self._client.heartbeat_many(lease_ids, worker=worker, rtt=rtt)

    def complete(self, lease_id, document):
        self._check()
        return self._client.complete(lease_id, document)


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()
