"""One property fuzzer over every route of both HTTP servers.

Each example builds a fresh single-community service and a fresh
two-community fleet aggregator (all sharing one warm game-solution
cache), serves both on live sockets, and sends at most eight requests in
any order: any method, any path of either route table or none, random
query values, and bodies drawn from the engines' own event streams —
valid, mutated (a field dropped, retyped, truncated or repeated, a day
moved, a shorter horizon) or replaced by random JSON, a non-object,
invalid UTF-8 or truncated JSON.  Four properties must hold:

1. no response has a 5xx status;
2. every non-2xx body is ``{"error", "code", "status"}`` with ``status``
   equal to the HTTP status (a HEAD answer has headers only);
3. no non-2xx request changes any engine's checkpoint payload or the
   service's audit-trail record count;
4. fresh servers fed only the 2xx requests, in order, serve byte-equal
   ``/status``, ``/detections`` and ``/scoreboard``.

The example budget is fixed and derandomized, so the run is the same
on every machine; the explicit regression tests for what it found live
in ``tests/test_http_front.py``.
"""

from __future__ import annotations

import http.client
import json
import string
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Iterator
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet.aggregator import FleetAggregator, create_fleet_server
from repro.fleet.engine import CommunitySpec, build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.service.app import DetectionService, create_server
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import checkpoint_payload
from repro.stream.events import event_to_dict

N_DAYS = 2
TARGETS = ("service", "fleet")
METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS")
QUERY_KEYS = ("since", "limit", "day", "kind", "format", "community")
QUERY_WORDS = ("json", "prometheus", "detection", "gap", "c0000", "c0001", "")


@dataclass(frozen=True)
class Request:
    target: str
    method: str
    path: str
    query: str
    body: bytes | None


class World:
    """Builds fresh, identical service and fleet facades on demand."""

    def __init__(self, config: Any, tmp: Any) -> None:
        self.config = config
        self.cache = GameSolutionCache()
        # Campaign mode: both streams carry attack occurrences too.
        self.generator = LoadGenerator(
            config, n_communities=2, n_days=N_DAYS, seed=5, announce_attacks=True
        )
        self.specs = self.generator.specs()
        self.solo = CommunitySpec(
            "solo", config, n_days=N_DAYS, attack_days=(0, 1), announce_attacks=True
        )
        self.service_path = tmp / "service.json"
        self.fleet_dir = tmp / "fleet"
        engine = self.solo.build_engine(cache=self.cache)
        self.events = []
        while (event := engine.source.next_event()) is not None:
            self.events.append(event_to_dict(event))
        self.envelopes = list(self.generator.envelopes(self.specs))
        # Warm the shared cache: every example then solves nothing new.
        warm = self.facades()
        warm["service"].advance()
        warm["fleet"].advance()
        # Both route tables, read off the servers.
        with serving(warm) as servers:
            self.routes = {
                name: sorted(server.RequestHandlerClass.routes)
                for name, server in servers.items()
            }
        self.paths = sorted({path for table in self.routes.values() for _, path in table})

    def facades(self) -> dict[str, Any]:
        return {
            "service": DetectionService(
                self.solo.build_engine(cache=self.cache), checkpoint_path=self.service_path
            ),
            "fleet": FleetAggregator(
                build_fleet(self.specs, n_shards=2, cache=self.cache),
                checkpoint_dir=self.fleet_dir,
            ),
        }


@pytest.fixture(scope="module")
def world(fleet_config, tmp_path_factory) -> World:
    return World(fleet_config, tmp_path_factory.mktemp("fuzz"))


UNKNOWN_PATHS = ("/", "/nope", "/status/", "/STATUS", "/events/bulk", "/healthz/x")


# ----------------------------------------------------------------------
# Strategies
json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=8),
)
#: Values a retyped field takes besides random JSON.
nasty = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), -1, 2**64, 10**400, 1e300, "", [], {}, None]
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


def _locations(value: Any, prefix: tuple = ()) -> Iterator[tuple]:
    """Every dict key inside a body, descending into lists of objects."""
    if isinstance(value, dict):
        for key in value:
            yield prefix + (key,)
            yield from _locations(value[key], prefix + (key,))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for index, item in enumerate(value):
            yield from _locations(item, prefix + (index,))


def _horizon(value: Any, slots: int) -> Any:
    """Every price vector cut to ``slots`` entries (another day length)."""
    if isinstance(value, dict):
        return {key: _horizon(item, slots) for key, item in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], (int, float)):
        return value[:slots]
    if isinstance(value, list):
        return [_horizon(item, slots) for item in value]
    return value


@st.composite
def mutated(draw: Any, body: Any) -> Any:
    """A valid body with one to three mutations applied."""
    body = json.loads(json.dumps(body))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(body, dict):
            break
        op = draw(st.sampled_from(
            ["drop", "retype", "truncate", "repeat", "shift", "horizon"]
        ))
        if op == "horizon":
            body = _horizon(body, draw(st.integers(0, 23)))
            continue
        locations = list(_locations(body))
        if not locations:
            break
        *parents, key = draw(st.sampled_from(locations))
        owner = body
        for step in parents:
            owner = owner[step]
        value = owner[key]
        if op == "drop":
            del owner[key]
        elif op == "retype":
            owner[key] = draw(st.one_of(nasty, json_value))
        elif op == "truncate" and isinstance(value, (list, str)):
            owner[key] = value[: draw(st.integers(0, max(0, len(value) - 1)))]
        elif op == "repeat" and isinstance(value, list):
            owner[key] = value * draw(st.integers(2, 3))
        elif op == "shift" and isinstance(value, int) and not isinstance(value, bool):
            step = 24 if key == "slot" else 1
            owner[key] = value + step * draw(st.integers(-3, 3))
    return body


def _valid_bodies(world: World, target: str, path: str) -> st.SearchStrategy[Any]:
    if path == "/events":
        # Day-level events half the time, so readings find a bound day.
        days = [e for e in world.events if e["type"] != "meter_reading"]
        return st.one_of(st.sampled_from(days), st.sampled_from(world.events))
    if path == "/envelope":
        entries = [entry for env in world.envelopes for entry in env["entries"]]
        return st.one_of(
            st.sampled_from(world.envelopes[:3]),
            st.sampled_from(world.envelopes),
            st.lists(st.sampled_from(entries), min_size=1, max_size=4).map(
                lambda chosen: {"entries": chosen}
            ),
        )
    if path == "/advance":
        steps = "max_events" if target == "service" else "ticks"
        return st.fixed_dictionaries(
            {},
            optional={
                steps: st.integers(0, 2 * N_DAYS * 30),
                "until_day": st.integers(0, N_DAYS + 1),
            },
        )
    if path == "/faults":
        return st.fixed_dictionaries(
            {
                "plan": st.one_of(
                    st.sampled_from(["chaos", "drop", "corrupt", "earthquake"]),
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "seed": st.integers(0, 99),
                            "drop_prob": st.floats(0, 1),
                            "corrupt_prob": st.floats(0, 1),
                            "max_delay": st.integers(1, 4),
                            "max_stall": st.integers(1, 4),
                        },
                    ),
                )
            },
            optional={"seed": st.integers(0, 99)},
        )
    return st.just({})


@st.composite
def bodies(draw: Any, world: World, target: str, path: str) -> bytes | None:
    kind = draw(st.sampled_from(
        ["valid", "valid", "mutated", "mutated", "json", "none", "bad_utf8", "truncated"]
    ))
    if kind == "none":
        return None
    if kind == "json":
        return json.dumps(draw(json_value)).encode()
    body = draw(_valid_bodies(world, target, path))
    if kind == "mutated":
        body = draw(mutated(body))
    raw = json.dumps(body).encode()
    if kind == "bad_utf8":
        cut = draw(st.integers(0, len(raw)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        return raw[:cut] + bad + raw[cut:]
    if kind == "truncated" and raw:
        return raw[: draw(st.integers(0, len(raw) - 1))]
    return raw


@st.composite
def requests(draw: Any, world: World) -> Request:
    """Mostly a route of the target's own table with one of its methods;
    sometimes the other table's paths, unknown paths, other methods."""
    target = draw(st.sampled_from(TARGETS))
    table = world.routes[target]
    # The routes that change state are drawn three times as often.
    posts = [route for route in table if route[0] == "POST"]
    method, path = draw(st.sampled_from(table + posts * 2))
    other_path = draw(st.integers(0, 19))
    if other_path == 17:
        path = draw(st.sampled_from(world.paths))
    elif other_path == 18:
        path = draw(st.sampled_from(UNKNOWN_PATHS))
    elif other_path == 19:
        path = "/" + draw(st.text(string.ascii_letters + "0123456789/-_.~%", max_size=12))
    other_method = draw(st.integers(0, 19))
    if other_method in (17, 18):
        method = draw(st.sampled_from(METHODS))
    elif other_method == 19:
        method = draw(st.text(string.ascii_uppercase, min_size=1, max_size=7))
    query = urlencode(draw(st.dictionaries(
        st.one_of(st.sampled_from(QUERY_KEYS), st.text(string.ascii_lowercase, max_size=4)),
        st.one_of(
            st.integers(-3, 100).map(str), st.sampled_from(QUERY_WORDS), st.text(max_size=6)
        ),
        max_size=3,
    )))
    body = None
    if method != "GET" or draw(st.booleans()):
        body = draw(bodies(world, target, path))
    return Request(target, method, path, query, body)


# ----------------------------------------------------------------------
# Live servers
@contextmanager
def serving(facades: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """Each facade on its own live server, shut down on exit."""
    factories = {"service": create_server, "fleet": create_fleet_server}
    with ExitStack() as stack:
        servers = {}
        for name, facade in facades.items():
            server = factories[name](facade, port=0)
            thread = threading.Thread(
                target=server.serve_forever, args=(0.002,), daemon=True
            )
            thread.start()

            def stop(server: Any = server, thread: threading.Thread = thread) -> None:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

            stack.callback(stop)
            servers[name] = server
        yield servers


def send(server: Any, request: Request) -> tuple[int, dict[str, str], bytes]:
    port = server.server_address[1]
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        target = request.path + ("?" + request.query if request.query else "")
        connection.request(request.method, target, body=request.body)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def snapshot(facade: Any) -> tuple[Any, ...]:
    """Every engine's checkpoint payload, plus the audit-trail length."""
    if isinstance(facade, DetectionService):
        engines = [facade.engine]
        audit = facade.engine.pipeline.audit.total_records
    else:
        engines = [facade.fleet.engine_of(cid) for cid in facade.fleet.community_ids]
        audit = None
    payloads = tuple(json.dumps(checkpoint_payload(e), sort_keys=True) for e in engines)
    return payloads, audit


def views(servers: dict[str, Any]) -> dict[tuple[str, str], bytes]:
    out = {}
    for target, server in servers.items():
        for path in ("/status", "/detections", "/scoreboard"):
            status, _, body = send(server, Request(target, "GET", path, "", None))
            assert status == 200, (target, path, body)
            out[target, path] = body
    return out


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_no_request_gets_a_5xx_or_half_applies(world: World, data: Any) -> None:
    plan = data.draw(st.lists(requests(world), min_size=1, max_size=8), label="plan")
    facades = world.facades()
    accepted: list[Request] = []
    with serving(facades) as servers:
        for request in plan:
            facade = facades[request.target]
            before = snapshot(facade)
            status, headers, body = send(servers[request.target], request)
            assert status < 500, (request, body)
            if 200 <= status < 300:
                accepted.append(request)
                continue
            assert headers["Content-Type"] == "application/json", (request, body)
            if request.method != "HEAD":
                payload = json.loads(body)
                assert set(payload) == {"error", "code", "status"}, (request, payload)
                assert payload["status"] == status, (request, payload)
            assert snapshot(facade) == before, (request, body)
        seen = views(servers)
    with serving(world.facades()) as servers:
        for request in accepted:
            status, _, body = send(servers[request.target], request)
            assert 200 <= status < 300, (request, body)
        assert views(servers) == seen
