"""The shared HTTP front door of the service and the fleet aggregator.

Two contracts, pinned against both servers:

- a rejected request changes nothing — a price update the day's
  detector cannot bind, a day beyond the world's days, or an envelope
  with one unacceptable entry, is refused before any gap is emitted or
  any community is bound;
- every non-2xx answer is the JSON taxonomy ``{"error", "code",
  "status"}`` — for unsupported methods (405/404), for ``http.server``'s
  own framing errors and for bodies the handler cannot frame or parse —
  exercised over raw sockets with a timeout, so a handler that blocks
  fails instead of hanging.
"""

import json
import socket
import threading

import pytest

from repro.fleet.aggregator import FleetAggregator, create_fleet_server
from repro.fleet.engine import build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.service.app import DetectionService, ServiceError, create_server
from repro.service.http import MAX_BODY_BYTES
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import checkpoint_payload
from repro.stream.events import event_to_dict
from repro.stream.pipeline import build_replay_engine, build_synthetic_engine


@pytest.fixture(scope="module")
def cache() -> GameSolutionCache:
    return GameSolutionCache()


def _state(engine) -> str:
    return json.dumps(checkpoint_payload(engine), sort_keys=True)


class TestRejectedRequestChangesNothing:
    @pytest.mark.parametrize(
        "prices, message",
        [([0.1, 0.2, 0.3], r"shape \(24,\)"), ([float("nan")] * 24, "finite")],
    )
    def test_update_the_day_cannot_bind_emits_no_gaps(
        self, fleet_config, cache, prices, message
    ):
        engine = build_synthetic_engine(fleet_config, n_days=2, cache=cache)
        service = DetectionService(engine)
        service.advance(max_events=5)  # day 0 bound, four slots settled
        assert len(engine.timeline) == 4
        before = _state(engine)
        records = engine.pipeline.audit.total_records
        update = {"type": "price_update", "day": 1, "clean_prices": prices,
                  "predicted_prices": prices}
        with pytest.raises(ServiceError, match=message):
            service.push_event(update)
        assert len(engine.timeline) == 4
        assert _state(engine) == before
        assert engine.pipeline.audit.total_records == records

    def test_update_outside_the_replay_range_emits_no_gaps(self, fleet_config, cache):
        engine = build_replay_engine(
            fleet_config, n_slots=48, calibration_trials=5, cache=cache
        )
        service = DetectionService(engine)
        service.advance(max_events=3)
        assert len(engine.timeline) == 2
        before = _state(engine)
        prices = [0.1] * 24
        late = {"type": "price_update", "day": 99, "clean_prices": prices,
                "predicted_prices": prices}
        with pytest.raises(ServiceError, match=r"day 99 outside prebuilt range \[0, 2\)"):
            service.push_event(late)
        assert len(engine.timeline) == 2
        assert _state(engine) == before
        # The refused update left the stream intact: it drains as usual.
        service.advance()
        assert len(engine.timeline) == 48
        assert engine.pipeline.n_gaps == 0

    @pytest.mark.parametrize(
        "event",
        [
            {"type": "price_update", "day": 400, "clean_prices": [0.1] * 24,
             "predicted_prices": [0.1] * 24},
            {"type": "day_boundary", "day": 400},
        ],
    )
    def test_day_beyond_the_world_is_refused_over_http(self, fleet_config, cache, event):
        # Accepted, a day-400 update gap-filled 9,600 slots of a 2-day world.
        engine = build_synthetic_engine(fleet_config, n_days=2, cache=cache)
        service = DetectionService(engine)
        service.advance(max_events=3)
        before = _state(engine)
        records = engine.pipeline.audit.total_records
        status, error = _post(create_server(service, port=0), "/events", event)
        assert status == 400 and error["code"] == "bad_request"
        assert "day 400 outside configured days [0, 2)" in error["error"]
        assert _state(engine) == before
        assert engine.pipeline.audit.total_records == records
        assert len(engine.timeline) == 2

    def test_envelope_with_a_day_beyond_the_world_binds_nobody(self, fleet_config, cache):
        generator = LoadGenerator(fleet_config, n_communities=2, n_days=2, seed=5)
        fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
        update = next(iter(generator.envelopes()))["entries"][0]
        late = {"community": "c0001", "event": {**update["event"], "day": 400}}
        before = {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids}
        server = create_fleet_server(FleetAggregator(fleet), port=0)
        status, error = _post(server, "/envelope", {"entries": [update, late]})
        assert status == 400 and error["code"] == "bad_request"
        assert "entry 1: day 400 outside configured days [0, 2)" in error["error"]
        assert {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids} == before

    def test_reading_with_more_meters_than_monitored_is_a_gap(self, fleet_config, cache):
        # The monitor's POMDP counts 0..4 flags; twelve meters used to
        # reach it after the checks had drawn their noise, then raise.
        source = build_synthetic_engine(
            fleet_config, n_days=2, attack_days=(0, 1), cache=cache
        ).source
        update, reading = (event_to_dict(source.next_event()) for _ in range(2))
        assert any(reading["truth"])
        service = DetectionService(
            build_synthetic_engine(fleet_config, n_days=2, attack_days=(0, 1), cache=cache)
        )
        service.push_event(update)
        wide = {"type": "meter_reading", "slot": 0, "received": reading["received"] * 3}
        detection = service.push_event(wide)["detection"]
        assert detection["gap"] and detection["gap_reason"] == "corrupt"

    def test_infinite_integer_field_is_refused(self, fleet_config, cache):
        service = DetectionService(build_synthetic_engine(fleet_config, n_days=2, cache=cache))
        with pytest.raises(ServiceError, match="infinity"):
            service.push_event({"type": "day_boundary", "day": float("inf")})

    def test_envelope_with_an_unbound_reading_binds_nobody(self, fleet_config, cache):
        generator = LoadGenerator(fleet_config, n_communities=2, n_days=1, seed=5)
        fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
        aggregator = FleetAggregator(fleet)
        first, second = list(generator.envelopes())[:2]
        update = first["entries"][0]
        reading = next(e for e in second["entries"] if e["community"] == "c0001")
        assert update["community"] == "c0000"
        assert update["event"]["type"] == "price_update"
        assert reading["event"]["type"] == "meter_reading"
        before = {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids}
        with pytest.raises(ServiceError, match="no active day"):
            aggregator.ingest_envelope({"entries": [update, reading]})
        assert fleet.engine_of("c0000").pipeline.current_day is None
        assert {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids} == before

    def test_reading_bound_by_an_earlier_entry_is_accepted(self, fleet_config, cache):
        generator = LoadGenerator(fleet_config, n_communities=2, n_days=1, seed=5)
        fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
        first, second = list(generator.envelopes())[:2]
        entries = [e for e in first["entries"] + second["entries"]
                   if e["community"] == "c0001"]
        result = FleetAggregator(fleet).ingest_envelope({"entries": entries})
        assert result["accepted"] == 2
        assert result["results"][1]["detection"]["slot"] == 0


ABSURD = [1e300] * 24


class TestAbsurdPricesAreRefused:
    """Finite prices past ``PRICE_BOUND`` are refused before the day is
    bound; solved, Eqn. (2) overflows at these.  Numpy's overflow
    warnings are raised as errors, so a game solved at such a price
    fails the test."""

    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    def test_price_update_is_refused_over_http(self, fleet_config, cache):
        engine = build_synthetic_engine(fleet_config, n_days=2, cache=cache)
        service = DetectionService(engine)
        service.advance(max_events=5)  # day 0 bound, four slots settled
        before = _state(engine)
        records = engine.pipeline.audit.total_records
        update = {"type": "price_update", "day": 1, "clean_prices": ABSURD,
                  "predicted_prices": ABSURD}
        status, error = _post(create_server(service, port=0), "/events", update)
        assert status == 400 and error["code"] == "bad_request"
        assert "prices must be finite and at most 1e+06" in error["error"]
        assert _state(engine) == before
        assert engine.pipeline.audit.total_records == records
        assert len(engine.timeline) == 4

    def test_envelope_with_absurd_prices_binds_nobody(self, fleet_config, cache):
        generator = LoadGenerator(fleet_config, n_communities=2, n_days=2, seed=5)
        fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
        update = next(iter(generator.envelopes()))["entries"][0]
        absurd = {"community": "c0001", "event": {
            **update["event"], "clean_prices": ABSURD, "predicted_prices": ABSURD}}
        before = {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids}
        server = create_fleet_server(FleetAggregator(fleet), port=0)
        status, error = _post(server, "/envelope", {"entries": [update, absurd]})
        assert status == 400 and error["code"] == "bad_request"
        assert "entry 1: price_update prices must be finite" in error["error"]
        assert {cid: _state(fleet.engine_of(cid)) for cid in fleet.community_ids} == before

    @pytest.mark.parametrize(
        "field, price",
        [("received", 1e300), ("actual", 1e300), ("actual", float("nan"))],
    )
    def test_reading_with_absurd_prices_is_a_corrupt_gap(
        self, fleet_config, cache, field, price
    ):
        # ``actual`` carries the prices the homes responded to; unchecked,
        # a NaN there failed the reading midway, after the state changed.
        source = build_synthetic_engine(fleet_config, n_days=2, cache=cache).source
        update, reading = (event_to_dict(source.next_event()) for _ in range(2))
        service = DetectionService(build_synthetic_engine(fleet_config, n_days=2, cache=cache))
        service.push_event(update)
        rows = [[price] * 24] * len(reading["received"])
        event = {"type": "meter_reading", "slot": 0, "received": reading["received"],
                 "truth": [True] * len(rows), field: rows}
        detection = service.push_event(event)["detection"]
        assert detection["gap"] and detection["gap_reason"] == "corrupt"


# ----------------------------------------------------------------------
# Raw-socket taxonomy checks, against both servers.
@pytest.fixture(scope="module", params=["service", "fleet"])
def port(request, fleet_config, cache):
    if request.param == "service":
        engine = build_synthetic_engine(fleet_config, n_days=2, cache=cache)
        server = create_server(DetectionService(engine), port=0)
    else:
        generator = LoadGenerator(fleet_config, n_communities=2, n_days=2, seed=5)
        fleet = build_fleet(generator.specs(), n_shards=2, cache=cache)
        server = create_fleet_server(FleetAggregator(fleet), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _exchange(port: int, request: bytes) -> tuple[int, dict[str, str], bytes]:
    """Send raw bytes, read until the server closes (5 s timeout)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/"), head
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


def _post(server, path: str, payload: dict) -> tuple[int, dict]:
    """POST ``payload`` to a server started for this one request."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    body = json.dumps(payload).encode()
    try:
        status, headers, reply = _exchange(
            server.server_address[1],
            f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return status, _taxonomy(status, headers, reply)


def _taxonomy(status: int, headers: dict[str, str], body: bytes) -> dict:
    assert headers["content-type"] == "application/json"
    payload = json.loads(body)
    assert set(payload) == {"error", "code", "status"}
    assert payload["status"] == status
    assert isinstance(payload["error"], str) and payload["error"]
    return payload


class TestErrorTaxonomy:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS", "BREW"])
    def test_unsupported_method_on_a_route_is_405(self, port, method):
        status, headers, body = _exchange(
            port, f"{method} /status HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        assert status == 405
        assert headers["allow"] == "GET"
        assert _taxonomy(status, headers, body)["code"] == "method_not_allowed"

    def test_get_on_a_post_route_is_405(self, port):
        status, headers, body = _exchange(
            port, b"GET /checkpoint HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 405
        assert headers["allow"] == "POST"
        assert _taxonomy(status, headers, body)["code"] == "method_not_allowed"

    @pytest.mark.parametrize("method", ["PUT", "BREW"])
    def test_unsupported_method_elsewhere_is_404(self, port, method):
        status, headers, body = _exchange(
            port, f"{method} /nope HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        assert status == 404
        assert _taxonomy(status, headers, body)["code"] == "not_found"

    def test_head_is_405_without_a_body(self, port):
        status, headers, body = _exchange(
            port, b"HEAD /status HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 405
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) > 0
        assert body == b""

    @pytest.mark.parametrize(
        "request_line",
        [
            b"GARBAGE",
            b"GET /status HTTP/one.one",
            b"GET /status HTTP/2.0",
            b"GET /status HTTP/1.1 EXTRA",
            b"POST /status",
        ],
    )
    def test_framing_errors_are_json_4xx(self, port, request_line):
        status, headers, body = _exchange(port, request_line + b"\r\n\r\n")
        assert 400 <= status < 500
        assert _taxonomy(status, headers, body)["code"] == "bad_request"

    def test_oversized_header_is_json_431(self, port):
        request = b"GET /status HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n"
        status, headers, body = _exchange(port, request)
        assert status == 431
        assert _taxonomy(status, headers, body)["code"] == "bad_request"

    @pytest.mark.parametrize("path", ["/checkpoint", "/advance", "/nope"])
    def test_negative_content_length_is_400_unread(self, port, path):
        # The body is never sent in full and the socket stays open: a
        # handler that tried to read it would block until the timeout.
        status, headers, body = _exchange(
            port,
            f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n{{".encode(),
        )
        assert status == 400
        payload = _taxonomy(status, headers, body)
        assert payload["code"] == "bad_request"
        assert "Content-Length" in payload["error"]

    def test_oversized_content_length_is_400_unread(self, port):
        status, headers, body = _exchange(
            port,
            f"POST /advance HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n{{".encode(),
        )
        assert status == 400
        assert "Content-Length" in _taxonomy(status, headers, body)["error"]

    def test_unparsable_request_target_is_400(self, port):
        status, headers, body = _exchange(
            port, b"GET http://[::1/status HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 400
        assert "request target" in _taxonomy(status, headers, body)["error"]

    def test_chunked_body_is_400_unapplied(self, port):
        # Read as an empty body, this would advance the engine to the end.
        body = b'{"until_day": 0}'
        status, headers, reply = _exchange(
            port,
            b"POST /advance HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n",
        )
        assert status == 400
        assert "Transfer-Encoding" in _taxonomy(status, headers, reply)["error"]

    def test_invalid_utf8_body_is_400(self, port):
        body = b'{"until_day": "\xff\xfe"}'
        status, headers, reply = _exchange(
            port,
            b"POST /advance HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert status == 400
        assert "not valid JSON" in _taxonomy(status, headers, reply)["error"]

    def test_deeply_nested_body_is_400(self, port):
        body = b"[" * 100_000
        status, headers, reply = _exchange(
            port,
            b"POST /advance HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert status == 400
        assert "not valid JSON" in _taxonomy(status, headers, reply)["error"]
