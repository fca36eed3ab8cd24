"""Request-validation tests: malformed input yields structured 4xx JSON.

The wire contract under test: every client error is a JSON body
``{"error": ..., "code": ..., "status": ...}`` with a matching 4xx
status code — never a bare 500 — and the fault endpoints validate their
payloads the same way.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    SolarConfig,
    TimeGrid,
)
from repro.service.app import DetectionService, create_server
from repro.simulation.cache import GameSolutionCache
from repro.stream.pipeline import build_synthetic_engine


@pytest.fixture(scope="module")
def tiny_config() -> CommunityConfig:
    return CommunityConfig(
        n_customers=6,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=12, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        game=GameConfig(
            max_rounds=2,
            inner_iterations=1,
            ce_samples=8,
            ce_elites=2,
            ce_iterations=2,
            convergence_tol=0.1,
        ),
        detection=DetectionConfig(n_monitored_meters=4, hack_probability=0.15),
        seed=11,
    )


@pytest.fixture(scope="module")
def cache() -> GameSolutionCache:
    return GameSolutionCache()


@pytest.fixture()
def service_url(tiny_config, cache, tmp_path):
    """A live server on an ephemeral port, torn down after the test."""
    engine = build_synthetic_engine(
        tiny_config, n_days=2, attack_days=(0, 1), cache=cache
    )
    service = DetectionService(engine, checkpoint_path=tmp_path / "service.json")
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _post(base: str, path: str, body: dict | None = None) -> dict:
    return _post_raw(base, path, json.dumps(body or {}).encode("utf-8"))


def _post_raw(base: str, path: str, data: bytes) -> dict:
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _error_body(excinfo) -> dict:
    """Decode the structured JSON error body off an HTTPError."""
    body = json.loads(excinfo.value.read())
    assert body["status"] == excinfo.value.code
    assert isinstance(body["error"], str) and body["error"]
    assert isinstance(body["code"], str)
    return body


class TestAdvanceValidation:
    def test_unknown_field_is_structured_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/advance", {"max_events": 5, "speed": "ludicrous"})
        assert excinfo.value.code == 400
        body = _error_body(excinfo)
        assert body["code"] == "bad_request"
        assert "speed" in body["error"]

    @pytest.mark.parametrize("bad", [True, "3", 1.5, [3], {"n": 3}])
    def test_non_integer_max_events_is_400(self, service_url, bad):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/advance", {"max_events": bad})
        assert excinfo.value.code == 400
        assert "max_events" in _error_body(excinfo)["error"]

    def test_negative_until_day_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/advance", {"until_day": -1})
        assert excinfo.value.code == 400
        assert "until_day" in _error_body(excinfo)["error"]

    def test_integral_float_is_accepted(self, service_url):
        base, _ = service_url
        summary = _post(base, "/advance", {"max_events": 4.0})
        assert summary["events_pumped"] == 4

    def test_invalid_json_body_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(base, "/advance", b"{max_events: 5}")
        assert excinfo.value.code == 400
        assert "JSON" in _error_body(excinfo)["error"]

    def test_non_object_json_body_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(base, "/advance", b"[1, 2, 3]")
        assert excinfo.value.code == 400
        assert "JSON object" in _error_body(excinfo)["error"]


class TestCheckpointValidation:
    def test_non_empty_body_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/checkpoint", {"path": "/tmp/elsewhere.json"})
        assert excinfo.value.code == 400
        assert "path" in _error_body(excinfo)["error"]

    def test_empty_body_still_checkpoints(self, service_url):
        base, _ = service_url
        _post(base, "/advance", {"max_events": 5})
        saved = _post(base, "/checkpoint")
        assert saved["events_processed"] == 5


class TestNotFound:
    def test_unknown_get_route_is_structured_404(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/nope")
        assert excinfo.value.code == 404
        body = _error_body(excinfo)
        assert body["code"] == "not_found"
        assert "/nope" in body["error"]

    def test_unknown_post_route_is_structured_404(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/events/bulk", {})
        assert excinfo.value.code == 404
        assert _error_body(excinfo)["code"] == "not_found"


class TestFaultEndpoints:
    def test_faults_inactive_by_default(self, service_url):
        base, _ = service_url
        assert _get(base, "/faults") == {"active": False, "plan": None, "counts": {}}

    def test_install_builtin_plan_and_observe_counts(self, service_url):
        base, service = service_url
        installed = _post(base, "/faults", {"plan": "chaos", "seed": 9})
        assert installed["active"]
        assert installed["plan"]["seed"] == 9
        _post(base, "/advance", {})
        report = _get(base, "/faults")
        assert report["active"]
        assert report["plan"] == installed["plan"]
        assert sum(report["counts"].values()) > 0
        assert service.engine.fault_injector is not None
        metrics = _get(base, "/metrics")
        assert metrics["faults"]  # stream.faults.* counters surfaced

    def test_install_plan_object(self, service_url):
        base, _ = service_url
        installed = _post(
            base, "/faults", {"plan": {"drop_prob": 0.2}, "seed": 4}
        )
        assert installed["plan"]["drop_prob"] == pytest.approx(0.2)
        assert installed["plan"]["seed"] == 4

    def test_unknown_field_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/faults", {"plan": "chaos", "dry_run": True})
        assert excinfo.value.code == 400
        assert "dry_run" in _error_body(excinfo)["error"]

    def test_missing_plan_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/faults", {"seed": 1})
        assert excinfo.value.code == 400
        assert "plan" in _error_body(excinfo)["error"]

    def test_unknown_builtin_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/faults", {"plan": "earthquake"})
        assert excinfo.value.code == 400
        assert "earthquake" in _error_body(excinfo)["error"]

    @pytest.mark.parametrize("bad", [[0.1], 7, True, None])
    def test_non_name_non_object_plan_is_400(self, service_url, bad):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/faults", {"plan": bad})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"plan": {"seed": 1e400}}',
            b'{"plan": {"max_stall": 1e400}}',
            b'{"plan": {"stall_prob": 1' + b"0" * 400 + b"}}",
            b'{"plan": {"seed": true}}',
            b'{"plan": {"max_delay": 2.7}}',
            b'{"plan": {"max_stall": "3"}}',
            # Accepted at install once, then a 500 on the first stalled poll.
            b'{"plan": {"stall_prob": 1.0, "max_stall": 18446744073709551616}}',
        ],
    )
    def test_overflowing_or_mistyped_plan_fields_are_400(self, service_url, raw):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(base, "/faults", raw)
        assert excinfo.value.code == 400
        field = json.loads(raw)["plan"].popitem()[0]
        assert field in _error_body(excinfo)["error"]

    def test_invalid_plan_object_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/faults", {"plan": {"drop_prob": 1.5}})
        assert excinfo.value.code == 400
        assert "drop_prob" in _error_body(excinfo)["error"]
