"""Wire-protocol framing, validation, and addressing."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    MAX_LINE_BYTES,
    PlanRequest,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_address,
    resolve_scenario,
    scenario_names,
)


class TestFraming:
    def test_encode_round_trip(self):
        line = encode_message({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert decode_message(line) == {"op": "ping", "id": 7}

    def test_encode_is_strict_json(self):
        line = encode_message({"x": float("nan")})
        assert b"NaN" not in line
        assert decode_message(line) == {"x": None}

    def test_decode_rejects_nan_token(self):
        with pytest.raises(ProtocolError) as info:
            decode_message(b'{"deadline_s": NaN}\n')
        assert info.value.code == "bad_request"

    def test_decode_rejects_non_object(self):
        for bad in (b"[1, 2]\n", b'"hello"\n', b"3\n"):
            with pytest.raises(ProtocolError) as info:
                decode_message(bad)
            assert info.value.code == "bad_request"

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe\n")

    def test_decode_rejects_oversized_line(self):
        line = b'{"pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError) as info:
            decode_message(line)
        assert info.value.code == "bad_request"

    def test_response_builders(self):
        ok = ok_response(3, {"pong": True})
        assert ok == {"id": 3, "ok": True, "result": {"pong": True}}
        err = error_response(3, "overloaded", "busy")
        assert err["ok"] is False
        assert err["error"]["code"] == "overloaded"
        # unknown codes degrade to "internal" rather than leaking out
        assert error_response(None, "nope", "x")["error"]["code"] == "internal"

    def test_bad_error_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("not-a-code", "boom")


class TestPlanRequest:
    def test_defaults(self):
        req = PlanRequest.from_payload({"op": "plan", "scenario": "scenario1"})
        assert req.policy == "proposed"
        assert req.n_periods == 2
        assert req.supply_factor == 1.0
        assert req.deadline_s is None

    def test_missing_scenario(self):
        with pytest.raises(ProtocolError) as info:
            PlanRequest.from_payload({"op": "plan"})
        assert info.value.code == "bad_request"

    def test_unknown_scenario(self):
        with pytest.raises(ProtocolError) as info:
            PlanRequest.from_payload({"scenario": "atlantis"})
        assert info.value.code == "unknown_scenario"

    def test_unknown_policy(self):
        with pytest.raises(ProtocolError) as info:
            PlanRequest.from_payload({"scenario": "scenario1", "policy": "magic"})
        assert info.value.code == "unknown_policy"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_periods", 0),
            ("n_periods", "two"),
            ("n_periods", True),
            ("supply_factor", 0.0),
            ("supply_factor", -1.0),
            ("deadline_s", 0.0),
            ("deadline_s", "soon"),
        ],
    )
    def test_field_validation(self, field, value):
        payload = {"scenario": "scenario1", field: value}
        with pytest.raises(ProtocolError) as info:
            PlanRequest.from_payload(payload)
        assert info.value.code == "bad_request"

    @pytest.mark.parametrize("factor", [1e308, 1.7976931348623157e308])
    def test_supply_factor_overflowing_the_supply_is_bad_request(self, factor):
        """A factor that passes ``> 0`` but scales the charging power to inf
        is rejected here, not by the planner as an internal error."""
        payload = {"op": "plan", "scenario": "scenario1", "supply_factor": factor}
        with pytest.raises(ProtocolError) as info:
            PlanRequest.from_payload(payload)
        assert info.value.code == "bad_request"
        assert "supply_factor" in str(info.value)

    def test_large_factor_with_finite_supply_is_accepted(self):
        peak = float(resolve_scenario("scenario1").charging.values.max())
        factor = 1e308 / peak
        req = PlanRequest.from_payload({"scenario": "scenario1", "supply_factor": factor})
        assert req.supply_factor == factor

    def test_int_widens_to_float(self):
        req = PlanRequest.from_payload({"scenario": "scenario1", "supply_factor": 2})
        assert req.supply_factor == 2.0

    def test_digest_stable_and_deadline_free(self):
        a = PlanRequest("scenario1", "proposed", 2, 1.0, None)
        b = PlanRequest("scenario1", "proposed", 2, 1.0, 0.25)
        c = PlanRequest("scenario1", "proposed", 3, 1.0, None)
        assert a.digest() == b.digest()  # deadline shapes serving, not the plan
        assert a.digest() != c.digest()
        assert len(a.digest()) == 64
        assert json.loads(json.dumps(a.canonical())) == a.canonical()

    def test_to_cell_spec_matches_cli_path(self):
        req = PlanRequest.from_payload({"scenario": "scenario1"})
        spec = req.to_cell_spec()
        assert spec.knob is None  # unit supply factor → plain cell, as the CLI builds
        assert spec.supply_factor == 1.0
        scaled = PlanRequest.from_payload(
            {"scenario": "scenario1", "supply_factor": 0.9}
        ).to_cell_spec()
        assert scaled.knob == 0.9


class TestScenarioRegistry:
    def test_paper_scenarios_present(self):
        names = scenario_names()
        assert "scenario1" in names
        assert "scenario2" in names

    def test_resolve(self):
        sc = resolve_scenario("scenario1")
        assert sc.name == "scenario1"
        with pytest.raises(ProtocolError):
            resolve_scenario("nope")


class TestParseAddress:
    @pytest.mark.parametrize(
        "address,expected",
        [
            ("unix:/tmp/a.sock", ("unix", "/tmp/a.sock")),
            ("unix:rel.sock", ("unix", "rel.sock")),
            ("/tmp/b.sock", ("unix", "/tmp/b.sock")),
            ("plan.sock", ("unix", "plan.sock")),
            ("tcp:127.0.0.1:9000", ("tcp", "127.0.0.1", 9000)),
            ("localhost:0", ("tcp", "localhost", 0)),
        ],
    )
    def test_accepted(self, address, expected):
        assert parse_address(address) == expected

    @pytest.mark.parametrize("address", ["unix:", "justaname", ":9000", "host:port"])
    def test_rejected(self, address):
        with pytest.raises(ValueError):
            parse_address(address)
