"""Submission validation: every diagnostic the 400 body can carry."""

import json

import pytest

from repro.faultsim.options import DEFAULT_LANES
from repro.service.schemas import (
    CampaignRequest,
    SchemaError,
    parse_campaign_request,
)


def issues_of(raw) -> dict[str, str]:
    """field -> message for one failing parse."""
    with pytest.raises(SchemaError) as excinfo:
        parse_campaign_request(raw)
    return {i.field: i.message for i in excinfo.value.issues}


class TestAcceptedForms:
    def test_empty_object_is_all_defaults(self):
        request = parse_campaign_request({})
        assert request == CampaignRequest()
        assert request.phases == "A"
        assert request.components is None
        assert request.lanes == DEFAULT_LANES

    def test_bytes_str_and_dict_bodies(self):
        body = {"phases": "AB", "components": ["GL"]}
        from_dict = parse_campaign_request(body)
        from_str = parse_campaign_request(json.dumps(body))
        from_bytes = parse_campaign_request(json.dumps(body).encode())
        assert from_dict == from_str == from_bytes
        assert from_dict.phases == "AB"

    def test_components_comma_string_form(self):
        # Mirrors the CLI's --components GL,PLN.
        request = parse_campaign_request({"components": "GL,PLN"})
        assert request.components == ("GL", "PLN")

    def test_components_deduped_keeping_order(self):
        request = parse_campaign_request(
            {"components": ["PLN", "GL", "PLN"]}
        )
        assert request.components == ("PLN", "GL")

    def test_prune_untestable_string_modes(self):
        for mode in (False, "proven"):
            request = parse_campaign_request({"prune_untestable": mode})
            assert request.prune_untestable == mode

    def test_round_trips_through_to_json(self):
        body = {"phases": "ABC", "components": ["ALU"], "jobs": 4,
                "tenant": "ci", "priority": -3, "cache": False}
        request = parse_campaign_request(body)
        assert parse_campaign_request(request.to_json()) == request


class TestBodyShape:
    def test_invalid_json(self):
        issues = issues_of(b"{not json")
        assert "$body" in issues
        assert "invalid JSON" in issues["$body"]

    def test_non_object_body(self):
        issues = issues_of(b"[1, 2]")
        assert "expected a JSON object, got list" in issues["$body"]

    def test_unknown_field(self):
        issues = issues_of({"componets": ["GL"]})  # the motivating typo
        assert issues["componets"] == "unknown field"


class TestFieldDiagnostics:
    def test_unknown_phases(self):
        issues = issues_of({"phases": "ABCD"})
        assert "unknown phase configuration 'ABCD'" in issues["phases"]

    def test_unknown_component_lists_inventory(self):
        issues = issues_of({"components": ["GL", "NOPE"]})
        assert "'NOPE'" in issues["components"]
        assert "GL" in issues["components"]  # the valid choices are shown

    def test_empty_component_list(self):
        issues = issues_of({"components": []})
        assert "at least one component" in issues["components"]

    def test_components_wrong_type(self):
        issues = issues_of({"components": [1, 2]})
        assert "expected a list of strings" in issues["components"]

    def test_jobs_out_of_range(self):
        assert "must be within [1, 64]" in issues_of({"jobs": 0})["jobs"]
        assert "must be within [1, 64]" in issues_of({"jobs": 65})["jobs"]

    def test_priority_out_of_range(self):
        issues = issues_of({"priority": 101})
        assert "must be within [-100, 100]" in issues["priority"]

    def test_tenant_bounds(self):
        assert "1-64 characters" in issues_of({"tenant": ""})["tenant"]
        assert "1-64 characters" in issues_of({"tenant": "x" * 65})["tenant"]

    def test_bool_rejected_in_int_field(self):
        # bool is an int subclass; the checker must not let it through.
        issues = issues_of({"jobs": True})
        assert "got a boolean" in issues["jobs"]

    def test_int_rejected_in_bool_field(self):
        issues = issues_of({"collapse": 1})
        assert "expected a boolean" in issues["collapse"]

    def test_bad_prune_mode(self):
        issues = issues_of({"prune_untestable": "aggressive"})
        assert "false or 'proven'" in issues["prune_untestable"]

    @pytest.mark.parametrize("mode", (True, "structural"))
    def test_removed_skip_mode_rejected(self, mode):
        # Not reinterpreted as "proven": that would move the caller's
        # FC denominators without a word.
        issues = issues_of({"prune_untestable": mode})
        assert set(issues) == {"prune_untestable"}
        assert repr(mode) in issues["prune_untestable"]

    def test_engine_validated_by_grade_options(self):
        # Engine names are GradeOptions' rule, surfaced as $options.
        issues = issues_of({"engine": "warp-drive"})
        assert "$options" in issues

    def test_all_issues_collected_in_one_round_trip(self):
        issues = issues_of({
            "phases": "Z",
            "jobs": 0,
            "tenant": "",
            "bogus": 1,
        })
        assert set(issues) == {"phases", "jobs", "tenant", "bogus"}


class TestToOptions:
    def test_cache_handed_through_when_requested(self):
        sentinel = object()
        options = parse_campaign_request({}).to_options(cache=sentinel)
        assert options.cache is sentinel

    def test_cache_false_disables_store(self):
        request = parse_campaign_request({"cache": False})
        assert request.to_options(cache=object()).cache is None

    def test_verdict_knobs_lowered(self):
        request = parse_campaign_request({
            "engine": "packed", "lanes": 2, "collapse": False,
            "prune_untestable": "proven",
        })
        options = request.to_options()
        assert options.engine == "packed"
        assert options.lanes == 2
        assert options.collapse is False
        assert options.prune_untestable == "proven"

    def test_fingerprint_ignores_service_local_fields(self):
        # tenant/priority/jobs must not change the idempotency inputs.
        a = parse_campaign_request({"tenant": "a", "priority": 5, "jobs": 2})
        b = parse_campaign_request({"tenant": "b", "priority": -5, "jobs": 4})
        assert a.to_options().fingerprint() == b.to_options().fingerprint()
