import json

import jsonschema
import pytest

from contraction_lab.cli import main, run_command
from contraction_lab.contraction import TAGS
from contraction_lab.schemas import (
    KIND_SCHEMA,
    MAP_SCHEMA,
    PHI_SCHEMA,
    RESULT_SCHEMA,
    SPACE_SCHEMA,
)

ADDITIVE = '{"kind":"additive"}'
MAX = '{"kind":"max"}'
PARTIAL_33 = '{"tag":"partial","alpha":0.3,"beta":0.3}'


@pytest.fixture
def stretched_file(tmp_path):
    path = tmp_path / "stretched.json"
    path.write_text(json.dumps({
        "labels": ["x", "y", "z"],
        "dist": [[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]],
    }))
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "labels": ["a", "b", "c"],
        "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    }))
    return str(path)


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"lo": 0.0, "hi": 1.0, "dist": "abs(x-y)"}))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_metric_passes(self, capsys, line_file):
        code, out, err = run_main(capsys, ["validate", "--space", line_file,
                                           "--phi", ADDITIVE])
        assert code == 0 and err == ""
        envelope = json.loads(out)
        jsonschema.validate(envelope, RESULT_SCHEMA)
        assert envelope["status"] == "ok"
        payload = envelope["payload"]
        assert payload["triangle"]["passed"]
        assert payload["phi_axioms"]["passed"]
        assert payload["minimal_b"] == 1.0

    def test_triangle_violation_reported(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, ["validate", "--space", stretched_file,
                                         "--phi", ADDITIVE])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "violation"
        triangle = envelope["payload"]["triangle"]
        assert triangle["violation_count"] == 2
        assert triangle["violations"][0] == {
            "x": "y", "y": "z", "z": "x", "lhs": 3.0, "rhs": 2.0,
        }
        assert envelope["payload"]["minimal_b"] == 1.5

    def test_same_space_passes_under_wider_phi(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, ["validate", "--space", stretched_file,
                                         "--phi", '{"kind":"power","q":0.5}'])
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_interval_space(self, capsys, unit_file):
        code, out, _ = run_main(capsys, ["validate", "--space", unit_file,
                                         "--phi", ADDITIVE])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["triangle"]["passed"]
        assert payload["minimal_b"] is None  # finite spaces only


class TestClassify:
    def test_applicable_contraction(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, [
            "classify", "--space", stretched_file, "--map", '{"images":[0,0,0]}',
            "--kind", PARTIAL_33, "--phi", ADDITIVE,
        ])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["certificate"]["passed"]
        assert payload["applicability"]["applicable"]
        assert payload["step_factor"]["value"] == 0.6

    def test_failed_certificate_is_violation(self, capsys, line_file):
        code, out, _ = run_main(capsys, [
            "classify", "--space", line_file, "--map", '{"images":[1,0,1]}',
            "--kind", '{"tag":"bianchini","beta":0.9}', "--phi", MAX,
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "violation"
        assert not envelope["payload"]["certificate"]["passed"]
        assert envelope["payload"]["certificate"]["witness"] is not None

    def test_constant_interval_map(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "classify", "--space", unit_file, "--map", '{"expr":"0.3"}',
            "--kind", PARTIAL_33, "--phi", ADDITIVE,
        ])
        assert code == 0
        envelope = json.loads(out)
        jsonschema.validate(envelope, RESULT_SCHEMA)
        assert envelope["status"] == "ok"
        assert envelope["payload"]["certificate"]["scope"] == "sampled"

    def test_huge_constant_classifies_without_warning(self, capsys, line_file):
        code, out, err = run_main(capsys, [
            "classify", "--space", line_file, "--map", '{"images":[1,2,0]}',
            "--kind", '{"tag":"weak","alpha":0.1,"delta":1e308}', "--phi", ADDITIVE,
        ])
        assert code == 1 and err == ""
        assert json.loads(out)["status"] == "violation"

    def test_tiny_power_chain_constant_is_not_applicable(self, capsys, line_file):
        # C(0.6) for q = 0.001 lies beyond the float64 range
        code, out, err = run_main(capsys, [
            "classify", "--space", line_file, "--map", '{"images":[0,0,0]}',
            "--kind", PARTIAL_33, "--phi", '{"kind":"power","q":0.001}',
        ])
        assert code == 1 and err == ""
        envelope = json.loads(out)
        assert envelope["status"] == "not-applicable"
        assert envelope["payload"]["applicability"]["checklist"][2] == {
            "name": "chain_bound_finite", "passed": False, "certified": True,
            "detail": "C(0.6) = inf",
        }

    def test_blocked_principle_is_not_applicable(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, [
            "classify", "--space", stretched_file, "--map", '{"images":[0,0,0]}',
            "--kind", PARTIAL_33, "--phi", '{"kind":"bscaled","K":2.0}',
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "not-applicable"
        assert envelope["payload"]["certificate"]["passed"]
        assert not envelope["payload"]["applicability"]["applicable"]


class TestIterate:
    def test_convergent_orbit(self, capsys, unit_file):
        code, out, _ = run_main(capsys, ["iterate", "--space", unit_file,
                                         "--map", '{"expr":"x/2"}', "--x0", "1.0"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["stop_reason"] == "converged"
        assert payload["points"][0] == 1.0
        assert payload["rate_estimate"] == pytest.approx(0.5)

    def test_cycle_is_violation(self, capsys, unit_file):
        code, out, _ = run_main(capsys, ["iterate", "--space", unit_file,
                                         "--map", '{"expr":"1-x"}', "--x0", "0.25"])
        assert code == 1
        assert json.loads(out)["status"] == "violation"

    def test_max_iter_is_violation(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "iterate", "--space", unit_file, "--map", '{"expr":"x/2"}',
            "--x0", "1.0", "--max-iter", "3", "--tol", "1e-300",
        ])
        assert code == 1
        assert json.loads(out)["payload"]["stop_reason"] == "max_iter"

    def test_csv_output(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, [
            "iterate", "--space", stretched_file, "--map", '{"images":[0,0,0]}',
            "--x0", "y", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,x_n,step_dist"
        assert lines[1] == "0,y,1.0"
        assert lines[-1].endswith(",")


class TestBounds:
    def test_certified_bound(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "bounds", "--space", unit_file, "--map", '{"expr":"x/2"}',
            "--phi", ADDITIVE, "--kind", '{"tag":"partial","alpha":0.5,"beta":0.0}',
            "--x0", "1.0",
        ])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["certified"]
        assert payload["min_slack"] >= 0.0
        assert payload["stop_reason"] == "converged"
        assert payload["rows"]

    def test_csv_output(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "bounds", "--space", unit_file, "--map", '{"expr":"x/2"}',
            "--phi", ADDITIVE, "--kind", '{"tag":"partial","alpha":0.5,"beta":0.0}',
            "--x0", "1.0", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,x_n,step_dist,bound,observed,slack"
        # the audit runs against the orbit limit, so observed is d(x0, limit)
        first = lines[1].split(",")
        assert first[:4] == ["0", "1.0", "0.5", "1.0"]
        assert float(first[4]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[5]) == pytest.approx(0.0, abs=1e-9)

    def test_underivable_factor_not_applicable(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "bounds", "--space", unit_file, "--map", '{"expr":"x/2"}',
            "--phi", ADDITIVE, "--kind", '{"tag":"partial","alpha":0.6,"beta":0.5}',
            "--x0", "1.0",
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "not-applicable"
        assert "not below 1" in envelope["payload"]["reason"]

    def test_multiple_fixed_points_not_applicable(self, capsys, line_file):
        code, out, _ = run_main(capsys, [
            "bounds", "--space", line_file, "--map", '{"images":[0,1,1]}',
            "--phi", MAX, "--kind", '{"tag":"bianchini","beta":0.5}',
            "--x0", "c",
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "not-applicable"
        assert "exactly one" in envelope["payload"]["reason"]

    def test_infinite_chain_constant_not_applicable(self, capsys, unit_file):
        code, out, _ = run_main(capsys, [
            "bounds", "--space", unit_file, "--map", '{"expr":"x/2"}',
            "--phi", '{"kind":"bscaled","K":2.0}', "--kind", PARTIAL_33,
            "--x0", "1.0",
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "not-applicable"
        assert "not finite" in envelope["payload"]["reason"]

    def test_step_violation_reported(self, capsys, line_file):
        # the map is not actually a contraction of this kind; the audited
        # per-step inequality fails on the first step
        code, out, _ = run_main(capsys, [
            "bounds", "--space", line_file, "--map", '{"images":[0,0,1]}',
            "--phi", ADDITIVE, "--kind", '{"tag":"partial","alpha":0.5,"beta":0.0}',
            "--x0", "c",
        ])
        assert code == 1
        envelope = json.loads(out)
        assert envelope["status"] == "violation"
        assert not envelope["payload"]["steps_ok"]


class TestSearch:
    ARGS = ["search", "--phi", '{"kind":"bscaled","K":2.0}', "--kind", PARTIAL_33,
            "--budget", "40", "--seed", "5"]

    def test_finds_blocked_instances(self, capsys):
        code, out, _ = run_main(capsys, self.ARGS)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["examined"] == 40
        assert payload["findings"]
        assert payload["findings"][0]["failed_hypotheses"] == ["chain_bound_finite"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_main(capsys, self.ARGS)
        _, second, _ = run_main(capsys, self.ARGS)
        assert first == second

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTRACTION_LAB_SEED", "99")
        code, out, _ = run_main(capsys, self.ARGS)
        assert code == 0
        assert json.loads(out)["payload"]["seed"] == 99

    def test_zero_budget_is_an_error(self, capsys):
        code, out, err = run_main(capsys, ["search", "--phi", MAX,
                                           "--kind", '{"tag":"bianchini","beta":0.5}',
                                           "--budget", "0"])
        assert code == 2
        assert out == ""
        envelope = json.loads(err)
        assert envelope["status"] == "error"
        assert "budget" in envelope["payload"]["error"]


class TestErrorsAndUsage:
    def test_bad_phi_json_is_error(self, capsys, unit_file):
        code, out, err = run_main(capsys, ["validate", "--space", unit_file,
                                           "--phi", '{"kind":"nope"}'])
        assert code == 2 and out == ""
        envelope = json.loads(err)
        jsonschema.validate(envelope, RESULT_SCHEMA)
        assert envelope["status"] == "error"

    def test_missing_space_file_is_error(self, capsys):
        code, _, err = run_main(capsys, ["validate", "--space", "/no/such.json",
                                         "--phi", ADDITIVE])
        assert code == 2
        assert json.loads(err)["status"] == "error"

    def test_missing_required_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_csv_rejected_outside_tabular_commands(self, capsys, unit_file):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--space", unit_file, "--phi", ADDITIVE,
                  "--format", "csv"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_kind_and_map_exit_two(self, capsys, line_file):
        for map_json, kind_json in (
            ('{"images":[0,0,0]}', '{"tag":"partial","alpha":"x","beta":0.3}'),
            ('{"images":[0,0,0]}', '{"tag":"partial","alpha":true,"beta":0.3}'),
            ('{"images":5}', PARTIAL_33),
        ):
            code, out, err = run_main(capsys, ["classify", "--space", line_file,
                                               "--map", map_json, "--kind", kind_json,
                                               "--phi", ADDITIVE])
            assert code == 2 and out == "", kind_json
            envelope = json.loads(err)
            jsonschema.validate(envelope, RESULT_SCHEMA)
            assert envelope["status"] == "error"

    def test_unknown_start_label_is_error(self, capsys, stretched_file):
        code, _, err = run_main(capsys, ["iterate", "--space", stretched_file,
                                         "--map", '{"images":[0,0,0]}', "--x0", "w"])
        assert code == 2
        assert json.loads(err)["status"] == "error"


class TestSchemas:
    def test_phi_schema(self):
        for doc in ({"kind": "additive"}, {"kind": "max"},
                    {"kind": "bscaled", "K": 2.0}, {"kind": "power", "q": 0.5},
                    {"kind": "custom", "expr": "u+v"}):
            jsonschema.validate(doc, PHI_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"kind": "additive", "K": 2.0}, PHI_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"kind": "nope"}, PHI_SCHEMA)

    def test_space_schema(self):
        jsonschema.validate({"labels": ["a"], "dist": [[0.0]]}, SPACE_SCHEMA)
        jsonschema.validate({"lo": 0.0, "hi": 1.0, "dist": "abs(x-y)"}, SPACE_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"lo": 0.0}, SPACE_SCHEMA)

    def test_map_schema(self):
        jsonschema.validate({"images": [0, 1]}, MAP_SCHEMA)
        jsonschema.validate({"expr": "x/2"}, MAP_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"images": [0], "expr": "x"}, MAP_SCHEMA)

    def test_kind_schema(self):
        assert KIND_SCHEMA["properties"]["tag"]["enum"] == list(TAGS)
        jsonschema.validate({"tag": "partial", "alpha": 0.3, "beta": 0.4}, KIND_SCHEMA)
        jsonschema.validate({"tag": "bianchini", "beta": 0.5}, KIND_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"tag": "partial", "alpha": -0.1, "beta": 0.4}, KIND_SCHEMA)

    def test_every_command_envelope_matches_result_schema(self, capsys, unit_file):
        for argv in (
            ["validate", "--space", unit_file, "--phi", ADDITIVE],
            ["iterate", "--space", unit_file, "--map", '{"expr":"x/2"}', "--x0", "0.5"],
        ):
            _, out, _ = run_main(capsys, argv)
            jsonschema.validate(json.loads(out), RESULT_SCHEMA)


class TestRunCommand:
    def test_returns_structured_result(self, unit_file):
        result = run_command(["iterate", "--space", unit_file,
                              "--map", '{"expr":"x/2"}', "--x0", "1.0"])
        assert result.command == "iterate"
        assert result.status == "ok"
        assert result.payload["stop_reason"] == "converged"
