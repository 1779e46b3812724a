import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import sys

import jsonschema
import numpy as np
import pytest

from contraction_lab import trifun
from contraction_lab.cli import MAX_LISTED_VIOLATIONS, main, run_command
from contraction_lab.contraction import TAG_CONSTANTS, TAGS, SelfMap
from contraction_lab.space import FiniteSemimetricSpace, space_from_json
from contraction_lab.schemas import (
    KIND_SCHEMA,
    MAP_SCHEMA,
    PHI_SCHEMA,
    RESULT_SCHEMA,
    SPACE_SCHEMA,
)

from helpers import random_metric, random_semimetric, triangle_oracle

ADDITIVE = '{"kind":"additive"}'
# every power on numpy's fast paths (sqrt, square), whose rounding does not
# depend on the machine's SIMD loops
PIN_PHIS = ({"kind": "additive"}, {"kind": "max"}, {"kind": "bscaled", "K": 1.5},
            {"kind": "power", "q": 0.5}, {"kind": "power", "q": 2},
            {"kind": "custom", "expr": "u+v"})
# SHA-256 of the sorted-key validate envelopes under PIN_PHIS, in order
PINNED_REPLIES = {
    (random_semimetric, 13): "c1277fc8070f18f866195c37dec6a5419dfb19682de5b1aedf4accb927301599",
    (random_metric, 13): "e9d319c291ed326a11f34f9d8dfccd17d55f81a0c930be5f02c5ab86ae4d355b",
    (random_semimetric, 60): "7710e9241e8c0a79e2e31420214b08b2b9b757367505cb92e9bf4077c385d69b",
    (random_metric, 60): "d8282dd72b3170709ef68e13f9d42f64c7796bf779caaf6eb2d8e2e418aa45b7",
    (random_semimetric, 100): "b00512e34deccef3d7f7c88634b869594229e4f0cec8440b0caae3a78780f2e4",
    (random_metric, 100): "654186f2795fb76207880e8bfcffd45490315a88d87c5e7e09ef75bbf2ccceca",
}
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

    def test_count_is_exact_and_first_violations_are_listed(self, capsys, tmp_path):
        n = 12
        dist = np.triu(np.random.default_rng(5).random((n, n)), 1)
        dist = (dist + dist.T).tolist()
        path = tmp_path / "semi12.json"
        path.write_text(json.dumps({"labels": [f"p{i}" for i in range(n)], "dist": dist}))
        code, out, _ = run_main(capsys, ["validate", "--space", str(path), "--phi", ADDITIVE])
        found = triangle_oracle(itertools.product(range(n), repeat=3),
                                lambda i, j: dist[i][j], lambda u, v: u + v)
        triangle = json.loads(out)["payload"]["triangle"]
        assert code == 1 and len(found) > MAX_LISTED_VIOLATIONS
        assert triangle["violation_count"] == len(found)
        assert [(v["x"], v["y"], v["z"], v["lhs"], v["rhs"]) for v in triangle["violations"]] == [
            (f"p{x}", f"p{y}", f"p{z}", lhs, rhs)
            for x, y, z, lhs, rhs in found[:MAX_LISTED_VIOLATIONS]]

    def test_same_space_passes_under_wider_phi(self, capsys, stretched_file):
        code, out, _ = run_main(capsys, ["validate", "--space", stretched_file,
                                         "--phi", '{"kind":"power","q":0.5}'])
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_constant_interval_distance(self, capsys, tmp_path):
        path = tmp_path / "constant.json"
        path.write_text('{"lo": 0, "hi": 1, "dist": "0.5"}')
        code, out, _ = run_main(capsys, ["validate", "--space", str(path), "--phi", ADDITIVE])
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["payload"]["space"]["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["identity_zero_self"]
        assert checks["identity_zero_self"]["witness"] == [0.0, 0.5]

    @pytest.mark.parametrize(("make", "size"), list(PINNED_REPLIES),
                             ids=lambda value: getattr(value, "__name__", value))
    def test_replies_are_pinned(self, tmp_path, make, size):
        # digests recorded from the separate triangle and minimal-b kernels
        space = make(np.random.default_rng([size, int(make is random_metric)]), size)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space.to_json()))
        digest = hashlib.sha256()
        for phi in PIN_PHIS:
            reply = run_command(["validate", "--space", str(path), "--phi", json.dumps(phi)])
            digest.update(json.dumps(reply.to_json(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == PINNED_REPLIES[make, size]

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

    def test_power_rounding_to_one_has_no_chain_constant(self, capsys, line_file, unit_file):
        # alpha**q rounds to 1.0 at q = 1e-300 for any alpha > 0, and at q = 1e-15
        # for alpha = 0.999, so C(alpha) = 0.0**(-1/q) lies beyond float64
        cases = (('{"kind":"power","q":1e-300}', PARTIAL_33),
                 ('{"kind":"power","q":1e-15}', '{"tag":"weak_dual","alpha":0.999,"delta":0}'))
        commands = (["classify", "--space", unit_file, "--map", '{"expr":"x/2"}'],
                    ["bounds", "--space", unit_file, "--map", '{"expr":"x/2"}', "--x0", "1"],
                    ["bounds", "--space", line_file, "--map", '{"images":[0,0,1]}', "--x0", "c"],
                    ["search", "--budget", "3"])
        for phi, kind in cases:
            for argv in commands:
                code, out, err = run_main(capsys, [*argv, "--phi", phi, "--kind", kind])
                assert code in (0, 1) and err == "", (argv, phi)
                envelope = json.loads(out)
                if argv[0] == "classify":
                    check = envelope["payload"]["applicability"]["checklist"][2]
                    assert check["name"] == "chain_bound_finite" and not check["passed"]
                elif argv[0] == "bounds":
                    assert envelope["status"] == "not-applicable"
                    assert "is not finite" in envelope["payload"]["reason"]
                else:
                    assert envelope["status"] == "ok"

    def test_power_inverse_beyond_float64_powers(self, capsys, line_file):
        # tau = 1/beta = 1000 and tau**200 overflows, although the inverse is about 1000
        code, out, err = run_main(capsys, [
            "classify", "--space", line_file, "--map", '{"images":[0,0,0]}',
            "--kind", '{"tag":"chatterjea_bianchini","beta":0.001}',
            "--phi", '{"kind":"power","q":200}',
        ])
        assert code in (0, 1) and err == ""
        assert json.loads(out)["payload"]["step_factor"]["value"] == pytest.approx(1e-3)

    def test_custom_inverse_runs_once_per_request(self, monkeypatch, line_file):
        # a chatterjea_bianchini classify reads the unit-profile inverse at 1/beta
        # in its step factor, in its applicability's rate and in inverse_gap
        phi = trifun.custom("(sqrt(u)+sqrt(v))^2")
        calls, evaluate = [], trifun._eval

        def counted(phi, u, v):
            calls.append((u, v) if np.ndim(u) == np.ndim(v) == 0 else None)
            return evaluate(phi, u, v)

        monkeypatch.setattr(trifun, "_eval", counted)
        trifun._probed_inverse.cache_clear()
        trifun.unit_profile_inverse(phi, 1.0 / 0.4)
        inverse, calls[:] = list(calls), []
        trifun._probed_inverse.cache_clear()
        run_command(["classify", "--space", line_file, "--map", '{"images":[0,0,0]}',
                     "--kind", '{"tag":"chatterjea_bianchini","beta":0.4}',
                     "--phi", json.dumps(phi.to_json())])
        runs = sum(calls[i:i + len(inverse)] == inverse for i in range(len(calls)))
        assert len(inverse) > trifun.BISECTION_STEPS and runs == 1

    def test_map_is_validated_once_per_request(self, monkeypatch, stretched_file, unit_file):
        calls, validate = [], SelfMap.validate_for

        def counted(mapping, space):
            calls.append(space)
            return validate(mapping, space)

        monkeypatch.setattr(SelfMap, "validate_for", counted)
        for space, image in ((stretched_file, '{"images":[0,0,0]}'),
                             (unit_file, '{"expr":"0.3"}')):
            calls[:] = []
            result = run_command(["classify", "--space", space, "--map", image,
                                  "--kind", PARTIAL_33, "--phi", ADDITIVE])
            assert result.status == "ok" and len(calls) == 1

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

    @pytest.mark.parametrize("env", [None, "-1"])
    def test_negative_seed_is_an_error_naming_seed(self, capsys, monkeypatch, env):
        argv = self.ARGS[:-1] + ["-1" if env is None else "3"]
        if env is None:
            monkeypatch.delenv("CONTRACTION_LAB_SEED", raising=False)
        else:
            monkeypatch.setenv("CONTRACTION_LAB_SEED", env)
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        envelope = json.loads(err)
        assert envelope["status"] == "error"
        assert envelope["payload"]["error"] == (
            "ValueError: seed must be a non-negative integer, got -1")


# one setting per tag with a factor below 1, then one per way the step
# factor can fail or fall back: beta = 0, a secondary constant at 1, a
# factor above 1, and a unit-profile inverse at 1/beta that is not above 1
PIN_KINDS = ({"tag": "partial", "alpha": 0.3, "beta": 0.3},
             {"tag": "partial_dual", "alpha": 0.3, "beta": 0.4},
             {"tag": "weak", "alpha": 0.3, "delta": 0.2},
             {"tag": "weak_dual", "alpha": 0.4, "delta": 0.2},
             {"tag": "bianchini", "beta": 0.6},
             {"tag": "chatterjea_bianchini", "beta": 0.4},
             {"tag": "chatterjea_bianchini", "beta": 0.0},
             {"tag": "partial_dual", "alpha": 0.3, "beta": 1.0},
             {"tag": "weak", "alpha": 0.3, "delta": 1.0},
             {"tag": "bianchini", "beta": 1.3},
             {"tag": "chatterjea_bianchini", "beta": 0.9})
# SHA-256 of each command's exit codes and stdout, argv by argv
PINNED_COMMANDS = {
    "classify": "f9b9cc165df5e914e6cb628d64b5dfdd35a36feddc7ef395a96ba970270c3f77",
    "iterate": "76cd3b1bfbaa5f44f6748821160905c149ed8ae676728d6e50e4a2358777e982",
    "bounds": "a3e7eb648de8de70ceb21a208bfac9c560db002c515c36b15f67d5b1fd075f83",
    "search": "17083dc0147dd17c910fc9590ecde7bccef9721b74d019d5bb97300e9fb57b65",
}


class TestPinnedReplies:
    @pytest.fixture
    def spaces(self, tmp_path):
        """Two five-point spaces and the unit interval, each with three maps
        (one fixed point, constant, cycling) and its start points."""
        finite = ({"images": [0, 0, 1, 2, 3]}, {"images": [2, 2, 2, 2, 2]},
                  {"images": [1, 0, 1, 2, 3]})
        docs = [(random_metric(np.random.default_rng(5), 5).to_json(), finite, ["p4", "2"]),
                (random_semimetric(np.random.default_rng(6), 5).to_json(), finite, ["p3"]),
                ({"lo": 0, "hi": 1, "dist": "abs(x-y)"},
                 ({"expr": "x/2+0.25"}, {"expr": "0.5"}, {"expr": "1-x"}), ["0", "0.9"])]
        out = []
        for k, (doc, maps, starts) in enumerate(docs):
            path = tmp_path / f"space{k}.json"
            path.write_text(json.dumps(doc))
            out.append((str(path), [json.dumps(m) for m in maps], starts))
        return out

    @staticmethod
    def argvs(command, spaces):
        phis, kinds = [json.dumps(phi) for phi in PIN_PHIS], [json.dumps(k) for k in PIN_KINDS]
        if command == "search":
            return [["search", "--phi", phi, "--kind", kind, "--budget", "6", "--seed", "3"]
                    for phi, kind in itertools.product(phis, kinds)]
        out = []
        for space, maps, starts in spaces:
            if command == "iterate":
                out += [["iterate", "--space", space, "--map", m, "--x0", x0, "--format", form]
                        for m, x0, form in itertools.product(maps, starts, ("json", "csv"))]
                continue
            # an odd number of kinds: each tag and phi gets both bounds formats
            for k, (m, phi, kind) in enumerate(itertools.product(maps[:2], phis, kinds)):
                argv = [command, "--space", space, "--map", m, "--phi", phi, "--kind", kind]
                if command == "bounds":
                    argv += ["--x0", starts[0], "--format", ("json", "csv")[k % 2]]
                out.append(argv)
        return out

    @pytest.mark.parametrize("command", list(PINNED_COMMANDS))
    def test_replies_are_pinned(self, capsys, monkeypatch, spaces, command):
        monkeypatch.delenv("CONTRACTION_LAB_SEED", raising=False)
        digest = hashlib.sha256()
        for argv in self.argvs(command, spaces):
            code = main(argv)
            digest.update(f"{code}\n{capsys.readouterr().out}\n".encode())
        assert digest.hexdigest() == PINNED_COMMANDS[command]


# an integer literal past Python's limit on the digits of an int it reads
LONG_INTEGER = "1" * 5000

# error paths that only this table reaches: (argv, CONTRACTION_LAB_SEED or
# None, the message that starts the error); "{unit}", "{ragged}", "{inf_lo}"
# and "{long_hi}" stand for space files
UNREACHED_ERRORS = {
    "x0_not_a_number": (["iterate", "--space", "{unit}", "--map", '{"expr":"x/2"}',
                         "--x0", "abc"], None, "ValueError: --x0 'abc' is not a number"),
    "seed_not_an_integer": (["search", "--phi", ADDITIVE, "--kind", PARTIAL_33,
                             "--budget", "1"], "1.5",
                            "ValueError: CONTRACTION_LAB_SEED must be an integer, got '1.5'"),
    "literal_overflows": (["classify", "--space", "{unit}", "--map", '{"expr":"x*1e999"}',
                           "--phi", ADDITIVE, "--kind", PARTIAL_33], None,
                          "ExpressionSyntaxError: numeric literal overflows (at offset 2)"),
    "ragged_rows": (["validate", "--space", "{ragged}", "--phi", ADDITIVE], None,
                    "StructuralError: bad distance matrix: "),
    "infinite_lo": (["validate", "--space", "{inf_lo}", "--phi", ADDITIVE], None,
                    "StructuralError: interval space lo must be a finite number, got inf"),
    "long_integer_phi": (["search", "--phi", f'{{"kind": "bscaled", "K": {LONG_INTEGER}}}',
                          "--kind", PARTIAL_33, "--budget", "1"], None,
                         "ValueError: --phi holds an integer literal longer than 4300 digits"),
    "long_integer_space": (["validate", "--space", "{long_hi}", "--phi", ADDITIVE], None,
                           "ValueError: --space holds an integer literal longer than 4300 digits"),
    # 1e-300/0 at x = 0.25 in the walk's float arithmetic, with no warning
    "escape_by_inf": (["iterate", "--space", "{unit}", "--x0", "1",
                       "--map", '{"expr": "x/2 + 1e-300/abs(x - 0.25)*1e-300"}'], None,
                      "DomainEscapeError: iterate 3: T(0.25) = inf leaves [0.0, 1.0]"),
}


class TestErrorsAndUsage:
    @pytest.mark.parametrize("case", UNREACHED_ERRORS)
    def test_unreached_error_paths_exit_two(self, capsys, monkeypatch, tmp_path, unit_file,
                                            case):
        files = {"{unit}": unit_file}
        for name, doc in (("ragged", '{"labels": ["a", "b"], "dist": [[0, 1], [1]]}'),
                          ("inf_lo", '{"lo": 1e999, "hi": 1}'),
                          ("long_hi", f'{{"lo": 0, "hi": {LONG_INTEGER}}}')):
            files[f"{{{name}}}"] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(doc)
        template, seed, message = UNREACHED_ERRORS[case]
        argv = [files.get(arg, arg) for arg in template]
        if seed is None:
            monkeypatch.delenv("CONTRACTION_LAB_SEED", raising=False)
        else:
            monkeypatch.setenv("CONTRACTION_LAB_SEED", seed)
        code, out, err = run_main(capsys, argv)
        assert code == 2 and out == "", argv
        envelope = json.loads(err)
        jsonschema.validate(envelope, RESULT_SCHEMA)
        assert envelope["status"] == "error"
        assert envelope["payload"]["error"].startswith(message), envelope

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
        code, out, err = run_main(capsys, ["validate"])
        assert code == 2 and out == ""
        envelope = json.loads(err)
        jsonschema.validate(envelope, RESULT_SCHEMA)
        assert envelope["payload"]["error"] == "ValueError: validate requires --space, --phi"

    def test_csv_rejected_outside_tabular_commands(self, capsys, unit_file):
        code, out, err = run_main(capsys, ["validate", "--space", unit_file, "--phi", ADDITIVE,
                                           "--format", "csv"])
        assert code == 2 and out == ""
        assert "only available for iterate and bounds" in json.loads(err)["payload"]["error"]

    def test_unknown_command_exits_two(self, capsys):
        for argv, command, error in (
            (["frobnicate"], None, "invalid choice: 'frobnicate'"),
            ([], None, "the following arguments are required: command"),
            (["validate", "--bogus"], "validate", "unrecognized arguments: --bogus"),
            (["iterate", "--max-iter", "many"], "iterate", "invalid int value: 'many'"),
        ):
            code, out, err = run_main(capsys, argv)
            assert code == 2 and out == "", argv
            envelope = json.loads(err)
            jsonschema.validate(envelope, RESULT_SCHEMA)
            assert envelope["command"] == command
            assert envelope["payload"]["error"].startswith("ValueError: "), argv
            assert error in envelope["payload"]["error"], argv
            assert run_command(argv).to_json() == envelope

    def test_malformed_kind_and_map_exit_two(self, capsys, line_file, tmp_path):
        labels_not_list = tmp_path / "labels.json"
        labels_not_list.write_text('{"labels": 5, "dist": [[0]]}')
        bad_intervals = []
        for index, doc in enumerate(('{"lo": 0, "hi": [1]}', '{"lo": true, "hi": 1}',
                                     '{"lo": "0", "hi": 1}', '{"lo": 0, "hi": 1, "dist": 5}')):
            path = tmp_path / f"interval{index}.json"
            path.write_text(doc)
            bad_intervals.append(('{"expr":"x/2"}', PARTIAL_33, ADDITIVE, str(path)))
        three = '{"images":[0,0,0]}'
        # integer literals beyond the float64 range, one per place a number is
        # read, each refused by its reader with a message naming the field
        big = "1" + "0" * 400
        huge_files = []
        for index, doc in enumerate((
            f'{{"lo": -{big}, "hi": 1}}',
            f'{{"lo": 0, "hi": {big}}}',
            f'{{"labels": ["a", "b", "c"], "dist": [[0, {big}, 1], [{big}, 0, 1], [1, 1, 0]]}}',
            f'{{"images": [{big}, 0, 0]}}',
        )):
            path = tmp_path / f"huge{index}.json"
            path.write_text(doc)
            huge_files.append(str(path))
        huge = {
            ('{"expr":"x/2"}', PARTIAL_33, ADDITIVE, huge_files[0]):
                "StructuralError: interval space lo must be a finite number, got -1000",
            ('{"expr":"x/2"}', PARTIAL_33, ADDITIVE, huge_files[1]):
                "StructuralError: interval space hi must be a finite number, got 1000",
            (three, PARTIAL_33, ADDITIVE, huge_files[2]):
                "StructuralError: bad distance matrix: int too large to convert to float",
            (huge_files[3], PARTIAL_33, ADDITIVE, line_file):
                "StructuralError: self-map images must be a list of integers, got [1000",
            (three, PARTIAL_33, f'{{"kind":"bscaled","K":{big}}}', line_file):
                "ValueError: bscaled requires a finite scale K >= 1",
            (three, PARTIAL_33, f'{{"kind":"power","q":{big}}}', line_file):
                "ValueError: power requires a finite exponent q > 0",
            (three, f'{{"tag":"chatterjea_bianchini","beta":{big}}}', ADDITIVE, line_file):
                "ValueError: chatterjea_bianchini needs finite beta >= 0",
        }
        for map_json, kind_json, phi_json, space_file in (
            (three, '{"tag":"partial","alpha":"x","beta":0.3}', ADDITIVE, line_file),
            (three, '{"tag":"partial","alpha":true,"beta":0.3}', ADDITIVE, line_file),
            ('{"images":5}', PARTIAL_33, ADDITIVE, line_file),
            (three, PARTIAL_33, '{"kind":"bscaled","K":"2"}', line_file),
            (three, PARTIAL_33, '{"kind":"power","q":true}', line_file),
            ('{"images":[0]}', PARTIAL_33, ADDITIVE, str(labels_not_list)),
            (three, PARTIAL_33, '{"kind":"custom","expr":["u"]}', line_file),
            (three, PARTIAL_33, '{"kind":"custom","expr":5}', line_file),
            *bad_intervals,
            *huge,
        ):
            code, out, err = run_main(capsys, ["classify", "--space", space_file,
                                               "--map", map_json, "--kind", kind_json,
                                               "--phi", phi_json])
            assert code == 2 and out == "", (kind_json, phi_json, space_file)
            envelope = json.loads(err)
            jsonschema.validate(envelope, RESULT_SCHEMA)
            assert envelope["status"] == "error"
            message = huge.get((map_json, kind_json, phi_json, space_file))
            if message is not None:
                assert envelope["payload"]["error"].startswith(message), envelope
                assert len(envelope["payload"]["error"]) < 120, envelope

    def test_documents_breaking_the_field_rule_exit_two(self, capsys, line_file, unit_file,
                                                        tmp_path):
        spaces = []
        for index, doc in enumerate((
            '{"labels": ["a", "b"], "dist": [[false, true], [true, false]]}',
            '{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}',
            '{"labels": [1, 2], "dist": [[0, 1], [1, 0]]}',
            '{"lo": 0, "hi": 1, "foo": 2}',
        )):
            path = tmp_path / f"space{index}.json"
            path.write_text(doc)
            spaces.append(str(path))
        three = '{"images":[0,0,0]}'
        classify = ["classify", "--space", line_file, "--phi", ADDITIVE]
        for argv in (
            *(["validate", "--space", path, "--phi", ADDITIVE] for path in spaces),
            [*classify, "--map", '{"images":[0,0,0],"bogus":1}', "--kind", PARTIAL_33],
            [*classify, "--map", '{"images":[0,0,0],"expr":"x"}', "--kind", PARTIAL_33],
            ["iterate", "--space", unit_file, "--map", '{"expr":5}', "--x0", "0"],
            ["validate", "--space", line_file, "--phi", '{"kind":"additive","K":null}'],
            [*classify, "--map", three, "--kind", '{"tag":"bianchini","beta":0.5,"alpha":null}'],
            [*classify, "--map", three, "--kind", '{"tag":"partial","delta":0.1}'],
        ):
            code, out, err = run_main(capsys, argv)
            assert code == 2 and out == "", argv
            assert json.loads(err)["status"] == "error", argv

    def test_inline_map_must_be_an_object(self, capsys, unit_file):
        for text, shown in (("[0, 1]", "[0, 1]"), (' "x/2"', "'x/2'")):
            argv = ["iterate", "--space", unit_file, "--map", text, "--x0", "0"]
            code, out, err = run_main(capsys, argv)
            assert code == 2 and out == "", argv
            assert json.loads(err)["payload"]["error"] == (
                f"StructuralError: self-map JSON must be an object, got {shown}")

    def test_expr_must_be_a_string(self, unit_file):
        error = run_command(["iterate", "--space", unit_file, "--map", '{"expr":5}',
                             "--x0", "0"]).payload["error"]
        assert error == "StructuralError: self-map expr must be a string, got 5"

    def test_one_point_space_validates(self, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"labels": ["a"], "dist": [[0]]}')
        result = run_command(["validate", "--space", str(path), "--phi", ADDITIVE])
        assert (result.status, result.payload["minimal_b"]) == ("ok", None)

    def test_zero_constant_times_infinite_distance_is_a_quiet_violation(self, tmp_path):
        # beta * d = 0 * inf is nan, which violates, without a numpy warning
        path = tmp_path / "inverse.json"
        path.write_text('{"lo": 0, "hi": 1, "dist": "1/abs(x-y)"}')
        result = run_command(["classify", "--space", str(path), "--map", '{"expr":"0.5"}',
                              "--kind", '{"tag":"bianchini","beta":0}', "--phi", ADDITIVE])
        assert result.status == "violation"
        assert result.payload["certificate"]["margin"] == "nan"

    def test_constant_map_leaving_the_interval_is_error(self, capsys, unit_file):
        escape = '{"expr":"5"}'
        for argv in (["iterate", "--x0", "0.5"],
                     ["classify", "--kind", PARTIAL_33, "--phi", ADDITIVE],
                     ["bounds", "--kind", PARTIAL_33, "--phi", ADDITIVE, "--x0", "0.5"]):
            code, out, err = run_main(capsys, argv + ["--space", unit_file, "--map", escape])
            assert code == 2 and out == "", argv
            error = json.loads(err)["payload"]["error"]
            assert error.startswith("StructuralError: map leaves the interval"), error

    def test_unknown_start_label_is_error(self, capsys, stretched_file):
        code, _, err = run_main(capsys, ["iterate", "--space", stretched_file,
                                         "--map", '{"images":[0,0,0]}', "--x0", "w"])
        assert code == 2
        assert json.loads(err)["status"] == "error"


class TestNaNDistances:
    """d(0, 0) = 0/0 is NaN on this interval; every check reading it fails."""

    @pytest.fixture
    def nan_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"lo": 0, "hi": 1, "dist": "abs(x-y)/x"}))
        return str(path)

    def test_validate_flags_identity_zero_self(self, nan_file):
        result = run_command(["validate", "--space", nan_file, "--phi", ADDITIVE])
        assert result.status == "violation"
        checks = {c["name"]: c for c in result.payload["space"]["checks"]}
        assert not checks["identity_zero_self"]["passed"]
        assert checks["identity_zero_self"]["witness"] == [0.0, "nan"]

    def test_classify_counts_nan_pairs_as_violations(self, nan_file):
        result = run_command(["classify", "--space", nan_file, "--map", '{"expr":"0.5"}',
                              "--kind", PARTIAL_33, "--phi", ADDITIVE])
        assert result.status == "violation"
        certificate = result.payload["certificate"]
        assert certificate["margin"] == "nan"
        assert certificate["violation_count"] > 0

    def test_infinite_distances_are_symmetric_without_a_warning(self, tmp_path):
        path = tmp_path / "inverse.json"
        path.write_text(json.dumps({"lo": 0, "hi": 1, "dist": "1/abs(x-y)"}))
        result = run_command(["validate", "--space", str(path), "--phi", ADDITIVE])
        checks = {c["name"]: c["passed"] for c in result.payload["space"]["checks"]}
        assert checks == {"nonnegative": False, "symmetry": True,
                          "identity_zero_self": False, "identity_distinct_positive": True}

    def test_bounds_fails_a_nan_slack(self, nan_file):
        result = run_command(["bounds", "--space", nan_file, "--map", '{"expr":"0.5"}',
                              "--kind", PARTIAL_33, "--phi", ADDITIVE, "--x0", "0"])
        assert result.status == "violation"
        assert result.payload["rows"][0]["slack"] == "nan"
        assert result.payload["min_slack"] == "nan"
        assert not result.payload["bounds_ok"]


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

    def test_phi_schema_matches_the_kind_table(self):
        entries = {entry["properties"]["kind"]["const"]: entry for entry in PHI_SCHEMA["oneOf"]}
        assert tuple(entries) == trifun.KINDS
        for kind, entry in entries.items():
            param = trifun._KINDS[kind].param
            named = ["kind"] + ([param] if param else [])
            assert sorted(entry["properties"]) == sorted(named), kind
            assert entry["required"] == named, kind

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
        branches = {entry["properties"]["tag"]["const"]: entry for entry in KIND_SCHEMA["oneOf"]}
        assert tuple(branches) == TAGS
        for tag, entry in branches.items():
            assert entry["required"] == ["tag", *TAG_CONSTANTS[tag]], tag
            assert sorted(entry["properties"]) == sorted(entry["required"]), tag
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"tag": "partial", "delta": 0.1}, KIND_SCHEMA)
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

    def test_usage_errors_return_an_envelope(self, unit_file):
        for argv in (["validate"], ["search", "--phi", ADDITIVE],
                     ["validate", "--space", unit_file, "--phi", ADDITIVE, "--format", "csv"]):
            result = run_command(argv)
            assert result.status == "error", argv
            jsonschema.validate(result.to_json(), RESULT_SCHEMA)
        assert run_command(["search", "--phi", ADDITIVE]).payload["error"] == \
            "ValueError: search requires --kind, --budget"

    def test_help_returns_an_envelope(self, capsys):
        for argv, command, usage in ((["--help"], None, "usage: contraction-lab [-h]"),
                                     (["validate", "-h"], "validate",
                                      "usage: contraction-lab validate [-h]")):
            result = run_command(argv)
            jsonschema.validate(result.to_json(), RESULT_SCHEMA)
            assert (result.command, result.status) == (command, "ok"), argv
            assert result.payload["help"].startswith(usage), argv
            assert capsys.readouterr().out == "", argv
            code, out, err = run_main(capsys, argv)
            assert code == 0 and err == "", argv
            assert out == result.payload["help"], argv

    def test_parser_is_built_once(self, unit_file, monkeypatch):
        import contraction_lab.cli as cli

        argv = ["iterate", "--space", unit_file, "--map", '{"expr":"x/2"}', "--x0", "1.0"]
        run_command(argv)

        def rebuilt():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run_command(argv).status == "ok"


def assert_plain(value, where="payload"):
    """Every leaf is exactly a str, int, finite float, bool or None, inside
    lists and str-keyed dicts: no tuple, no numpy type, no inf or nan."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, (where, key)
            assert_plain(item, f"{where}.{key}")
    elif type(value) is list:
        for index, item in enumerate(value):
            assert_plain(item, f"{where}[{index}]")
    else:
        assert type(value) in (str, int, float, bool, type(None)), (where, type(value))
        assert type(value) is not float or math.isfinite(value), (where, value)


class TestPlainReplies:
    @pytest.fixture
    def divided_file(self, tmp_path):
        # d(0, y) = y/0 is inf and d(0, 0) = 0/0 is nan
        path = tmp_path / "divided.json"
        path.write_text('{"lo": 0, "hi": 1, "dist": "abs(x-y)/x"}')
        return str(path)

    def reply(self, argv):
        envelope = run_command(argv).to_json()
        json.dumps(envelope, allow_nan=False)
        assert_plain(envelope)
        return envelope["payload"]

    def test_every_command_and_error_replies_plain_data(self, stretched_file, unit_file):
        contract = ["--kind", PARTIAL_33, "--phi", ADDITIVE]
        finite = ["--space", stretched_file, "--map", '{"images":[0,0,0]}']
        interval = ["--space", unit_file, "--map", '{"expr":"x/2"}']
        for argv in (
            ["validate", "--space", stretched_file, "--phi", ADDITIVE],
            ["validate", "--space", unit_file, "--phi", MAX],
            ["classify", *finite, *contract],
            ["classify", "--space", stretched_file, "--map", '{"images":[1,2,0]}', *contract],
            ["classify", *interval, *contract],
            ["classify", *interval, "--kind", '{"tag":"partial","alpha":0.6,"beta":0.5}',
             "--phi", ADDITIVE],
            ["iterate", *finite, "--x0", "y"],
            ["iterate", *interval, "--x0", "1.0", "--format", "csv"],
            ["bounds", *finite, *contract, "--x0", "y"],
            ["bounds", *interval, *contract, "--x0", "1.0"],
            ["bounds", *interval, "--kind", PARTIAL_33, "--phi", '{"kind":"bscaled","K":2.0}',
             "--x0", "1.0"],
            ["search", "--phi", '{"kind":"bscaled","K":2.0}', "--kind", PARTIAL_33,
             "--budget", "20", "--seed", "3"],
            ["validate", "--space", unit_file, "--phi", '{"kind":"nope"}'],
            ["search", "--phi", ADDITIVE],
            ["frobnicate"],
        ):
            assert self.reply(argv), argv

    def test_non_finite_values_are_spelled(self, line_file, divided_file):
        axioms = self.reply(["validate", "--space", line_file,
                             "--phi", '{"kind":"power","q":1e-300}'])["phi_axioms"]
        assert axioms["checks"][1] == {"name": "nonnegative", "passed": False,
                                       "witness": [0.125, 0.125, "inf"],
                                       "detail": "value out of R+"}

        payload = self.reply(["validate", "--space", divided_file, "--phi", ADDITIVE])
        assert payload["space"]["checks"][0]["witness"] == [0.0, 1.0, "inf"]
        first, second = payload["triangle"]["violations"][:2]
        assert first == {"x": 0.0, "y": 0.0, "z": 0.0, "lhs": "nan", "rhs": "nan"}
        assert (second["lhs"], second["rhs"]) == ("nan", "inf")

        certificate = self.reply(["classify", "--space", divided_file, "--map", '{"expr":"0.5"}',
                                  "--kind", PARTIAL_33, "--phi", ADDITIVE])["certificate"]
        assert certificate["margin"] == "nan"
        assert certificate["witness"]["rhs"] == "nan"

        orbit = ["--space", divided_file, "--map", '{"expr":"0.5"}', "--x0", "0"]
        trace = self.reply(["iterate", *orbit, "--tol", "1e400"])
        assert (trace["step_dists"], trace["tol"]) == (["inf", 0.0], "inf")
        bounds = self.reply(["bounds", *orbit, "--kind", PARTIAL_33, "--phi", ADDITIVE])
        assert (bounds["d01"], bounds["min_slack"]) == ("inf", "nan")
        assert bounds["rows"][0] == {"n": 0, "x_n": 0.0, "step_dist": "inf", "bound": "inf",
                                     "observed": "inf", "slack": "nan"}


def _write_space(path, space) -> str:
    path.write_text(json.dumps(space.to_json()), encoding="utf-8")
    return str(path)


def _text_key(path) -> bytes:
    with open(path, encoding="utf-8") as handle:
        return hashlib.sha256(handle.read().encode("utf-8")).digest()


class TestSpaceCache:
    """A finite space file is decoded once while its text is unchanged."""

    @pytest.fixture
    def cache(self, monkeypatch):
        """An empty cache, and the spaces `space_from_json` decodes."""
        import contraction_lab.cli as cli

        monkeypatch.setattr(cli, "_spaces", cli._SpaceCache())
        decoded = []

        def counted(obj):
            decoded.append(obj)
            return space_from_json(obj)

        monkeypatch.setattr(cli, "space_from_json", counted)
        return cli, decoded

    @staticmethod
    def validate(path, phi=ADDITIVE):
        return run_command(["validate", "--space", path, "--phi", phi]).to_json()

    def test_a_file_read_twice_is_decoded_once(self, cache, tmp_path):
        cli, decoded = cache
        path = _write_space(tmp_path / "semi.json", random_semimetric(np.random.default_rng(1), 12))
        first = self.validate(path)
        assert len(decoded) == 1
        assert self.validate(path) == first and len(decoded) == 1
        classify = ["classify", "--space", path, "--map", '{"images": [0' + ", 0" * 11 + "]}",
                    "--phi", ADDITIVE, "--kind", PARTIAL_33]
        assert run_command(classify).status != "error" and len(decoded) == 1
        assert list(cli._spaces.spaces) == [_text_key(path)]

    def test_the_key_is_the_text_not_the_path_or_stat(self, cache, tmp_path):
        cli, decoded = cache
        path = tmp_path / "line.json"
        path.write_text('{"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}')
        before = os.stat(path)
        assert self.validate(str(path))["status"] == "ok"
        # the same length, and the modification time put back: only the text differs
        path.write_text('{"labels": ["a", "b", "c"], "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}')
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        reply = self.validate(str(path))
        assert reply["status"] == "violation" and len(decoded) == 2
        assert reply["payload"]["triangle"]["violation_count"] == 2
        cli._spaces.spaces.clear()
        assert self.validate(str(path)) == reply

    @pytest.mark.parametrize("bad, error", [
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]', "ValueError: --space is not valid JSON"),
        ('{"labels": ["a", "b"], "dist": [[0, 1]]}', "StructuralError: distance matrix must be"),
    ])
    def test_a_bad_file_errs_alike_every_time_and_is_not_held(self, cache, tmp_path, bad, error):
        cli, decoded = cache
        path = tmp_path / "bad.json"
        path.write_text(bad)
        first = self.validate(str(path))
        assert first["status"] == "error" and first["payload"]["error"].startswith(error)
        for _ in range(2):
            assert self.validate(str(path)) == first
        assert cli._spaces.spaces == {} and cli._spaces.held == 0
        path.write_text('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]}')
        assert self.validate(str(path))["status"] == "ok"
        assert list(cli._spaces.spaces) == [_text_key(path)]

    def test_a_held_matrix_is_read_only(self, cache, tmp_path, line_file):
        cli, decoded = cache
        space = cli._INPUTS["space"](line_file, {})
        assert cli._INPUTS["space"](line_file, {}) is space and len(decoded) == 1
        with pytest.raises(ValueError, match="read-only"):
            space.dist[0, 1] = 5.0
        assert self.validate(line_file)["status"] == "ok"

    def test_interval_spaces_are_not_held(self, cache, unit_file):
        cli, decoded = cache
        first = self.validate(unit_file)
        assert self.validate(unit_file) == first and first["status"] == "ok"
        assert len(decoded) == 2 and cli._spaces.spaces == {}

    def test_spaces_leave_least_recently_used_first_within_the_budget(
            self, cache, monkeypatch, tmp_path):
        cli, decoded = cache
        rng = np.random.default_rng(5)
        paths = [_write_space(tmp_path / f"m{k}.json", random_metric(rng, 20)) for k in range(4)]
        # 20 x 20 float64 is 3,200 bytes, held as SPACE_MIN_BYTES: three fit
        monkeypatch.setattr(cli, "SPACE_CACHE_BYTES", 3 * cli.SPACE_MIN_BYTES)

        def held():
            assert cli._spaces.held <= cli.SPACE_CACHE_BYTES
            assert cli._spaces.held == cli.SPACE_MIN_BYTES * len(cli._spaces.spaces)
            return [paths.index(p) for p in paths if _text_key(p) in cli._spaces.spaces]

        for path in paths[:3]:
            self.validate(path)
        assert held() == [0, 1, 2] and len(decoded) == 3
        self.validate(paths[0])  # a hit: now the most recently used
        self.validate(paths[3])
        assert held() == [0, 2, 3] and len(decoded) == 4
        assert [k for k in cli._spaces.spaces] == [_text_key(paths[i]) for i in (2, 0, 3)]
        self.validate(paths[1])
        assert held() == [0, 1, 3] and len(decoded) == 5
        # 40 x 40 float64 is 12,800 bytes, more than the whole budget
        large = _write_space(tmp_path / "large.json", random_metric(rng, 40))
        for _ in range(2):
            assert self.validate(large)["status"] == "ok"
        assert held() == [0, 1, 3] and len(decoded) == 7

    def test_concurrent_reads_match_the_serial_replies(self, cache, monkeypatch, tmp_path):
        cli, decoded = cache
        rng = np.random.default_rng(9)
        paths = [_write_space(tmp_path / "semi.json", random_semimetric(rng, 30)),
                 _write_space(tmp_path / "metric.json", random_metric(rng, 30)),
                 _write_space(tmp_path / "other.json", random_semimetric(rng, 30))]
        argvs = [["validate", "--space", path, "--phi", phi]
                 for path in paths for phi in (ADDITIVE, '{"kind":"power","q":0.5}')]
        # room for one 30-point space: every miss evicts the space another thread read
        monkeypatch.setattr(cli, "SPACE_CACHE_BYTES", 30 * 30 * 8)
        serial = [run_command(argv).to_json() for argv in argvs]
        assert len(decoded) == 3

        def client(start):
            order = [(start + 5 * i) % len(argvs) for i in range(50)]
            return [(k, run_command(argvs[k]).to_json()) for k in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's updates too
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(client, start) for start in range(4)]
                replies = [reply for future in futures for reply in future.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 200
        for k, reply in replies:
            assert reply == serial[k], argvs[k]
        assert len(decoded) > 3 + len(paths)  # spaces were evicted and decoded again
        # a lost update would leave the held total off the held spaces' weights
        assert len(cli._spaces.spaces) == 1 and cli._spaces.held == cli.SPACE_CACHE_BYTES

    def test_concurrent_gets_and_puts_keep_the_held_total(self, cache, monkeypatch):
        cli, _ = cache
        monkeypatch.setattr(cli, "SPACE_CACHE_BYTES", 2 * cli.SPACE_MIN_BYTES)
        spaces = [FiniteSemimetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]) for _ in range(5)]
        held = cli._SpaceCache()

        def client(start):
            for i in range(5000):
                k = (start + i) % len(spaces)
                if held.get(bytes([k])) is None:
                    held.put(bytes([k]), spaces[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(client, start) for start in range(4)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(held.spaces) == 2 and held.held == cli.SPACE_CACHE_BYTES
