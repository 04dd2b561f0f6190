import json

import pytest

from orthobranch import cli, enveloping, measure
from orthobranch.characters import CharacterCheckError
from orthobranch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_regions_worked_example(capsys):
    code, obj = run_json(capsys, "regions", "--n", "4",
                         "--xi", "9/2,5/2", "--nu", "1,0")
    assert code == 0
    assert obj["away_from_fences"] is True
    assert obj["base"] == ["9/2", "5/2"]
    assert len(obj["support"]) == 8


def test_regions_empty_support(capsys):
    code, obj = run_json(capsys, "regions", "--n", "3",
                         "--xi", "5/2,3/2", "--nu", "1/3")
    assert code == 0
    assert obj["support"] == []


@pytest.mark.parametrize("xi, nu", [("1", "1"), ("1,2,3", "1"), ("5/2,3/2", "1,0")])
def test_regions_lengths_follow_n(capsys, xi, nu):
    # n = 3: xi of length r = 2 and nu of length s = 1, as scalar and render ask
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--n", "3", "--xi", xi, "--nu", nu])
    assert exc.value.code == 2
    assert "xi must have length 2 and nu length 1 for n = 3" in capsys.readouterr().err


def test_scalar_worked_example(capsys):
    code, obj = run_json(capsys, "scalar", "--n", "4", "--i", "1",
                         "--eps", "+", "--lam", "3/2,1/2", "--nu", "1,0")
    assert code == 0
    assert obj["h"] == "3" and obj["phi"] == "12" and obj["g"] == "12"
    assert obj["C"] == {"defined": True, "denominator": "12",
                        "numerator": "12", "value": "1"}
    assert obj["nonvanishing"] is True


def test_scalar_without_nu(capsys):
    code, obj = run_json(capsys, "scalar", "--n", "4", "--i", "1",
                         "--eps", "-", "--lam", "3/2,1/2")
    assert code == 0
    assert obj["g"] is None and obj["C"] is None and obj["nonvanishing"] is None
    assert obj["h"] == "3"


def test_scalar_rejects_floats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scalar", "--n", "4", "--i", "1", "--eps", "+",
              "--lam", "1.5,0.5"])
    assert exc.value.code == 2


def test_branch_examples(capsys):
    code, obj = run_json(capsys, "branch", "--n", "4",
                         "--big", "1,0", "--big-eps", "+", "--sub", "0,0")
    assert code == 0
    assert obj["multiplicity"] == 1 and obj["interlace"] == 1
    code, obj = run_json(capsys, "branch", "--n", "4",
                         "--big", "3,3", "--big-eps", "+", "--sub", "1,0")
    assert code == 0
    assert obj["multiplicity"] == 0 and obj["interlace"] == 0


def test_stability_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, obj = run_json(capsys, "stability", "--n", "4",
                         "--xi", "13/2,5/2", "--pi", "3,1",
                         "--bound", "2", "--csv", str(csv_path))
    assert code == 0
    assert obj["constant"] is True
    assert all(m == 1 for _, m in obj["samples"])
    assert obj["fence_crossings"]
    assert [["9/2", "5/2"], ["7/2", "5/2"], -1] in obj["fence_crossings"]
    data = csv_path.read_bytes()
    assert b"\r\n" in data
    header = data.decode().splitlines()[0]
    assert header == "lam_1,lam_2,multiplicity"


def test_stability_fence_base_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--n", "4", "--xi", "9/2,5/2", "--pi", "3,1",
              "--bound", "1"])
    assert exc.value.code == 2


def test_verify_ue(capsys):
    code, obj = run_json(capsys, "verify-ue", "--n", "2", "--max-degree", "3")
    assert code == 0
    assert obj["ok"] is True
    assert obj["checks_run"] > 10


def test_verify_scalar_small(capsys):
    code, obj = run_json(capsys, "verify-scalar", "--n", "3",
                         "--big", "1,0", "--sub", "0",
                         "--i", "1", "--eps", "+")
    assert code == 0
    assert obj["ok"] is True
    assert obj["multiplicity"] == 1
    scalar_checks = [c for c in obj["checks"] if "i" in c]
    assert scalar_checks and scalar_checks[0]["value"] == "3/4"
    power_checks = {c["power"]: c for c in obj["checks"] if "power" in c}
    assert power_checks[1]["measured"] == power_checks[1]["closed"] == "0"


def test_verify_scalar_zero_multiplicity(capsys):
    code, obj = run_json(capsys, "verify-scalar", "--n", "3",
                         "--big", "0,0", "--sub", "1",
                         "--i", "1", "--eps", "+")
    assert code == 0
    assert obj["multiplicity"] == 0


def test_verma_demo_table(capsys):
    code, out = run(capsys, "verma-demo", "--a-min", "-2", "--a-max", "0",
                    "--k-max", "2")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "a,b,c,multiplicity,oracle"
    assert len([l for l in lines if l]) == 1 + 3 * 3 * 3
    for line in lines[1:]:
        if not line:
            continue
        a, b, c, m, o = line.split(",")
        assert m == o


def test_failed_fusion_check_goes_to_out(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "fusion_oracle", lambda query: -1)
    path = tmp_path / "fusion.json"
    code, out = run(capsys, "verma-demo", "--a-min", "-2", "--a-max", "0",
                    "--k-max", "2", "--out", str(path))
    assert (code, out) == (1, "")
    assert json.loads(path.read_text()) == {
        "check": "fusion-consistency", "params": {"a": "-2", "b": "-2", "c": "-4"},
        "predicted": 1, "oracle": -1}


def test_render_svg(capsys, tmp_path):
    svg_path = tmp_path / "slice.svg"
    code, _ = run(capsys, "render", "--n", "4", "--nu", "4,1",
                  "--axes", "1,2", "--range", "0,10", "--out", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") >= 8  # fence lines at both axes


def test_render_singular_base_has_fences_and_no_dots(capsys, tmp_path):
    # 9/2,9/2 has no chamber: the slice keeps its fences and draws no lattice dots
    svg_path = tmp_path / "singular.svg"
    code, _ = run(capsys, "render", "--n", "4", "--nu", "4,1", "--axes", "1,2",
                  "--range", "0,10", "--xi", "9/2,9/2", "--out", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    assert text.count("<line") == 8 and "<circle" not in text


def test_render_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--n", "4", "--nu", "4,1", "--axes", "1,2",
              "--range", "5,5"])
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    _, first = run(capsys, "scalar", "--n", "4", "--i", "2", "--eps", "-",
                   "--lam", "7/2,3/2", "--nu", "2,1")
    _, second = run(capsys, "scalar", "--n", "4", "--i", "2", "--eps", "-",
                    "--lam", "7/2,3/2", "--nu", "2,1")
    assert first == second
    _, r1 = run(capsys, "regions", "--n", "4", "--xi", "13/2,5/2", "--nu", "4,1")
    _, r2 = run(capsys, "regions", "--n", "4", "--xi", "13/2,5/2", "--nu", "4,1")
    assert r1 == r2


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    return exc.value.code, err


def test_resource_cap_is_usage_error(capsys):
    code, err = _usage_error(capsys, "verify-scalar", "--n", "4", "--big", "3,1",
                             "--sub", "1", "--i", "1", "--eps", "+", "--dim-cap", "50")
    assert code == 2
    assert err.count("\n") == 1 and "cap 50" in err


def test_missing_bundle_is_usage_error(capsys, tmp_path, monkeypatch):
    # the bundle is read before the identity suite, which must not run at all
    def suite_must_not_run(*args):
        raise AssertionError("identity suite ran before the bundle was read")

    monkeypatch.setattr(enveloping, "verify_identities", suite_must_not_run)
    missing = str(tmp_path / "missing.json")
    code, err = _usage_error(capsys, "verify-ue", "--n", "3", "--bundle", missing)
    assert code == 2
    assert err.count("\n") == 1 and "missing.json" in err


def test_stability_dim_cap(capsys):
    argv = ["stability", "--n", "6", "--xi", "15/2,13/2,7/2", "--pi", "3,1,0",
            "--bound", "1"]
    code, err = _usage_error(capsys, *argv)
    assert code == 2 and "33033" in err
    code, obj = run_json(capsys, *argv, "--dim-cap", "1000000")
    assert code == 0
    assert len(obj["samples"]) == 5 and len(obj["fence_crossings"]) == 3
    assert obj["constant"] is True


def test_failed_power_measurement_is_a_counterexample(capsys, monkeypatch):
    def b_eval(op, ell):
        raise measure.IdentityViolationError("power scalar differs between probe vectors")

    monkeypatch.setattr(measure, "b_eval", b_eval)
    code, obj = run_json(capsys, "verify-scalar", "--n", "3", "--big", "1,0", "--sub", "0",
                         "--i", "1", "--eps", "+")
    assert code == 1
    assert obj == {"check": "power-proportionality",
                   "params": {"n": 3, "big": [1, 0], "sub": [0], "i": 1, "eps": 1,
                              "power": 1},
                   "error": "power scalar differs between probe vectors"}


def test_failed_self_check_is_a_counterexample(capsys, monkeypatch):
    def oracle_multiplicity(big, sub, dim_cap):
        raise CharacterCheckError("peel met a negative count")

    monkeypatch.setattr(cli, "oracle_multiplicity", oracle_multiplicity)
    argv = ["branch", "--n", "4", "--big", "2,1", "--sub", "1,0"]
    code, obj = run_json(capsys, *argv)
    assert code == 1
    assert obj == {"check": "self-check", "argv": argv,
                   "error": "CharacterCheckError: peel met a negative count"}
