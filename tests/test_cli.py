import json
import subprocess
import sys

import pytest

import laurentforms.cli
import laurentforms.forms
import laurentforms.wallcalc
from laurentforms import h2_sum
from laurentforms.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def rank2_fixture_json():
    return {
        "rank": "2",
        "entries": [
            {},
            {"0": "1", "1": "-1"},
            {"0": "1", "-1": "-1"},
            {"0": "2", "1": "-1", "-1": "-1"},
        ],
    }


def test_check_accepts_fixture(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    assert main(["check", form_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "accept"
    assert out["g"] == "1"
    assert out["certificate"]["c_list"] == [{"0": "1"}]


def test_check_rejects_identity_form(tmp_path, capsys):
    payload = {"rank": "2", "entries": [{"0": "1"}, {}, {}, {"0": "1"}]}
    form_path = write_json(tmp_path / "identity.json", payload)
    assert main(["check", form_path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "reject"
    assert "recognition failed" in out["reason"]


def test_check_rejects_truncated_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": "2", "entries": [')
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_check_rejects_non_hermitian(tmp_path):
    payload = {
        "rank": "2",
        "entries": [{}, {"0": "1", "1": "-1"}, {"0": "1", "1": "-1"}, {}],
    }
    form_path = write_json(tmp_path / "nonherm.json", payload)
    assert main(["check", form_path]) == 2


def test_check_rejects_negative_rank(tmp_path, capsys):
    path = write_json(tmp_path / "negative.json", {"rank": "-1", "entries": [{}]})
    assert main(["check", path]) == 2
    assert "rank must be nonnegative" in capsys.readouterr().err


def test_check_prenormalize_flag(tmp_path, capsys):
    # Off-diagonal twisted by a unit: rejected plainly, accepted with the flag.
    twisted = {
        "rank": "2",
        "entries": [{}, {"1": "1", "2": "-1"}, {"-1": "1", "-2": "-1"}, {}],
    }
    form_path = write_json(tmp_path / "twisted.json", twisted)
    assert main(["check", form_path]) == 1
    capsys.readouterr()
    assert main(["check", "--prenormalize", form_path]) == 0


def test_wall_command(tmp_path, capsys):
    surface = {
        "label": "S1",
        "euler": "0",
        "events": [{"kind": "torus_piercing", "sign": "+1", "k": "0"}],
    }
    path = write_json(tmp_path / "s1.json", surface)
    assert main(["wall", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu"] == {"0": "1", "1": "-1"}
    assert out["lambda"] == {"-1": "-1", "0": "2", "1": "-1"}
    assert out["c"] == {"0": "1"}


def test_wall_sphere_and_euler_only(tmp_path, capsys):
    path = write_json(tmp_path / "s0.json", {"label": "S0", "euler": "0", "events": []})
    assert main(["wall", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == {}
    assert out["c"] == {}

    path = write_json(tmp_path / "e4.json", {"label": "e4", "euler": "4", "events": []})
    assert main(["wall", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == {"0": "4"}
    assert out["c"] is None


def test_wall_unknown_event_kind(tmp_path):
    surface = {
        "label": "bad",
        "euler": "0",
        "events": [{"kind": "mystery", "sign": "+1", "k": "0"}],
    }
    path = write_json(tmp_path / "bad.json", surface)
    assert main(["wall", path]) == 2


def test_wall_null_or_non_numeric_sign(tmp_path, capsys):
    for sign, k in ((None, "0"), ("+1", "x")):
        surface = {
            "label": "bad",
            "euler": "0",
            "events": [{"kind": "torus_piercing", "sign": sign, "k": k}],
        }
        path = write_json(tmp_path / "bad.json", surface)
        assert main(["wall", path]) == 2
        assert "event sign and k must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("euler, sign, k", [
    (0.9, True, 1.5),  # read as euler 0, sign +1, k 1 by a bare int()
    (0.9, "+1", "1"),
    ("0", True, "1"),
    ("0", "+1", 1.5),
], ids=["all", "float_euler", "bool_sign", "float_k"])
def test_wall_refuses_non_integer_numbers(tmp_path, capsys, euler, sign, k):
    surface = {"label": "x", "euler": euler,
               "events": [{"kind": "torus_piercing", "sign": sign, "k": k}]}
    path = write_json(tmp_path / "bad.json", surface)
    assert main(["wall", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer" in captured.err or "must be integers" in captured.err


@pytest.mark.parametrize("bad", ["1_000", " 7 ", "\u0661\u0662"],
                         ids=["underscore", "spaces", "arabic_indic"])
def test_integer_strings_must_be_ascii_decimal(tmp_path, capsys, bad):
    # A bare int() reads these as 1000, 7 and 12; every command refuses
    # them with exit 2 and a message, in a form, a surface and a complex.
    form = rank2_fixture_json()
    form["entries"][3] = {"0": bad, "1": "-1", "-1": "-1"}
    surface = {"label": "x", "euler": "0", "events": [
        {"kind": "torus_piercing", "sign": "+1", "k": bad}]}
    complex_ = {"ranks": ["1", bad], "differentials": [[[{}] * 7]]}
    for command, payload, message in (
        ("check", form, f"bad polynomial term '0': {bad!r}"),
        ("wall", surface, "event sign and k must be integers"),
        ("homology", complex_, f"module rank must be an integer, got {bad!r}"),
    ):
        path = write_json(tmp_path / f"{command}.json", payload)
        assert main([command, path]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("label", [None, ["a"], 5], ids=["null", "list", "number"])
def test_wall_refuses_a_non_string_label(tmp_path, capsys, label):
    path = write_json(tmp_path / "bad.json", {"label": label, "euler": "0", "events": []})
    assert main(["wall", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"surface label must be a string, got {label!r}" in captured.err


@pytest.mark.parametrize("sign, k", [("+1", "1"), (1, 1)], ids=["str", "int"])
@pytest.mark.parametrize("field, bad", [("sign", True), ("k", 1.0), ("k", True)],
                         ids=["bool_sign", "float_k", "bool_k"])
def test_wall_refuses_a_repeat_that_equals_a_parsed_event(tmp_path, capsys, sign, k, field, bad):
    # true and 1.0 compare equal to 1; a repeat of a parsed event spelled
    # with them is refused as it would be on its own.
    event = {"kind": "torus_piercing", "sign": sign, "k": k}
    surface = {"label": "x", "euler": "0", "events": [event, {**event, field: bad}]}
    path = write_json(tmp_path / "bad.json", surface)
    assert main(["wall", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "event sign and k must be integers" in captured.err


@pytest.mark.parametrize("kinds, shaped", [
    (["torus_piercing", "disc_self_intersection"], True),
    (["torus_piercing", "generic_double_point"], False),
], ids=["shaped", "double_points"])
def test_wall_computes_mu_once(tmp_path, capsys, monkeypatch, kinds, shaped):
    calls = []
    original = laurentforms.wallcalc.mu

    def counting_mu(surface):
        calls.append(surface)
        return original(surface)

    # Every binding of mu in the package, so that a direct call from cli counts too.
    for module in (laurentforms.wallcalc, laurentforms.cli):
        if getattr(module, "mu", None) is original:
            monkeypatch.setattr(module, "mu", counting_mu)
    events = [{"kind": kind, "sign": "-1", "k": str(k)} for kind in kinds for k in (-2, 0, 3)]
    path = write_json(tmp_path / "s.json", {"label": "s", "euler": "0", "events": events})
    assert main(["wall", path]) == 0
    assert (json.loads(capsys.readouterr().out)["c"] is not None) == shaped
    assert len(calls) == 1


def test_homology_command(tmp_path, capsys):
    complex_payload = {
        "ranks": ["1", "1", "1"],
        "differentials": [
            [[{"0": "1", "1": "-1"}]],
            [[{}]],
        ],
    }
    path = write_json(tmp_path / "complex.json", complex_payload)
    assert main(["homology", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti_qt"] == ["0", "0", "1"]
    assert out["euler_check"] is True
    assert out["torsion_orders"][0] == {"0": "1", "1": "-1"}
    assert out["torsion_orders"][1] is None


def test_homology_invalid_complex(tmp_path):
    payload = {
        "ranks": ["1", "1", "1"],
        "differentials": [[[{"0": "1"}]], [[{"0": "1"}]]],
    }
    path = write_json(tmp_path / "bad.json", payload)
    assert main(["homology", path]) == 2


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"ranks": [None], "differentials": []}, "module rank must be an integer"),
        ({"ranks": ["1", "1"], "differentials": [5]}, "each differential must be a list"),
        ({"ranks": ["1", "1"], "differentials": [[5]]}, "each differential must be a list"),
    ],
    ids=["null_rank", "non_list_differential", "non_list_row"],
)
def test_homology_malformed_complex(tmp_path, capsys, payload, message):
    path = write_json(tmp_path / "bad.json", payload)
    assert main(["homology", path]) == 2
    assert message in capsys.readouterr().err


def test_search_command(tmp_path, capsys):
    a_path = write_json(tmp_path / "a.json", rank2_fixture_json())
    t_path = write_json(tmp_path / "h2.json", h2_sum(1).to_json())
    assert main(["search", a_path, t_path, "--depth", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "found"
    assert out["moves"] == [
        {"kind": "transvection", "i": "1", "j": "0", "p": {"0": "-1"}}
    ]


def test_main_reuses_one_parser(tmp_path, capsys):
    # One parser serves every call: a usage error or --help in between
    # leaves the next command's parse, exit code and output unchanged.
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    target_path = write_json(tmp_path / "target.json", h2_sum(1).to_json())
    search = ["search", form_path, target_path, "--depth", "1"]
    assert main(search) == 0
    first = capsys.readouterr()
    assert json.loads(first.out)["status"] == "found" and first.err == ""

    assert main(["search", form_path, "--depth", "x"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid int value: 'x'" in out.err

    assert main(["--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: laurentforms") and out.err == ""

    assert main(["check", form_path]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "accept"
    assert main(search) == 0
    assert capsys.readouterr() == first
    assert main(["search", form_path, target_path]) == 0  # --depth back to its default
    assert json.loads(capsys.readouterr().out) == json.loads(first.out)


def test_search_obstructed_exits_one(tmp_path, capsys):
    bad = {"rank": "2", "entries": [{}, {"0": "1", "1": "1"}, {"0": "1", "-1": "1"}, {}]}
    a_path = write_json(tmp_path / "bad.json", bad)
    t_path = write_json(tmp_path / "h2.json", h2_sum(1).to_json())
    assert main(["search", a_path, t_path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "obstruction_mismatch"


def test_search_obstructed_by_an_associate_determinant_exits_one(tmp_path, capsys):
    # diag((1-t)(1-t^-1), 1) has determinant 2 - t - t^-1, H2 its negative.
    form = {"rank": "2", "entries": [{"-1": "-1", "0": "2", "1": "-1"}, {}, {}, {"0": "1"}]}
    a_path = write_json(tmp_path / "diag.json", form)
    t_path = write_json(tmp_path / "h2.json", h2_sum(1).to_json())
    assert main(["search", a_path, t_path]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "obstruction_mismatch",
        "reason": "determinant associate to the target determinant but not equal to it",
    }


def test_probe_command(tmp_path, capsys):
    a_path = write_json(tmp_path / "a.json", rank2_fixture_json())
    assert main(["probe", a_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["direct"]["status"] == "found"
    assert out["stable"]["status"] == "found"
    assert out["candidate_for_deeper_bounds"] is False


def test_search_rank_mismatch_exits_two(tmp_path, capsys):
    a_path = write_json(tmp_path / "a.json", rank2_fixture_json())
    t_path = write_json(tmp_path / "h2x2.json", h2_sum(2).to_json())
    assert main(["search", a_path, t_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank mismatch: 2 vs 4\n"


def test_probe_rank_six_exits_two(tmp_path, capsys):
    a_path = write_json(tmp_path / "h2x3.json", h2_sum(3).to_json())
    assert main(["probe", a_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "got 6" in captured.err


@pytest.mark.parametrize(
    "command, paths",
    [
        ("check", 1), ("reduce", 1), ("wall", 1), ("homology", 1),
        ("search", 2), ("probe", 1), ("replay", 2),
    ],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, command, paths):
    # Deep enough to exhaust the JSON decoder's recursion limit.
    path = tmp_path / "nested.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert main([command] + [str(path)] * paths) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_replay_round_trip(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    cert_path = str(tmp_path / "cert.json")
    assert main(["reduce", form_path, "-o", cert_path]) == 0
    capsys.readouterr()
    assert main(["replay", cert_path, form_path]) == 0


def test_replay_detects_mutation(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    cert_path = tmp_path / "cert.json"
    assert main(["reduce", form_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["P"]["entries"][0] = {"0": "2"}
    mutated = write_json(tmp_path / "mutated.json", cert)
    assert main(["replay", mutated, form_path]) == 1


def test_replay_rank_mismatch(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    cert_path = tmp_path / "cert.json"
    assert main(["reduce", form_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    big_form = write_json(tmp_path / "big.json", h2_sum(2).to_json())
    assert main(["replay", str(cert_path), big_form]) == 2


def _reduced_certificate(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    cert_path = tmp_path / "cert.json"
    assert main(["reduce", form_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    return form_path, json.loads(cert_path.read_text())


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("g", None, "genus g must be an integer"),
        ("g", "1.5", "genus g must be an integer"),
        ("g", 1.5, "genus g must be an integer"),
        ("g", "-1", "genus g must be nonnegative"),
        ("c_list", 5, "c_list must be a list"),
        ("c_list", [], "0 witnesses does not match"),
    ],
    ids=["null_genus", "non_integer_genus", "float_genus", "negative_genus",
         "non_list_c_list", "witness_count"],
)
def test_replay_malformed_certificate(tmp_path, capsys, key, value, message):
    form_path, cert = _reduced_certificate(tmp_path, capsys)
    cert[key] = value
    cert_path = write_json(tmp_path / "bad.json", cert)
    assert main(["replay", cert_path, form_path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("det_canonical", {"0": "1"}, "recorded canonical determinant"),
        ("P", {"rank": "2", "entries": [{"0": "1"}, {}, {"0": "-1"}, {"0": "1", "1": "1"}]},
         "determinant is not a unit"),
    ],
    ids=["changed_det_canonical", "non_unit_base_change"],
)
def test_replay_gate_mismatch(tmp_path, capsys, key, value, reason):
    form_path, cert = _reduced_certificate(tmp_path, capsys)
    cert[key] = value
    cert_path = write_json(tmp_path / "mutated.json", cert)
    assert main(["replay", cert_path, form_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "replay mismatch" in captured.err and reason in captured.err


@pytest.mark.parametrize("command", ["check", "reduce", "replay"])
def test_accept_runs_the_gate_once(tmp_path, capsys, monkeypatch, command):
    # One certificate gate: det(P) and det(A) once each, one recognition.
    form_path, cert = _reduced_certificate(tmp_path, capsys)
    argv = [command, form_path]
    if command == "replay":
        argv = [command, write_json(tmp_path / "cert.json", cert), form_path]
    calls = {"determinant": 0, "_recognize_with_reason": 0}
    for name in calls:
        original = getattr(laurentforms.forms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(laurentforms.forms, name, counted)
    assert main(argv) == 0
    assert calls["determinant"] == 2
    assert calls["_recognize_with_reason"] == (0 if command == "replay" else 1)


def test_replay_move_list(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    moves = {
        "moves": [{"kind": "transvection", "i": "1", "j": "0", "p": {"0": "-1"}}],
        "target": h2_sum(1).to_json(),
    }
    moves_path = write_json(tmp_path / "moves.json", moves)
    assert main(["replay", moves_path, form_path]) == 0
    capsys.readouterr()
    moves["moves"][0]["p"] = {"0": "-2"}
    bad_path = write_json(tmp_path / "badmoves.json", moves)
    assert main(["replay", bad_path, form_path]) == 1


@pytest.mark.parametrize(
    "target, message",
    [
        (h2_sum(2).to_json(), "rank mismatch: 2 vs 4"),
        ({"rank": "2", "entries": [{}, {"0": "1"}, {"0": "2"}, {}]}, "not Hermitian at (0,1)"),
    ],
    ids=["rank_mismatch", "non_hermitian"],
)
def test_replay_move_list_bad_target(tmp_path, capsys, target, message):
    # A target that no move list on this form can reach is malformed input
    # (exit 2, as for search), not a replay mismatch (exit 1).
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    moves = {
        "moves": [{"kind": "transvection", "i": "1", "j": "0", "p": {"0": "-1"}}],
        "target": target,
    }
    assert main(["replay", write_json(tmp_path / "moves.json", moves), form_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "replay mismatch" not in captured.err and message in captured.err


@pytest.mark.parametrize(
    "move, message",
    [
        ({"kind": "swap", "i": "7", "j": "1"}, "move index i=7 is out of range for rank 2"),
        ({"kind": "swap", "i": None, "j": "1"}, "move index i must be an integer, got None"),
        ({"kind": "swap", "i": "-1", "j": "1"}, "move index i must be nonnegative"),
        ({"kind": "transvection", "i": "1", "j": "0", "p": {"0": 1.5}},
         "bad polynomial term '0': 1.5"),
        ({"kind": "unit_scale", "i": "0", "sign": None, "k": "0"},
         "unit sign must be an integer, got None"),
    ],
    ids=["index_out_of_range", "null_index", "negative_index", "float_coefficient",
         "null_unit_sign"],
)
def test_replay_malformed_move(tmp_path, capsys, move, message):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    moves_path = write_json(tmp_path / "moves.json", {"moves": [move]})
    assert main(["replay", moves_path, form_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad move list" in captured.err and message in captured.err


def test_console_entry_point(tmp_path):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    proc = subprocess.run(
        [sys.executable, "-m", "laurentforms", "check", form_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "accept"


def test_output_numbers_are_decimal_strings(tmp_path, capsys):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    assert main(["check", form_path]) == 0
    out = capsys.readouterr().out

    def no_bare_numbers(node):
        if isinstance(node, dict):
            return all(no_bare_numbers(v) for v in node.values())
        if isinstance(node, list):
            return all(no_bare_numbers(v) for v in node)
        return not isinstance(node, (int, float))

    assert no_bare_numbers(json.loads(out))


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_output_to_an_unwritable_path_exits_two(tmp_path, capsys, where):
    form_path = write_json(tmp_path / "form.json", rank2_fixture_json())
    out = tmp_path / "missing" / "out.json" if where == "missing_dir" else tmp_path
    assert main(["check", form_path, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
