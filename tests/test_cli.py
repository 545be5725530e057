import json
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import cli
from delpezzo.classify import classify_rows
from delpezzo.lattice import class_from_json, model_from_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_p3_markdown_golden(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "3", "--format", "markdown"])
    assert code == 0
    assert out == (GOLDEN / "classify_p3.md").read_text()


def test_classify_p2_markdown_golden(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "2", "--format", "markdown"])
    assert code == 0
    assert out == (GOLDEN / "classify_p2.md").read_text()


def test_classify_p2_json_golden_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "2", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "classify_p2.json").read_text()
    payload = json.loads(out)
    rows = classify_rows(2)
    assert len(payload) == len(rows)
    for obj, row in zip(payload, rows):
        assert model_from_json(obj["model"]) == row.model
        assert class_from_json(obj["e"]) == row.e
        assert obj["kx_square"]["display"] == row.kx_display


def test_classify_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["classify", "--p", "2", "--audit"])
    _, second, _ = run_cli(capsys, ["classify", "--p", "2", "--audit"])
    assert first == second


def test_classify_audit_shows_both_outcomes(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "2", "--audit"])
    assert code == 0
    assert "m in {2, 4}" in out
    assert "m in {2, 4, 8}" in out  # the raw index computation disagrees


def test_classify_audit_json(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "2", "--audit", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 12
    weighted = next(a for a in payload["audit"] if a["name"].startswith("P(1,1,m)"))
    assert weighted["stated"] == [2, 4]
    assert weighted["computed"] == [2, 4, 8]


def test_classify_no_fold(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--p", "2", "--no-fold", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)) == 13


def test_classify_bad_p(capsys):
    code, _, err = run_cli(capsys, ["classify", "--p", "5"])
    assert code == 2
    assert "p 2 or --p 3" in err


def test_classify_m_max_below_one(capsys):
    for m_max in ("0", "-3"):
        code, out, err = run_cli(capsys, ["classify", "--p", "2", "--m-max", m_max])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "m_max" in err


# ---------------------------------------------------------------------------
# bound


def test_bound_r_zero(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--p", "2", "--r", "0"])
    assert code == 0
    assert out.splitlines()[0] == "9"
    assert "max{9, 2^(2r+1)}" in out


def test_bound_epsilon_json(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--p", "3", "--epsilon", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 3, "bound": 27, "formula": "max{9, 3^(ε+1)}", "epsilon": 2}


def test_bound_large_prime(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--p", "7", "--r", "10"])
    assert code == 0
    assert out.splitlines()[0] == "9"


def test_bound_requires_one_of_epsilon_r(capsys):
    code, _, _ = run_cli(capsys, ["bound", "--p", "2"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["bound", "--p", "2", "--r", "1", "--epsilon", "1"])
    assert code == 2


def test_bound_non_prime(capsys):
    code, _, err = run_cli(capsys, ["bound", "--p", "4", "--r", "1"])
    assert code == 2
    assert "prime" in err


# ---------------------------------------------------------------------------
# examples


def test_examples_markdown_golden(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--format", "markdown"])
    assert code == 0
    assert out == (GOLDEN / "examples.md").read_text()


def test_examples_verify(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--verify"])
    assert code == 0
    assert "verified: yes" in out
    assert "FAIL" not in out


def test_examples_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--verify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert len(payload["records"]) == 8
    assert all(c["ok"] for c in payload["checks"])
    for rec in payload["records"]:
        model_from_json(rec["z_model"])  # parses back


# ---------------------------------------------------------------------------
# oracle


def test_oracle_all_agree(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--family", "hirzebruch", "--m-max", "8", "--box", "12"])
    assert code == 0
    assert "diff: none" in out


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--family", "plane", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["only_closed_form"] == [] and payload["only_brute_force"] == []
    assert [c["d_display"] for c in payload["closed_form"]] == ["O(1)", "O(2)"]
    for case in payload["closed_form"]:
        class_from_json(case["d"])  # parses back


def test_oracle_bad_box(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--box", "1"])
    assert code == 2
    assert "box" in err


# ---------------------------------------------------------------------------
# lattice (stdin)


def lattice_request(capsys, monkeypatch, payload):
    return run_cli(capsys, ["lattice"], stdin=json.dumps(payload), monkeypatch=monkeypatch)


def test_lattice_intersect(capsys, monkeypatch):
    f1 = {"kind": "hirzebruch", "m": 1}
    code, out, _ = lattice_request(
        capsys,
        monkeypatch,
        {
            "op": "intersect",
            "a": {"model": f1, "coeffs": ["1", "3"]},
            "b": {"model": f1, "coeffs": ["1", "3"]},
        },
    )
    assert code == 0
    assert json.loads(out) == {"result": "5"}


def test_lattice_predicates_and_chi(capsys, monkeypatch):
    code, out, _ = lattice_request(
        capsys,
        monkeypatch,
        {"op": "is_cartier", "class": {"model": {"kind": "weighted_plane", "m": 4}, "coeffs": ["2"]}},
    )
    assert code == 0 and json.loads(out) == {"result": False}
    code, out, _ = lattice_request(
        capsys,
        monkeypatch,
        {"op": "riemann_roch_chi", "class": {"model": {"kind": "plane"}, "coeffs": ["36"]}},
    )
    assert code == 0 and json.loads(out) == {"result": "703"}


def test_lattice_resolution_pullback(capsys, monkeypatch):
    code, out, _ = lattice_request(
        capsys,
        monkeypatch,
        {"op": "resolution_pullback", "class": {"model": {"kind": "weighted_plane", "m": 2}, "coeffs": ["-4"]}},
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["coeffs"] == ["-2", "-4"]
    assert model_from_json(result["model"]).kind == "hirzebruch"


def test_lattice_blowup_round_trip(capsys, monkeypatch):
    code, out, _ = lattice_request(
        capsys, monkeypatch, {"op": "blowup", "model": {"kind": "quadric"}, "degree": 2}
    )
    assert code == 0
    model = json.loads(out)["result"]
    assert model == {"kind": "blowup", "base": {"kind": "quadric"}, "centers": [2]}
    code, out, _ = lattice_request(
        capsys,
        monkeypatch,
        {
            "op": "proper_transform",
            "model": model,
            "class": {"model": {"kind": "quadric"}, "coeffs": ["1", "1"]},
            "multiplicity": 1,
        },
    )
    assert code == 0
    assert json.loads(out)["result"]["coeffs"] == ["1", "1", "-1"]


def test_lattice_malformed_json(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["lattice"], stdin="{not json", monkeypatch=monkeypatch)
    assert code == 2
    assert "malformed JSON" in err


def test_lattice_unknown_kind(capsys, monkeypatch):
    code, _, err = lattice_request(
        capsys, monkeypatch, {"op": "canonical_square", "model": {"kind": "mystery"}}
    )
    assert code == 2
    assert "unknown model kind" in err


def test_lattice_unknown_op(capsys, monkeypatch):
    code, _, err = lattice_request(capsys, monkeypatch, {"op": "frobenius"})
    assert code == 2
    assert "unknown op" in err


def test_lattice_zero_denominator(capsys, monkeypatch):
    code, _, err = lattice_request(
        capsys,
        monkeypatch,
        {"op": "canonical_class", "model": {"kind": "lattice", "labels": ["H"], "form": [["1/0"]], "canonical": ["0"]}},
    )
    assert code == 2 and err.startswith("error: ")
    code, _, err = lattice_request(
        capsys,
        monkeypatch,
        {"op": "is_cartier", "class": {"model": {"kind": "plane"}, "coeffs": ["1/0"]}},
    )
    assert code == 2 and err.startswith("error: ")


INTEGER_FIELDS = {
    "model-m": ("m", lambda v: {"op": "canonical_square", "model": {"kind": "hirzebruch", "m": v}}),
    "discrepancy-m": ("m", lambda v: {"op": "discrepancy", "m": v}),
    "degree": ("degree", lambda v: {"op": "blowup", "model": {"kind": "quadric"}, "degree": v}),
    "centers": (
        "center degree",
        lambda v: {"op": "canonical_square", "model": {"kind": "blowup", "base": {"kind": "plane"}, "centers": [v]}},
    ),
    "multiplicity": (
        "multiplicity",
        lambda v: {
            "op": "proper_transform",
            "model": {"kind": "blowup", "base": {"kind": "quadric"}, "centers": [2]},
            "class": {"model": {"kind": "quadric"}, "coeffs": ["1", "1"]},
            "multiplicity": v,
        },
    ),
}


@pytest.mark.parametrize("bad", [2.9, 1.5, True, "2"])
@pytest.mark.parametrize("case", sorted(INTEGER_FIELDS))
def test_lattice_integer_fields_are_not_coerced(capsys, monkeypatch, case, bad):
    field, request_for = INTEGER_FIELDS[case]
    code, out, err = lattice_request(capsys, monkeypatch, request_for(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} must be a JSON integer")


# ---------------------------------------------------------------------------
# entry points


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo", "classify", "--p", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "P(1,1,3)" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo", "nonsense"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "classify" in out and "oracle" in out
