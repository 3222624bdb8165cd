"""End-to-end command-line checks driven through subprocesses."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from posfactor.factorlab import (
    FactorizationSchedule,
    factorization_to_wire,
    matrix_to_positive_factors,
)
from posfactor.matcore import matrix_from_wire, matrix_to_wire

SUBCOMMAND_ARGS = {
    "density": ["density"],
    "sweep-trotter": ["sweep-trotter", "--n", "4,8,16", "--dim", "2"],
    "sweep-commutator": ["sweep-commutator", "--n", "4,8", "--dim", "2"],
    "obstruction": ["obstruction", "--n", "2"],
}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "posfactor", *args],
        capture_output=True,
        env=env,
        timeout=300,
    )


@pytest.fixture
def target_file(tmp_path):
    x = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    path = tmp_path / "target.json"
    path.write_text(json.dumps(matrix_to_wire(x)))
    return path


@pytest.fixture
def obstructed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_wire(1j * np.eye(2))))
    return path


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGS))
def test_repeated_runs_are_byte_identical(name):
    args = SUBCOMMAND_ARGS[name] + ["--seed", "7"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_factor_runs_are_byte_identical(target_file):
    args = ["factor", "--target", str(target_file), "--schedule", "4,4"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_verify_runs_are_byte_identical(target_file, tmp_path):
    out = tmp_path / "fact.json"
    made = run_cli("factor", "--target", str(target_file), "--schedule", "4,4", "--out", str(out))
    assert made.returncode == 0, made.stderr
    first = run_cli("verify", str(out))
    second = run_cli("verify", str(out))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_factor_writes_json_and_summary(target_file, tmp_path):
    out = tmp_path / "fact.json"
    result = run_cli(
        "factor", "--target", str(target_file), "--schedule", "8,8",
        "--out", str(out), "--verify",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["method"] == "polar_pipeline"
    assert payload["error"] <= 0.2
    stdout = result.stdout.decode()
    assert "factored:" in stdout
    assert "landmark=11" in stdout
    assert "FAIL" not in stdout


def test_factor_positive_definite_is_single_factor(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(matrix_to_wire(np.array([[2.0, 0.0], [0.0, 1.0]]))))
    result = run_cli("factor", "--target", str(path))
    assert result.returncode == 0
    payload = json.loads(result.stdout.decode())
    assert payload["method"] == "positive_definite"
    assert len(payload["factors"]) == 1
    assert payload["error"] == 0.0


def test_factor_determinant_obstruction_exits_2(obstructed_file):
    result = run_cli("factor", "--target", str(obstructed_file))
    assert result.returncode == 2
    assert b"det" in result.stderr


def test_factor_perturb_rescues_singular_target(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(matrix_to_wire(np.zeros((2, 2)))))
    plain = run_cli("factor", "--target", str(path))
    assert plain.returncode == 2
    rescued = run_cli("factor", "--target", str(path), "--perturb", "--eps", "0.1")
    assert rescued.returncode == 0, rescued.stderr
    payload = json.loads(rescued.stdout.decode())
    assert payload["method"] == "positive_definite"


def test_missing_target_exits_1(tmp_path):
    result = run_cli("factor", "--target", str(tmp_path / "absent.json"))
    assert result.returncode == 1


def test_unparseable_target_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = run_cli("factor", "--target", str(path))
    assert result.returncode == 1


def test_bad_flags_exit_1():
    assert run_cli("factor").returncode == 1
    assert run_cli("sweep-trotter", "--n", "abc").returncode == 1
    assert run_cli("no-such-command").returncode == 1


def test_budget_overflow_exits_1(target_file):
    result = run_cli("factor", "--target", str(target_file), "--max-factors", "5")
    assert result.returncode == 1
    assert b"budget" in result.stderr


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    result = run_cli("sweep-trotter", "--n", "4,8", "--dim", "2", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim,steps,error,factor_count"
    assert len(lines) == 3
    assert "order dim=2" in result.stdout.decode()


def test_sweep_json_format():
    result = run_cli("sweep-commutator", "--n", "4,8", "--dim", "2", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout.decode())
    assert set(payload) == {"rows", "orders", "degenerate"}
    assert payload["rows"][0]["factorCount"] == 48


def test_obstruction_csv_has_phase_column():
    result = run_cli("obstruction", "--n", "2")
    lines = result.stdout.decode().splitlines()
    assert lines[0].startswith("phase,lambda_re,lambda_im,n,in_group,best_distance,accepted")
    assert len(lines) == 9


def test_density_json_rows():
    result = run_cli("density", "--eps", "1.0", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout.decode())
    assert payload["rows"][0]["m"] == 13
    assert payload["rows"][0]["passed"] is True


def test_verify_rejects_tampered_factorization(target_file, tmp_path):
    out = tmp_path / "fact.json"
    made = run_cli("factor", "--target", str(target_file), "--schedule", "4,4", "--out", str(out))
    assert made.returncode == 0
    payload = json.loads(out.read_text())
    payload["error"] = 0.0  # stored error no longer matches the factors
    out.write_text(json.dumps(payload))
    result = run_cli("verify", str(out))
    assert result.returncode == 2
    assert b"FAIL" in result.stdout


def test_verify_rejects_a_factor_of_the_wrong_shape(target_file, tmp_path):
    out = tmp_path / "fact.json"
    made = run_cli("factor", "--target", str(target_file), "--schedule", "4,4", "--out", str(out))
    assert made.returncode == 0
    payload = json.loads(out.read_text())
    payload["factors"][1] = matrix_to_wire(np.eye(3))
    out.write_text(json.dumps(payload))
    result = run_cli("verify", str(out))
    assert result.returncode == 1
    assert b"factor 1 has shape (3, 3), target has shape (2, 2)" in result.stderr


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("schedule", {}, "schedule is missing 'trotter'"),
        ("schedule", {"trotter": "4", "commutator": 4, "maxFactors": 100000},
         "schedule 'trotter' must be a positive integer, got '4'"),
        ("schedule", {"trotter": 4, "commutator": 4.5, "maxFactors": 100000},
         "schedule 'commutator' must be a positive integer, got 4.5"),
        ("word", "flat", "word must be a list of [block_length, repeat] pairs"),
        ("word", [[3, 0], [1, 1]], "word block 0 repeat must be a positive integer, got 0"),
        ("word", [[3, 64], [1, True]], "word block 1 repeat must be a positive integer, got True"),
        ("word", [[2, 64], [1, 1]], "word block lengths sum to 3, but 4 factors are stored"),
        ("word", [[3, 10**12], [1, 1]], "word spells 3000000000001 factors, over the schedule cap 100000"),
    ],
    ids=["schedule-empty", "schedule-string", "schedule-float", "word-not-a-list",
         "word-zero-repeat", "word-bool-repeat", "word-short", "word-over-cap"],
)
def test_verify_rejects_a_malformed_schedule_or_word(target_file, tmp_path, key, value, message):
    x = matrix_from_wire(json.loads(target_file.read_text()))
    payload = factorization_to_wire(matrix_to_positive_factors(x, FactorizationSchedule(4, 4)))
    payload[key] = value
    out = tmp_path / "fact.json"
    out.write_text(json.dumps(payload))
    result = run_cli("verify", str(out))
    assert result.returncode == 1
    assert result.stderr.decode() == f"error: {message}\n"


def test_factor_summary_reports_relative_error(tmp_path):
    rel = []
    for scale in (1.0, 1e150):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(matrix_to_wire(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))))
        result = run_cli("factor", "--target", str(path), "--out", str(tmp_path / "fact.json"))
        assert result.returncode == 0, result.stderr
        summary = result.stdout.decode()
        assert re.match(r"factored: method=(\S+) error=(\S+) factors=(\d+) landmark=11 ratio=\S+ "
                        r"rel_error=\S+\n$", summary)
        rel.append(float(summary.split("rel_error=")[1]))
    assert 0.0 < rel[0] < 1.0
    assert abs(rel[1] - rel[0]) <= 1e-12 * rel[0]


def test_tolerance_env_var_must_be_positive(target_file):
    import os

    env = dict(os.environ, POSFACTOR_TOL="-1")
    result = run_cli("factor", "--target", str(target_file), env=env)
    assert result.returncode == 1


def test_factor_ill_conditioned_exits_1_with_condition_number(tmp_path):
    path = tmp_path / "ill.json"
    # det = 1 exactly, so this is a precision limit, not an obstruction
    path.write_text(json.dumps(matrix_to_wire(np.array([[1.0, 1e6], [0.0, 1.0]]))))
    result = run_cli("factor", "--target", str(path))
    assert result.returncode == 1
    assert b"cond" in result.stderr


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, posfactor; sys.exit('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr
