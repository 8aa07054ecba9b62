"""End-to-end command line tests, run in-process through main()."""

import json
import os

import pytest

from normgroups.catalog import catalog
from normgroups.cli import main
from normgroups.normalizing import sweep_cache_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- check -------------------------------------------------------------------


def test_check_normalizing_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--degree", "5", "--group", "AGL(1,5)",
                       "--map", "1,1,3,4,1")
    assert code == 0
    assert "status:   normalizing" in out


def test_check_failure_exits_one_with_witness(capsys):
    code, payload, _ = run_json(capsys, "check", "--degree", "5", "--group", "C5",
                                "--map", "1,1,3,4,1")
    assert code == 1
    assert payload["schema"] == 1
    assert payload["status"] == "not-normalizing"
    assert payload["witness"]["g"]["cycles"]


def test_check_m12_reports_published_witness(capsys):
    code, payload, _ = run_json(capsys, "check", "--degree", "12", "--group", "M12",
                                "--map", "1,2,3,4,5,5,6,6,6,6,6,6")
    assert code == 1
    assert payload["witness"]["g"]["cycles"] == "(1 3 2)(4 6 5)(7 9 8)"
    assert payload["trace"] == ["shortcut"]


def test_check_pins_the_witness_to_the_catalog_m12_not_its_label(tmp_path, capsys):
    # a group file is labelled by its name: one named M12 that holds only
    # a comment is the trivial group on 12 points, under which every map
    # is normalizing
    path = tmp_path / "M12"
    path.write_text("# no generators\n")
    code, payload, _ = run_json(capsys, "check", "--degree", "12", "--group-file", str(path),
                                "--map", "1,2,3,4,5,5,6,6,6,6,6,6")
    assert code == 0
    assert payload["group"] == "M12"
    assert payload["status"] == "normalizing"
    assert payload["witness"] is None


def test_witness_replay_roundtrip(capsys):
    # any printed witness must reproduce the failure in single-pair mode
    code, payload, _ = run_json(capsys, "check", "--degree", "5", "--group", "D(2*5)",
                                "--map", "1,1,1,2,3")
    assert code == 1
    cycles = payload["witness"]["g"]["cycles"]
    code2, payload2, _ = run_json(capsys, "check", "--degree", "5", "--group", "D(2*5)",
                                  "--map", "1,1,1,2,3", "--witness", cycles)
    assert code2 == 1
    assert payload2["status"] == "not-normalizing"


def test_check_pair_that_passes(capsys):
    code, payload, _ = run_json(capsys, "check", "--degree", "5", "--group", "C5",
                                "--map", "1,1,3,4,1", "--witness", "()")
    assert code == 0
    assert payload["status"] == "normalizing"


def test_check_rejects_bad_map(capsys):
    code, out, err = run(capsys, "check", "--degree", "5", "--group", "C5",
                         "--map", "1,1,9,4,1")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_check_rejects_permutation_map(capsys):
    code, _, err = run(capsys, "check", "--degree", "4", "--group", "A4",
                       "--map", "2,1,3,4")
    assert code == 2
    assert "singular" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--degree", "5", "--group", "C5", "--map", "1,1,3"],
     "expected 5 images, got 3"),
    (["check", "--degree", "5", "--group-file", "{gens}", "--map", "1,1,3,4,1"],
     "point 6 outside degree 5 (line 1)"),
    (["check", "--degree", "6", "--group", "A5", "--map", "1,1,3,4,5,6"],
     "A5 acts on 5 points, not 6"),
    (["groups", "show"], "invalid choice: 'show'"),
])
def test_degree_and_action_errors_come_from_the_first_check(tmp_path, capsys, argv, message):
    gens = tmp_path / "gens.txt"
    gens.write_text("(1 6)\n")
    try:
        code = main([arg.format(gens=gens) for arg in argv])
    except SystemExit as e:  # argparse refuses before main runs a command
        code = e.code
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["normalizing", "--degree", "4", "--group", "S4", "--workers", "0"],
     "argument --workers: 0 is below 1"),
    (["k-normalizing", "--degree", "4", "--group", "S4", "--rank", "2", "--workers", "-1"],
     "argument --workers: -1 is below 1"),
    (["classify", "--degree", "4", "--workers", "0"], "argument --workers: 0 is below 1"),
    (["reps", "--degree", "4", "--group", "S4", "--limit", "-1"],
     "argument --limit: -1 is below 0"),
])
def test_out_of_range_run_flags_are_usage_errors(capsys, argv, message):
    # they used to run one process, or list no representatives, and exit 0
    with pytest.raises(SystemExit) as refused:
        main(argv)
    captured = capsys.readouterr()
    assert refused.value.code == 2 and not captured.out
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_progress_interval_must_be_finite_and_not_negative(capsys, value):
    # -1 printed after every batch, and nan or inf never before the last
    # line; 0 stays valid (test_progress_goes_to_stderr_only runs it)
    with pytest.raises(SystemExit) as refused:
        main(["normalizing", "--degree", "4", "--group", "A4", "--progress",
              "--progress-interval", value])
    captured = capsys.readouterr()
    assert refused.value.code == 2 and not captured.out
    assert (f"error: argument --progress-interval: {value} is not a finite number "
            "of seconds >= 0") in captured.err


def test_check_requires_group(capsys):
    code, _, err = run(capsys, "check", "--degree", "5", "--map", "1,1,3,4,1")
    assert code == 2
    assert "error:" in err


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("(1 2 3 4 5)\n")
    code, payload, _ = run_json(capsys, "check", "--degree", "5",
                                "--group-file", str(path), "--map", "1,1,3,4,1")
    assert code == 1
    assert payload["group"] == "c5.txt"


def test_check_refuses_degree_past_the_int64_encoding(tmp_path, capsys):
    path = tmp_path / "c17.txt"
    path.write_text("(" + " ".join(str(p) for p in range(1, 18)) + ")\n")
    code, _, err = run(capsys, "check", "--degree", "17", "--group-file", str(path),
                       "--map", ",".join(["1"] * 9 + [str(p) for p in range(2, 10)]))
    assert code == 2
    assert "map checks stop at degree 15" in err
    # past degree 127 the refusal must come before the int8 element matrix
    path = tmp_path / "t130.txt"
    path.write_text("(1 130)\n")
    code, _, err = run(capsys, "check", "--group-file", str(path),
                       "--map", ",".join(["1", "1"] + [str(p) for p in range(3, 131)]))
    assert code == 2
    assert "map checks stop at degree 15" in err


# -- sweeps ------------------------------------------------------------------


def test_normalizing_command(capsys):
    code, payload, _ = run_json(capsys, "normalizing", "--degree", "5",
                                "--group", "D(2*5)")
    assert code == 1
    assert payload["command"] == "normalizing"
    assert payload["map"] == [1, 1, 1, 2, 3]


def test_k_normalizing_command(capsys):
    code, payload, _ = run_json(capsys, "k-normalizing", "--degree", "5",
                                "--group", "C5", "--rank", "1")
    assert code == 0
    assert payload["rank"] == 1
    assert payload["trace"] == ["analytic"]


def test_k_normalizing_bad_rank(capsys):
    code, _, err = run(capsys, "k-normalizing", "--degree", "5", "--group", "C5",
                       "--rank", "7")
    assert code == 2
    assert "k < degree" in err


@pytest.mark.slow
def test_json_reports_are_worker_count_independent(capsys):
    base = ("normalizing", "--degree", "6", "--group", "PSL(2,5)")
    _, one, _ = run(capsys, *base, "--workers", "1", "--format", "json")
    _, three, _ = run(capsys, *base, "--workers", "3", "--format", "json")
    assert one == three


def test_progress_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, "normalizing", "--degree", "4", "--group", "A4",
                         "--progress", "--progress-interval", "0", "--format", "json")
    assert code == 0
    json.loads(out)
    assert "[A4]" in err


def test_resume_cache_file(tmp_path, capsys):
    cache = str(tmp_path / "a4.sweep")
    code, payload, _ = run_json(capsys, "normalizing", "--degree", "4",
                                "--group", "A4", "--resume", cache)
    assert code == 0
    assert os.path.exists(cache)
    code2, payload2, _ = run_json(capsys, "normalizing", "--degree", "4",
                                  "--group", "A4", "--resume", cache)
    assert code2 == 0
    assert payload2 == payload


def test_cache_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NORMGROUPS_CACHE_DIR", str(tmp_path))
    code, _, _ = run_json(capsys, "normalizing", "--degree", "4", "--group", "S4")
    assert code == 0
    assert any(name.endswith(".sweep") for name in os.listdir(tmp_path))


def test_cache_mismatch_is_an_error(tmp_path, capsys):
    cache = str(tmp_path / "x.sweep")
    run(capsys, "normalizing", "--degree", "4", "--group", "A4", "--resume", cache)
    code, _, err = run(capsys, "normalizing", "--degree", "4", "--group", "S4",
                       "--resume", cache)
    assert code == 2
    assert "cache" in err


# -- classify ----------------------------------------------------------------


def test_classify_degree_4(capsys):
    code, payload, _ = run_json(capsys, "classify", "--degree", "4")
    assert code == 0
    assert payload["matches_expected"] is True
    assert payload["computed_normalizing"] == ["A4", "S4", "trivial"]


@pytest.mark.slow
def test_classify_degree_5_table_output(capsys):
    code, out, _ = run(capsys, "classify", "--degree", "5")
    assert code == 0
    assert "match: yes" in out
    assert "- C5" in out and "not-normalizing" in out


REFERENCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference")


@pytest.mark.parametrize(
    "n, workers",
    [pytest.param(n, None, id=str(n)) for n in (4, 5, 6, 7, 12)]
    + [pytest.param(n, 2, id=f"{n}-workers2") for n in (4, 5, 6, 7)],
)
def test_classify_json_matches_the_reference(capsys, monkeypatch, n, workers):
    # the benchmark's recorded classify reports, byte for byte, serial and
    # under a process pool
    monkeypatch.delenv("NORMGROUPS_CACHE_DIR", raising=False)
    pool = ["--workers", str(workers)] if workers else []
    code, out, _ = run(capsys, "classify", "--degree", str(n), *pool, "--format", "json")
    assert code == 0
    with open(os.path.join(REFERENCE_DIR, f"classify-{n}.json"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_classify_resume_keeps_one_cache_per_swept_group(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NORMGROUPS_CACHE_DIR", raising=False)
    cache = tmp_path / "caches"
    code, out, _ = run(capsys, "classify", "--degree", "4", "--resume", str(cache),
                       "--format", "json")
    assert code == 0
    swept = [catalog(v["group"], 4) for v in json.loads(out)["verdicts"]
             if v["trace"] == ["sweep"]]
    assert len(swept) == 2
    assert sorted(os.listdir(cache)) == sorted(
        os.path.basename(sweep_cache_path(str(cache), g)) for g in swept
    )
    code2, out2, _ = run(capsys, "classify", "--degree", "4", "--resume", str(cache),
                         "--format", "json")
    assert code2 == 0
    assert out2 == out


def test_classify_rejects_degree_10(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "classify", "--degree", "10")


# -- listings ----------------------------------------------------------------


def test_reps_degree_2(capsys):
    code, payload, _ = run_json(capsys, "reps", "--degree", "2", "--group", "S2")
    assert code == 0
    assert payload["count"] == 1
    assert payload["reps"] == [{"map": [1, 1], "orbit": 2}]


def test_reps_rank_filter_and_limit(capsys):
    code, payload, _ = run_json(capsys, "reps", "--degree", "4", "--group", "S4",
                                "--rank", "2")
    assert code == 0
    assert all(len(set(r["map"])) == 2 for r in payload["reps"])
    code, limited, _ = run_json(capsys, "reps", "--degree", "4", "--group", "S4",
                                "--limit", "3")
    assert limited["count"] == 3


def test_groups_list(capsys):
    code, payload, _ = run_json(capsys, "groups", "list", "--degree", "9")
    assert code == 0
    rows = {r["label"]: r for r in payload["groups"]}
    assert rows["PΓL(2,8)"]["order"] == 1512
    assert rows["PSL(2,8)"]["order"] == 504
    assert rows["ASL(2,3)"]["order"] == 216
    assert rows["AGL(2,3)"]["order"] == 432
    assert rows["A9"]["order"] == 181440
    assert rows["trivial"]["transitive"] is False


def test_groups_list_all_degrees(capsys):
    code, payload, _ = run_json(capsys, "groups", "list")
    assert code == 0
    degrees = {r["degree"] for r in payload["groups"]}
    assert degrees == {4, 5, 6, 7, 8, 9, 12}


def test_filters_command(capsys):
    code, payload, _ = run_json(capsys, "filters", "--degree", "5", "--group", "D10")
    assert code == 0
    assert payload["group"] == "D(2*5)"
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "(2,3)-homogeneous" in names


def test_filters_failure_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("(1 2 3 4)\n")
    code, payload, _ = run_json(capsys, "filters", "--degree", "4",
                                "--group-file", str(path))
    assert code == 1
    assert payload["first_rejection"] == "primitive"
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert any(c["witness_map"] for c in failing)


# -- output plumbing -----------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "check", "--degree", "5", "--group", "C5",
                       "--map", "1,1,3,4,1", "--format", "json", "--out", str(target))
    assert code == 1
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["status"] == "not-normalizing"


def test_timings_flag_adds_seconds(capsys):
    _, without, _ = run_json(capsys, "check", "--degree", "5", "--group", "C5",
                             "--map", "1,1,3,4,1")
    assert "seconds" not in without
    _, with_t, _ = run_json(capsys, "check", "--degree", "5", "--group", "C5",
                            "--map", "1,1,3,4,1", "--timings")
    assert "seconds" in with_t


def test_json_is_sorted_and_stable(capsys):
    _, first, _ = run(capsys, "check", "--degree", "5", "--group", "C5",
                      "--map", "1,1,3,4,1", "--format", "json")
    _, second, _ = run(capsys, "check", "--degree", "5", "--group", "C5",
                       "--map", "1,1,3,4,1", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert list(payload) == sorted(payload)
