"""CLI and job entrypoint tests (mirroring the reference's CLI surface)."""

import json
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from nmalign_ray.corpus import generate_corpus

REPO = "/root/repo"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "nmalign_ray.cli", *argv],
        capture_output=True, text=True, cwd=REPO,
    )


class TestCli:
    def test_index_mode(self):
        r = run_cli("--strings1", "hello world", "goodbye moon",
                    "--strings2", "goodbye moon", "hello world")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0].split("\t")[:2] == ["0", "1"]
        assert lines[1].split("\t")[:2] == ["1", "0"]
        assert "coverage of matching inputs1: 100%" in r.stderr

    def test_show_strings_with_splits(self):
        merged = "hello wonderful w0rld pack my b0x with junk"
        r = run_cli("--strings1", "hello wonderful world", "pack my box with junk",
                    "--strings2", merged, "-x", "-s")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 2
        # split rows carry beg/end columns and slice the raw string
        assert len(lines[0].split("\t")) == 5

    def test_normalization_option(self):
        r = run_cli("--strings1", "sind", "--strings2", "ſind",
                    "-N", json.dumps({"ſ": "s"}))
        assert r.returncode == 0
        assert r.stdout.strip().split("\t")[2] == "1.00"

    def test_cutoff_unmatched_in_index_mode(self):
        r = run_cli("--strings1", "aaaa bbbb", "zzzz",
                    "--strings2", "aaaa bbbb", "-c", "0.5")
        rows = [l.split("\t") for l in r.stdout.strip().splitlines()]
        assert ["1", "-1"] == rows[1][:2]

    def test_files_mode(self, tmp_path):
        f1 = tmp_path / "a.txt"; f1.write_text("erste zeile")
        f2 = tmp_path / "b.txt"; f2.write_text("erste zeile")
        r = run_cli("--files1", str(f1), "--files2", str(f2), "-f")
        assert r.returncode == 0
        assert r.stdout.strip().split("\t")[:2] == [str(f1), str(f2)]

    def test_show_files_requires_files(self):
        r = run_cli("--strings1", "a", "--strings2", "a", "-f")
        assert r.returncode == 2


class TestExtractJob:
    def test_job_entrypoint_end_to_end(self, tmp_path):
        corpus = generate_corpus(num_docs=10, seed=42)
        inp = tmp_path / "corpus.parquet"
        pq.write_table(corpus, inp)
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps({"num_partitions": 4, "allow_splits": True}))
        out = tmp_path / "out"
        r = subprocess.run(
            [sys.executable, "-m", "nmalign_ray.jobs.extract_job",
             "--input", str(inp), "--output", str(out), "--config", str(cfgfile)],
            capture_output=True, text=True, cwd=REPO,
            env={"RAY_ADDRESS": "local", "PATH": "/usr/bin:/bin",
                 "HOME": "/root", "PYTHONPATH": REPO},
        )
        assert r.returncode == 0, r.stderr[-2000:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["num_docs"] == 10
        assert (out / "_manifest").is_dir()

    def test_job_two_table_abort_on_missing(self, tmp_path):
        # missing_input="abort" in the job config maps to
        # OCRD_MISSING_INPUT=ABORT semantics and fails the job
        corpus = generate_corpus(num_docs=6, seed=42)
        inp = tmp_path / "inputs.parquet"
        refs = tmp_path / "refs.parquet"
        pq.write_table(corpus.select(["doc_id", "spans"]), inp)
        pq.write_table(corpus.select(["doc_id", "ref_spans"]).slice(0, 3), refs)
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps(
            {"num_partitions": 2, "missing_input": "abort"}))
        out = tmp_path / "out"
        r = subprocess.run(
            [sys.executable, "-m", "nmalign_ray.jobs.extract_job",
             "--input", str(inp), "--output", str(out),
             "--config", str(cfgfile), "--refs", str(refs)],
            capture_output=True, text=True, cwd=REPO,
            env={"RAY_ADDRESS": "local", "PATH": "/usr/bin:/bin",
                 "HOME": "/root", "PYTHONPATH": REPO},
        )
        assert r.returncode != 0
        assert "MissingInputError" in (r.stderr + r.stdout)


    def test_config_rejects_unknown_keys(self):
        from nmalign_ray.jobs.extract_job import JOB_KEYS, config_from_json

        # every documented key is accepted
        doc = {"normalization": {"x": "y"}, "cutoff": 0.5,
               "allow_splits": False, "salt_threshold": 99,
               "num_partitions": 8, "refs": "/data/refs",
               "missing_input": "abort", "on_duplicate": "last"}
        assert set(doc) == JOB_KEYS
        cfg = config_from_json(doc)
        assert (cfg.salt_threshold, cfg.num_partitions) == (99, 8)
        assert cfg.align.cutoff == 0.5 and cfg.align.try_subseg is False
        # a retired or misspelled key is named in the error
        for key in ("align_mode", "align_concurrency", "align_batch_size",
                    "salt_treshold"):
            with pytest.raises(ValueError, match=key):
                config_from_json({"num_partitions": 4, key: 1})


class TestCliFilelist:
    def test_filelist_inputs(self, tmp_path):
        files = []
        for i, text in enumerate(["erste zeile hier", "zweite zeile dort"]):
            f = tmp_path / f"l{i}.txt"
            f.write_text(text)
            files.append(str(f))
        lst = tmp_path / "list.txt"
        lst.write_text("\n".join(files) + "\n")
        r = run_cli("--filelist1", str(lst), "--filelist2", str(lst), "-f")
        assert r.returncode == 0
        rows = [l.split("\t") for l in r.stdout.strip().splitlines()]
        assert rows[0][0] == rows[0][1] == files[0]
        assert rows[1][2] == "1.00"


def test_parse_stage_seconds():
    import sys as _sys
    import os as _os
    _sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))
    import bench

    text = (
        "Operator 1 ReadParquet: 16 tasks executed, 16 blocks produced in 1.7s\n"
        "* Remote wall time: 4.44ms min\n"
        "Operator 3 Repartition: executed in 4.9s\n"
        "Operator 8 TinyStage: executed in 875us\n"
        "Operator 9 VeryLongName" + "x" * 80 + ": executed in 250ms\n"
        "Operator 10 VeryLongName" + "x" * 80 + "y: executed in 2.0s\n"
    )
    got = bench._parse_stage_seconds(text)
    assert got["ReadParquet"] == 1.7
    assert got["Repartition"] == 4.9
    assert got["TinyStage"] == 0.0  # microsecond stages parse, round to 0
    # truncated long names get an operator-index prefix so two fused
    # chains sharing a 60-char prefix cannot collide into one key
    long_keys = sorted(k for k in got if "VeryLongName" in k)
    assert long_keys == ["10:" + "VeryLongName" + "x" * 48,
                         "9:" + "VeryLongName" + "x" * 48]
    assert got[long_keys[1]] == 0.25 and got[long_keys[0]] == 2.0
    assert bench._parse_stage_seconds("") == {}
