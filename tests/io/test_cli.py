"""Tests for the command-line entry point (built on the repro.api
façade: JSON schema output, search subcommand, error exit codes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import repro
from repro import __version__
from repro.__main__ import main
from repro.model.result import (
    RESULT_SCHEMA_VERSION,
    EvaluationResult,
    SearchResult,
)
from tests.io.test_yaml_spec import (
    BAD_ARCH_ENTRIES,
    BAD_SAF_ENTRIES,
    FULL_SPEC,
    spec_with_bad_arch,
    spec_with_bad_safs,
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(FULL_SPEC)
    return str(path)


@pytest.fixture
def overflow_spec_file(tmp_path):
    spec = yaml.safe_load(FULL_SPEC)
    spec["arch"]["storage"][1]["capacity_words"] = 4
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(spec))
    return str(path)


class TestCLI:
    def test_evaluate(self, spec_file, capsys):
        assert main(["evaluate", spec_file]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "energy" in out

    def test_evaluate_verbose(self, spec_file, capsys):
        assert main(["evaluate", spec_file, "-v"]) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out and "mapping" in out
        assert "cache stages" in out

    def test_evaluate_with_search(self, spec_file, capsys):
        assert main(["evaluate", spec_file, "--search", "--budget", "8"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_installed_metadata_matches_module(self):
        # pyproject.toml reads its version from repro.__version__, so
        # an installed package can never report a different number.
        from importlib.metadata import PackageNotFoundError, version

        try:
            installed = version("repro")
        except PackageNotFoundError:
            pytest.skip("repro is not installed (running from src/)")
        assert installed == __version__


class TestJsonOutput:
    def test_evaluate_json_round_trips(self, spec_file, capsys):
        assert main(["evaluate", spec_file, "--json", "--cold"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == RESULT_SCHEMA_VERSION
        assert data["kind"] == "evaluation"
        assert EvaluationResult.from_dict(data).to_dict() == data

    def test_search_json_round_trips(self, spec_file, capsys):
        assert main(
            ["search", spec_file, "--json", "--budget", "8", "--cold"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "search"
        assert SearchResult.from_dict(data).to_dict() == data
        assert data["best"]["schema"] == RESULT_SCHEMA_VERSION


class TestSearchCommand:
    def test_search_prints_winner(self, spec_file, capsys):
        assert main(["search", spec_file, "--budget", "8", "--cold"]) == 0
        out = capsys.readouterr().out
        assert "best mapping" in out and "cycles" in out

    def test_search_seed_changes_sampling(self, spec_file):
        # Just proving the flag is wired through; both must succeed.
        assert main(
            ["search", spec_file, "--budget", "8", "--seed", "7", "--cold"]
        ) == 0

    def test_flag_parity_across_subcommands(self, spec_file):
        # Both subcommands accept the full shared flag set.
        assert main(
            ["search", spec_file, "--budget", "8", "--no-capacity-check",
             "--parallel", "2", "--cold"]
        ) == 0
        assert main(
            ["evaluate", spec_file, "--search", "--budget", "8",
             "--seed", "3", "--parallel", "2", "--cold"]
        ) == 0


class TestErrorExitCodes:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.yaml"), "--cold"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        assert main(["evaluate", str(path), "--cold"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_capacity_overflow_exits_2(self, overflow_spec_file, capsys):
        assert main(["evaluate", overflow_spec_file, "--cold"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "overflow" in err

    @pytest.mark.parametrize("command", ["search", "evaluate"])
    def test_zero_budget_exits_2(self, spec_file, capsys, command):
        argv = [command, spec_file, "--budget", "0", "--cold"]
        if command == "evaluate":
            argv.append("--search")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "search_budget" in err

    def test_serve_zero_budget_fails_at_boot(self, tmp_path):
        # A child process with a timeout: a daemon that boots anyway
        # would otherwise serve forever.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", str(tmp_path / "daemon.sock"),
                "--budget", "0", "--cold",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert "search_budget" in done.stderr

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--workers", "0"], "workers"),
            (["--queue-depth", "0"], "queue_depth"),
            (["--port", "70000"], "port"),
        ],
        ids=["workers", "queue-depth", "port"],
    )
    def test_serve_bad_config_fails_at_boot(self, tmp_path, flags, field):
        # --workers 0 used to boot and hang every search, --queue-depth
        # 0 shed them all, and --port 70000 died in bind().
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", str(tmp_path / "daemon.sock"), "--cold", *flags,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert field in lines[0]

    def test_overflow_allowed_with_flag(self, overflow_spec_file, capsys):
        code = main(
            ["evaluate", overflow_spec_file, "--no-capacity-check", "--cold"]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out


class TestDensitiesBoundary:
    """A malformed ``densities`` section exits 2 with one ``error:``
    line naming the offending entry (no traceback, no silent 1.0)."""

    @pytest.mark.parametrize(
        "section,needle",
        [
            ({"A": "half", "B": 0.6}, "'A'"),
            ([0.25, 0.6], "densities"),
            ({"A": True, "B": 0.6}, "'A'"),
        ],
        ids=["string", "list", "bool"],
    )
    def test_bad_densities_exit_2(self, tmp_path, capsys, section, needle):
        spec = yaml.safe_load(FULL_SPEC)
        spec["workload"]["densities"] = section
        path = tmp_path / "densities.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert main(["evaluate", str(path), "--cold"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:") and needle in lines[0]


class TestFormatBoundary:
    """A malformed ``safs.formats`` entry exits 2 with one ``error:``
    line naming the offending rank (no traceback, no negative
    metadata)."""

    @pytest.mark.parametrize(
        "fmt,needle",
        [
            ([{"rank": "CP", "coord_bits": "3"}], "coord_bits"),
            ([{"rank": "CP", "bogus": 1}], "bogus"),
            ([{"rank": "B", "coord_bits": 3}], "coord_bits"),
            ([{"coord_bits": 3}], "'rank'"),
            (["CP"], "'CP'"),
            ("B^x-CP", "B^x"),
            ([{"rank": "CP", "coord_bits": -2}], "coord_bits"),
        ],
        ids=[
            "str-bits", "unknown-key", "foreign-key", "no-rank",
            "not-a-mapping", "text-count", "negative-bits",
        ],
    )
    def test_bad_format_exits_2(self, tmp_path, capsys, fmt, needle):
        spec = yaml.safe_load(FULL_SPEC)
        spec["safs"]["formats"][0]["format"] = fmt
        path = tmp_path / "format.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert main(["evaluate", str(path), "--cold"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:") and needle in lines[0]
        assert "format rank" in lines[0]


class TestArchBoundary:
    """A bad architecture entry (a zero, negative or non-numeric
    bandwidth, a fractional count, an unknown key, a non-mapping entry)
    exits 2 with one ``error:`` line naming it, not a traceback or a
    silently wrong result."""

    @pytest.mark.parametrize("path,value,needle", BAD_ARCH_ENTRIES)
    def test_bad_arch_entry_exits_2(self, tmp_path, capsys, path, value, needle):
        spec_file = tmp_path / "arch.yaml"
        spec_file.write_text(yaml.safe_dump(spec_with_bad_arch(path, value)))
        assert main(["evaluate", str(spec_file), "--cold"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:") and needle in lines[0]


class TestSAFBoundary:
    """A malformed ``safs`` entry (not a mapping, a missing field, an
    unknown ``kind``, a ``target`` without a ``level``) exits 2 with
    one ``error:`` line naming it, not a traceback."""

    @pytest.mark.parametrize("path,value,needle", BAD_SAF_ENTRIES)
    def test_bad_saf_entry_exits_2(self, tmp_path, capsys, path, value, needle):
        spec_file = tmp_path / "safs.yaml"
        spec_file.write_text(yaml.safe_dump(spec_with_bad_safs(path, value)))
        assert main(["evaluate", str(spec_file), "--cold"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:") and needle in lines[0]
