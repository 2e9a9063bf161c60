import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from affinv.cli import _analyze_markdown, _report_markdown, main
from affinv.exactmat import MatrixJSONError, parse_rational
from affinv.fields import FieldError, field_from_json
from affinv.report import _SUITE_KEYS, SuiteConfigError, _read_config, run_suite_from_config

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

GENERIC_2X2 = '{"n":2,"entries":[["1","2"],["3","4"]]}'
COMPANION_N2 = '{"n":2,"entries":[["0","1"],["1","1"]]}'
IDENTITY_N1 = '{"suite":"identity","n":1,"samples":1}'


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return main(argv)


class TestAnalyze:
    def test_generic_matrix(self, monkeypatch, capsys):
        code = run_cli(["analyze", "-"], GENERIC_2X2, monkeypatch)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["D"] == "-3"
        assert out["in_omega"] is True
        assert out["regular"] is True
        assert out["char_poly"] == ["-2", "-5", "1"]
        assert out["conjugator"] is None
        assert out["sign_convention"] == "(-1)^(n(n-1)/2)"

    def test_companion_value(self, monkeypatch, capsys):
        code = run_cli(["analyze", "-"], COMPANION_N2, monkeypatch)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["D"] == "-1"
        assert out["in_omega"] is True

    def test_golden_outputs(self, monkeypatch, tmp_path):
        for stdin_text, golden in [
            (GENERIC_2X2, "analyze_generic_2x2.json"),
            (COMPANION_N2, "analyze_companion_n2.json"),
        ]:
            target = tmp_path / golden
            code = run_cli(["analyze", "-", "--out", str(target)], stdin_text, monkeypatch)
            assert code == 0
            assert target.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_conjugate_flag_inside_omega(self, monkeypatch, capsys):
        code = run_cli(["analyze", "-", "--conjugate"], GENERIC_2X2, monkeypatch)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["conjugator"] == {"n": 2, "entries": [["1", "0"], ["0", "1"]]}

    def test_conjugate_flag_diagonal(self, monkeypatch, capsys):
        stdin_text = '{"n":2,"entries":[["1","0"],["0","2"]]}'
        code = run_cli(["analyze", "-", "--conjugate", "--seed", "3"], stdin_text, monkeypatch)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["conjugator"] is not None
        assert out["in_omega"] is False

    def test_conjugate_non_regular_exits_3(self, monkeypatch, capsys):
        stdin_text = '{"n":2,"entries":[["1","0"],["0","1"]]}'
        code = run_cli(["analyze", "-", "--conjugate"], stdin_text, monkeypatch)
        assert code == 3
        assert "not regular" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, monkeypatch, capsys):
        code = run_cli(["analyze", "-"], '{"n":2,"entries":[["1/0","2"],["3","4"]]}', monkeypatch)
        assert code == 2

    @pytest.mark.parametrize(
        "stdin_text",
        ['{"n":3,"n":1,"entries":[["2"]]}', '{"n":1,"entries":[["2"]],"entries":[["3"]]}'],
    )
    def test_repeated_key_exits_2_with_one_error_line(self, stdin_text, monkeypatch, capsys):
        # json.load keeps the last value of a repeated key: the first input
        # read as the 1 x 1 matrix [2]
        code = run_cli(["analyze", "-"], stdin_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read JSON input: repeated key")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", ["5\n", "1/2\n", "\u0663", "\uff13", "\u0661/\u0662"])
    def test_rational_beyond_ascii_p_or_p_over_q_exits_2(self, text, monkeypatch, capsys):
        # "$" matches before a trailing newline and "\d" any Unicode digit,
        # and int() reads both
        with pytest.raises(MatrixJSONError):
            parse_rational(text)
        with pytest.raises(FieldError, match="const value: malformed rational"):
            field_from_json({"kind": "const", "value": text})
        code = run_cli(["analyze", "-"], json.dumps({"n": 1, "entries": [[text]]}), monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: malformed rational")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("entry", ['"' + "9" * 5000 + '"', "9" * 5000])
    def test_entry_beyond_int_string_limit_exits_2(self, entry, monkeypatch, capsys):
        stdin_text = '{"n":2,"entries":[[%s,"0"],["0","1"]]}' % entry
        code = run_cli(["analyze", "-"], stdin_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_result_beyond_int_string_limit_exits_2(self, monkeypatch, capsys):
        # 2000-digit entries are accepted, but D (degree 3) has ~6000 digits
        rng = random.Random(5)
        entries = [
            [str(rng.randrange(10**1999, 10**2000)) for _ in range(3)] for _ in range(3)
        ]
        stdin_text = json.dumps({"n": 3, "entries": entries})
        code = run_cli(["analyze", "-"], stdin_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_markdown_rendering(self, monkeypatch, capsys):
        code = run_cli(["analyze", "-", "--markdown"], GENERIC_2X2, monkeypatch)
        assert code == 0
        out = capsys.readouterr().out
        assert "| D | -3 |" in out


def test_parser_built_once_carries_no_state_between_calls(monkeypatch, capsys):
    """One cached parser serves every call; each result equals that of a call
    on a freshly built parser, so an argparse error, an analyze with --seed
    and a verify without it leave nothing behind."""
    from affinv.cli import build_parser

    calls = [
        (["analyze", "--no-such-flag"], None),
        (["analyze", "-", "--conjugate", "--seed", "3"], '{"n":2,"entries":[["1","0"],["0","2"]]}'),
        (["verify", "-"], '{"suite":"identity","n":2,"samples":3,"seed":5}'),
    ]

    def call(argv, stdin_text):
        try:
            code = run_cli(argv, stdin_text, monkeypatch)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        return (code, *capsys.readouterr())

    reused = [call(*c) for c in calls]
    assert build_parser() is build_parser()
    fresh = []
    for c in calls:
        build_parser.cache_clear()
        fresh.append(call(*c))
    assert [r[0] for r in reused] == [2, 0, 0]
    assert json.loads(reused[2][1])["seed"] == 5
    assert reused == fresh


class TestVerify:
    def test_identity_suite_passes(self, monkeypatch, capsys):
        cfg = '{"suite":"identity","n":2,"samples":15,"seed":7}'
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert all(p["failures"] == 0 for p in report["properties"])

    def test_unknown_suite_exits_2(self, monkeypatch, capsys):
        code = run_cli(["verify", "-"], '{"suite":"nosuch"}', monkeypatch)
        assert code == 2

    def test_bad_json_exits_2(self, monkeypatch, capsys):
        code = run_cli(["verify", "-"], "not json", monkeypatch)
        assert code == 2

    def test_seed_flag_overrides_config(self, monkeypatch, capsys):
        cfg = '{"suite":"identity","n":2,"samples":5,"seed":1}'
        run_cli(["verify", "-", "--seed", "99"], cfg, monkeypatch)
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99

    def test_identity_report_golden(self, monkeypatch, capsys):
        # the report pins every count and verdict
        cfg = '{"suite":"identity","n":4,"samples":20,"seed":7}'
        assert run_cli(["verify", "-"], cfg, monkeypatch) == 0
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / "identity_n4_s20_seed7.json").read_bytes()

    @pytest.mark.parametrize(
        "samples, seed, code",
        [(200_000, 14, 1), (1_000_000, 4, 0)],  # one failing chunk with a witness; five chunks
    )
    def test_weak_report_golden(self, samples, seed, code, monkeypatch, capsys):
        cfg = json.dumps({"suite": "weak", "n": 2, "samples": samples, "seed": seed})
        assert run_cli(["verify", "-"], cfg, monkeypatch) == code
        out = capsys.readouterr().out
        golden = GOLDEN / f"weak_n2_s{samples}_seed{seed}.json"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "cfg, golden, code",
        [
            ({"n": 2, "samples": 50, "seed": 1}, "lemma_n2_s50_seed1.json", 0),
            (  # tight tolerances: four properties fail, each with a witness
                {
                    "n": 3,
                    "samples": 2,
                    "seed": 5,
                    "fd": {"tau_sys": 1e-12, "tau_res": 1e-13, "tau_comb": 1e-14, "tau_lemma": 1e-13},
                },
                "lemma_n3_s2_seed5_tight.json",
                1,
            ),
        ],
    )
    def test_lemma_report_golden(self, cfg, golden, code, monkeypatch, capsys):
        assert run_cli(["verify", "-"], json.dumps({"suite": "lemma", **cfg}), monkeypatch) == code
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_two_runs_write_identical_bytes(self, monkeypatch, capsys):
        cfg = '{"suite":"identity","n":3,"samples":10,"seed":42}'
        outputs = []
        for _ in range(2):
            assert run_cli(["verify", "-"], cfg, monkeypatch) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]

    def test_lemma_suite_small(self, monkeypatch, capsys):
        cfg = '{"suite":"lemma","n":2,"samples":3,"seed":1}'
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = {p["name"] for p in report["properties"]}
        assert "p_invariance_of_invariant_fields" in names

    def test_weak_suite_small(self, monkeypatch, capsys, tmp_path):
        target = tmp_path / "weak.json"
        cfg = '{"suite":"weak","n":2,"samples":20000,"seed":5}'
        code = run_cli(["verify", "-", "--out", str(target)], cfg, monkeypatch)
        assert code == 0
        report = json.loads(target.read_text())
        assert report["pass"] is True

    def test_failing_suite_exits_1_with_report(self, monkeypatch, capsys):
        # a single sample cannot certify the 5-sigma witness, so the weak
        # suite fails honestly while still emitting its report
        cfg = '{"suite":"weak","n":2,"samples":1,"seed":5}'
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        failing = [p for p in report["properties"] if p["failures"] > 0]
        assert failing

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_exits_1_with_failing_report(self, monkeypatch, capsys):
        # a step this large overflows the field values to inf - inf = NaN
        cfg = '{"suite":"lemma","n":2,"samples":1,"fd":{"h":1e300}}'
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert any(p["failures"] > 0 and p["witness"] for p in report["properties"])
        # a NaN derivative that is not the first of its maximum still counts
        [pres] = [
            p for p in report["properties"]
            if p["name"] == "p_invariance_of_invariant_fields"
        ]
        assert pres["failures"] > 0 and math.isnan(pres["worst_residual"])

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"lemma","n":2,"samples":1,"fd":{"h":1e300}}',
            '{"suite":"weak","samples":2000,"seed":1,"fd":{"h":1e300}}',
        ],
    )
    def test_nan_report_writes_no_numpy_warning(self, cfg, monkeypatch, capsys):
        # the NaN is reported as a failed check with its witness; numpy's
        # overflow warnings would only repeat it, naming source lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["verify", "-"], cfg, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "" and caught == []
        # the same suite outside the CLI: the errstate scope is the suite's own
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            direct = run_suite_from_config(json.loads(cfg))
        report = json.loads(captured.out)  # compared as text, since NaN != NaN
        assert json.dumps(report, sort_keys=True) == json.dumps(direct, sort_keys=True)

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"weak","quadrature":{"half_width":-1}}',
            '{"suite":"weak","quadrature":{"half_width":NaN}}',
            '{"suite":"weak","quadrature":[1]}',
            '{"suite":"lemma","fd":{"h":NaN}}',
            '{"suite":"lemma","fd":{"tau_sys":Infinity}}',
            '{"suite":"weak","seed":1e400}',
            '{"suite":"identity","n":1e400}',
            '{"suite":"lemma","samples":1e400}',
            '{"suite":"weak","quadrature":{"half_width":1e200}}',
            '{"suite":"weak","quadrature":{"half_width":1e-200}}',
            '{"suite":"weak","seed":-1}',
            '{"suite":"lemma","fd":{"delta":2}}',
            '{"suite":"lemma","n":3,"samples":3,"seed":0,"fd":{"h":1.7e308}}',
            '{"suite":"weak","samples":2000,"seed":1,"fd":{"h":1.7e308}}',
            '{"suite":"identity","n":2.7}',
            '{"suite":"identity","n":"3"}',
            '{"suite":"identity","samples":true}',
            '{"suite":"lemma","seed":null}',
            '{"suite":"weak","samples":10,"seed":1,"quadrature":{"half_width":"2"}}',
            '{"suite":"weak","samples":10,"seed":1,"quadrature":{"half_width":true}}',
            '{"suite":"weak","samples":10,"seed":1,"fd":{"h":false}}',
            '{"suite":"lemma","fd":{"h":true}}',
            '{"suite":"lemma","fd":{"delta":true}}',
            '{"suite":"lemma","fd":{"tau_res":"1e-6"}}',
            '{"suite":"lemma","fd":{"tau_comb":[1]}}',
            '{"suite":"lemma","n":2,"samples":1,"fd":{"tau_sys":-1}}',
            '{"suite":"lemma","n":2,"samples":1,"fd":{"tau_lemma":-1e-9}}',
            '{"suite":"lemma","n":2,"samples":1,"fd":{"tau_comb":0}}',
        ],
    )
    def test_bad_numeric_config_exits_2_with_one_error_line(
        self, cfg, monkeypatch, capsys
    ):
        self._assert_one_error_line(cfg, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"lemma","n":3,"samples":2,"seed":0,"fd":{"h":1e-17}}',
            '{"suite":"weak","samples":2000,"seed":1,"fd":{"h":1e-17}}',
        ],
    )
    def test_step_that_cannot_move_a_unit_entry_exits_2(self, cfg, monkeypatch, capsys):
        # 1 + h == 1: x +- h[E_ij, x] rounds back to x and every residual reads 0
        self._assert_one_error_line(cfg, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"lemma","n":3,"samples":2,"seed":0,"fd":{"h":1.2e-16}}',
            '{"suite":"weak","samples":2000,"seed":1,"fd":{"h":1.2e-16}}',
        ],
    )
    def test_step_that_moves_a_unit_entry_is_accepted(self, cfg, monkeypatch, capsys):
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # the suite ran; such a step may fail it honestly
        assert report["config"]["fd"]["h"] == 1.2e-16

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"identity","n":1,"sampels":3}',
            '{"suite":"identity","fd":{"h":1e-5}}',
            '{"suite":"identity","quadrature":{"half_width":2}}',
            '{"suite":"lemma","quadrature":{"half_width":2}}',
            '{"suite":"lemma","fd":{"hh":1e-5}}',
            '{"suite":"lemma","fd":[1]}',
            '{"suite":"weak","fd":{"tau_res":1e-3}}',
            '{"suite":"weak","quadrature":{"n_samples":5}}',
        ],
    )
    def test_key_outside_the_suite_table_exits_2_with_one_error_line(
        self, cfg, monkeypatch, capsys
    ):
        self._assert_one_error_line(cfg, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"identity","n":99,"n":2,"samples":1}',
            '{"suite":"weak","samples":2000,"seed":1,"fd":{"h":0.1,"h":1e-17}}',
        ],
    )
    def test_repeated_key_exits_2_with_one_error_line(self, cfg, monkeypatch, capsys):
        # json.load keeps the last value of a repeated key: the first config
        # ran an n = 2 identity suite, though n = 99 alone exits 2
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read JSON input: repeated key")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"identity","n":13,"samples":1}',
            '{"suite":"identity","n":1,"samples":10001}',
            '{"suite":"lemma","n":6,"samples":1}',
            '{"suite":"lemma","n":2,"samples":1001}',
        ],
    )
    def test_value_above_the_suite_bound_exits_2_with_one_error_line(
        self, cfg, monkeypatch, capsys
    ):
        self._assert_one_error_line(cfg, monkeypatch, capsys)

    @pytest.mark.parametrize("suite", sorted(_SUITE_KEYS))
    def test_integer_keys_are_read_only_inside_their_range(self, suite):
        ints = _SUITE_KEYS[suite][0]
        for index, (key, (_, low, high)) in enumerate(ints.items()):
            for value in (low, high):
                if math.isfinite(value):
                    assert _read_config({key: value}, suite)[index] == value
            for value in (low - 1, high + 1, low - 10**100, high + 10**100):
                if math.isfinite(value):
                    with pytest.raises(SuiteConfigError, match=f"^{key} must be in"):
                        _read_config({key: value}, suite)

    def test_bounds_admit_every_documented_and_benchmarked_config(self, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        configs = [json.loads(c) for c in re.findall(r"'(\{\"suite\"[^']*\})'", readme)]
        assert len(configs) >= 3
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = pytest.importorskip("workloads")
        for workload in workloads.WORKLOADS.values():
            for rid in workload.pool():
                request = workloads.build(rid)
                if request.argv[0] == "verify":
                    configs.append(json.loads(request.stdin))
        for config in configs:
            _read_config(config, config["suite"])

    @staticmethod
    def _assert_one_error_line(cfg, monkeypatch, capsys):
        code = run_cli(["verify", "-"], cfg, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "cfg",
        [
            '{"suite":"lemma","n":2,"samples":1,"seed":1,'
            '"fd":{"scheme":"central","h":1e-5,"delta":0.5}}',
            '{"suite":"weak","n":2,"samples":20000,"seed":5,'
            '"fd":{"h":1e-5},"quadrature":{"half_width":2}}',
        ],
    )
    def test_every_key_in_the_suite_table_is_accepted(self, cfg, monkeypatch, capsys):
        assert run_cli(["verify", "-"], cfg, monkeypatch) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["analyze", "-"], GENERIC_2X2),
        (["analyze", "-", "--markdown"], GENERIC_2X2),
        (["verify", "-"], IDENTITY_N1),
        (["sympoly", "--n", "2"], None),
        (["verify", "-", "--markdown"], IDENTITY_N1),
    ],
)
def test_unwritable_out_exits_2_with_one_error_line(
    argv, stdin_text, target, tmp_path, monkeypatch, capsys
):
    # --out is written before anything reaches stdout, so a --markdown table
    # is not printed ahead of the error
    out = tmp_path / "absent" / "x.json" if target == "missing" else tmp_path
    code = run_cli(argv + ["--out", str(out)], stdin_text, monkeypatch)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert captured.out == ""


# a buffered stdout fails at main's flush, an unbuffered one at a write;
# --help and --version write from inside argparse
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["verify", "-"], IDENTITY_N1),
        (["analyze", "-"], GENERIC_2X2),
        (["--version"], ""),
        (["--help"], ""),
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, stdin_text, unbuffered):
    # a reader that stops early, as `| head -1` does; exit 1 would claim a
    # failed suite
    proc = subprocess.Popen(
        [sys.executable, "-m", "affinv.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered},
    )
    proc.stdout.close()
    _, err = proc.communicate(stdin_text.encode(), timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "argv, stdin_text, render",
    [
        (["analyze", "-"], GENERIC_2X2, _analyze_markdown),
        (["verify", "-"], IDENTITY_N1, _report_markdown),
    ],
)
def test_markdown_with_writable_out_writes_the_json_file_and_the_table(
    argv, stdin_text, render, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "x.json"
    code = run_cli(argv + ["--markdown", "--out", str(out)], stdin_text, monkeypatch)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert captured.out == render(payload)


class TestSympoly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_golden_outputs(self, n, tmp_path):
        target = tmp_path / f"sympoly_n{n}.json"
        code = main(["sympoly", "--n", str(n), "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == (GOLDEN / f"sympoly_n{n}.json").read_bytes()

    def test_stdout_gets_the_golden_bytes_piece_by_piece(self, monkeypatch):
        # the encoder's chunks go to the stream as they come, so the whole
        # indent-2 text never exists as one string
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr("sys.stdout", Recorder())
        assert main(["sympoly", "--n", "3"]) == 0
        golden = (GOLDEN / "sympoly_n3.json").read_bytes().decode()
        assert "".join(writes) == golden
        assert max(map(len, writes)) < len(golden) / 10

    def test_n2_single_term(self, capsys):
        code = main(["sympoly", "--n", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 1
        assert payload["term_list"] == [{"coef": "-1", "exps": [0, 0, 1, 0]}]

    def test_bound_exceeded_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("AFFINV_NMAX", raising=False)
        assert main(["sympoly", "--n", "5"]) == 2

    def test_non_integer_env_bound_exits_2_with_message(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFINV_NMAX", "abc")
        assert main(["sympoly", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: AFFINV_NMAX must be an integer\n"

    def test_env_override_above_the_ceiling_exits_2_without_expanding(
        self, capsys, monkeypatch
    ):
        # D_6 does not fit in desk-scale memory; n = 2 keeps this test instant
        monkeypatch.setenv("AFFINV_NMAX", "6")
        assert main(["sympoly", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_env_override_raises_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFINV_NMAX", "5")
        code = main(["sympoly", "--n", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 10
        assert payload["homogeneous"] is True

    def test_byte_stability(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["sympoly", "--n", "3", "--out", str(a)])
        main(["sympoly", "--n", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", [["--markdown"], ["--seed", "3"]])
    def test_analyze_and_verify_flags_exit_2_through_argparse(self, flag, capsys):
        # --out stays: test_golden_outputs writes every golden through it
        with pytest.raises(SystemExit) as exc:
            main(["sympoly", "--n", "2", *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("affinv: error: unrecognized")
