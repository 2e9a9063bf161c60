import io
import json
import math
import random
from pathlib import Path

import pytest

from affinv.cli import main
from affinv.report import run_suite_from_config

GOLDEN = Path(__file__).parent / "golden"

GENERIC_2X2 = '{"n":2,"entries":[["1","2"],["3","4"]]}'
COMPANION_N2 = '{"n":2,"entries":[["0","1"],["1","1"]]}'


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

    def test_determinism_modulo_timestamp(self):
        cfg = {"suite": "identity", "n": 3, "samples": 10, "seed": 42}
        a = run_suite_from_config(cfg).to_json()
        b = run_suite_from_config(cfg).to_json()
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

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
            '{"suite":"identity","n":2.7}',
            '{"suite":"identity","n":"3"}',
            '{"suite":"identity","samples":true}',
            '{"suite":"lemma","seed":null}',
        ],
    )
    def test_bad_numeric_config_exits_2_with_one_error_line(
        self, cfg, monkeypatch, capsys
    ):
        self._assert_one_error_line(cfg, monkeypatch, capsys)

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


class TestSympoly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_golden_outputs(self, n, tmp_path):
        target = tmp_path / f"sympoly_n{n}.json"
        code = main(["sympoly", "--n", str(n), "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == (GOLDEN / f"sympoly_n{n}.json").read_bytes()

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
