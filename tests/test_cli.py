import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dyadicops
from dyadicops import (
    AlphaVector,
    DyadicInterval,
    ExponentTuple,
    HaarSpectrum,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    SymbolSequence,
    analyze,
    estimate_operator_norm,
    synthesize,
)
from dyadicops import cli, paraproducts
from dyadicops.cli import main
from dyadicops.core import MAX_DEPTH
from dyadicops.normlab import FIELDS, KINDS, OPERATOR_KINDS


def write_json(path, obj):
    # the canonical form of every report
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


@pytest.fixture
def func_file(tmp_path):
    f = StepFunction.from_values([2, 0, 0, 0])
    path = tmp_path / "f.json"
    write_json(path, f.to_json_dict())
    return path


SUITES = (
    "decomposition",
    "localized",
    "adjoint",
    "transpose",
    "multiplier-coeff",
    "commutator-constant",
)

# what the verify suites call with their random inputs
CHECKED = (
    "product_decomposition_residual",
    "localized_average_residual",
    "adjoint_residual",
    "multilinear_multiplier",
    "commutator",
)

# sha256 prefixes of those inputs at --m 3 --depth 3 --trials 4 --seed 5
FROZEN_INPUTS = {
    ("decomposition", "rational"): "0e492acd87382bb7",
    ("decomposition", "float64"): "44f4a63020bf162c",
    ("localized", "rational"): "852a475fdb6a460c",
    ("localized", "float64"): "be4a4a5fa6b63cf9",
    ("adjoint", "rational"): "e7d6f7ef71ef32e6",
    ("adjoint", "float64"): "e351705d749b8d30",
    ("transpose", "rational"): "710e6288bc9bb6c5",
    ("transpose", "float64"): "e37cbcbce8f81cd1",
    ("multiplier-coeff", "rational"): "1c0514b8ee164479",
    ("multiplier-coeff", "float64"): "db812e1dec59152b",
    ("commutator-constant", "rational"): "4e83afb7c05b340a",
    ("commutator-constant", "float64"): "2049b55edc7b0aeb",
}

# the adjoint with its alpha left unflipped is right on a few trials:
# failures out of 8 at --m 2 --depth 3, the same in both modes
FROZEN_FAILURES = {"adjoint": 3, "transpose": 5}


def test_kind_rules_live_in_one_table():
    # what differs between operator kinds is a field of the kind's row:
    # the command line compares no kind names
    source = Path(cli.__file__).read_text()
    assert not re.findall(r'kind (==|!=) "|kind in \(', source)
    assert list(OPERATOR_KINDS) == list(KINDS)
    assert len(set(KINDS)) == len(KINDS)
    for _, fields in OPERATOR_KINDS.values():
        assert list(fields) == [name for name in FIELDS if name in fields]


class TestVerify:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_pass(self, suite, capsys):
        code = main(
            ["verify", suite, "--m", "2", "--depth", "3", "--trials", "5", "--seed", "1"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"] is True
        assert out["failures"] == 0
        assert out["suite"] == suite

    @pytest.mark.parametrize("mode", ["rational", "float64"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("suite", ["adjoint", "transpose"])
    def test_duality_suites_honour_m(self, suite, m, mode, capsys):
        code = main(["verify", suite, "--m", str(m), "--depth", "3", "--trials", "6",
                     "--mode", mode])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["failures"] == 0
        assert (out["suite"], out["m"], out["mode"]) == (suite, m, mode)

    @pytest.mark.parametrize("suite", ["adjoint", "commutator-constant"])
    def test_one_alpha_is_drawn_without_listing_them(self, suite, capsys):
        # 2**40 - 1 alphas: the draw takes O(m), not a list of them all
        code = main(["verify", suite, "--m", "40", "--depth", "2", "--trials", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["failures"] == 0 and out["m"] == 40

    @pytest.mark.parametrize("mode", ["rational", "float64"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_draw_the_frozen_inputs(self, suite, mode, monkeypatch, capsys):
        # every input each suite hands to what it checks, as drawn from the
        # seeded rng: a changed stream or order changes the digest
        seen = hashlib.sha256()
        for name in CHECKED:
            def record(*args, real=getattr(cli, name), name=name):
                seen.update(repr((name, args)).encode())
                return real(*args)

            monkeypatch.setattr(cli, name, record)
        code = main(["verify", suite, "--m", "3", "--depth", "3", "--trials", "4",
                     "--seed", "5", "--mode", mode])
        assert code == 0 and json.loads(capsys.readouterr().out)["failures"] == 0
        assert seen.hexdigest()[:16] == FROZEN_INPUTS[suite, mode]

    def test_duality_suite_can_fail(self, monkeypatch, capsys):
        # every suite against an operator that is wrong on purpose; where
        # the mutation breaks every residual, each one is a failure
        def alpha_unchanged(self, slot, fs, g):
            moved = list(fs)
            moved[slot - 1] = g
            return self.apply(moved)

        def plus_every_haar_function(eps, alpha, fs):
            depth, mode = fs[0].depth, fs[0].mode
            ones = [[1] * (1 << level) for level in range(depth)]
            return real_multiplier(eps, alpha, fs) + synthesize(
                HaarSpectrum(depth, 0, ones, mode)
            )

        def plus_one(i, b, eps, alpha, fs):
            out = real_commutator(i, b, eps, alpha, fs)
            return out + StepFunction.constant(1, out.depth, out.mode)

        real_multiplier, real_commutator = cli.multilinear_multiplier, cli.commutator
        # the decomposition without its last paraproduct; the list is built
        # by index, since the recursion would call the patched name
        monkeypatch.setattr(
            paraproducts, "admissible_alphas",
            lambda m: [paraproducts.alpha_at(m, i) for i in range((1 << m) - 2)],
        )
        monkeypatch.setattr(OperatorDescriptor, "adjoint", alpha_unchanged)
        monkeypatch.setattr(cli, "multilinear_multiplier", plus_every_haar_function)
        monkeypatch.setattr(cli, "commutator", plus_one)
        depth, trials = 3, 8
        for mode in ("rational", "float64"):
            want = {
                "decomposition": trials,
                "localized": trials * depth,
                **FROZEN_FAILURES,
                "multiplier-coeff": trials * ((1 << depth) - 1),
                "commutator-constant": trials,
            }
            for suite in SUITES:
                code = main(["verify", suite, "--m", "2", "--depth", str(depth),
                             "--trials", str(trials), "--mode", mode])
                out = json.loads(capsys.readouterr().out)
                assert (code, out["ok"]) == (1, False)
                assert out["failures"] == want[suite], (suite, mode)

    def test_float_mode_suite(self, capsys):
        code = main(
            ["verify", "decomposition", "--mode", "float64", "--trials", "5"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "float64"

    def test_three_linear(self, capsys):
        code = main(["verify", "decomposition", "--m", "3", "--depth", "2",
                     "--trials", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["m"] == 3

    def test_bad_arity_exits_two(self, capsys):
        assert main(["verify", "decomposition", "--m", "1", "--trials", "2"]) == 2

    def test_unknown_suite_exits_two(self):
        assert main(["verify", "bogus"]) == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(["verify", "adjoint", "--trials", "3", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ok"] is True


class TestTransform:
    def test_round_trip_byte_identical(self, tmp_path, func_file, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(["transform", "analyze", str(func_file), "-o", str(spec_path)])
        assert code == 0
        back_path = tmp_path / "back.json"
        code = main(["transform", "synthesize", str(spec_path), "-o", str(back_path)])
        assert code == 0
        assert back_path.read_text() == func_file.read_text()

    def test_analyze_stdout(self, func_file, capsys):
        code = main(["transform", "analyze", str(func_file)])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        f = StepFunction.from_values([2, 0, 0, 0])
        assert obj == analyze(f).to_json_dict()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["transform", "analyze", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"depth\": 2}")
        assert main(["transform", "analyze", str(bad)]) == 2

    def test_wrong_kind_of_file_names_it(self, tmp_path, func_file, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["transform", "analyze", str(func_file), "-o", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["transform", "synthesize", str(func_file)]) == 2
        err = capsys.readouterr().err
        assert "not a Haar spectrum file" in err and "'mean'" in err
        assert main(["transform", "analyze", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "not a step function file" in err and "'values'" in err
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]")
        assert main(["transform", "analyze", str(listing)]) == 2
        assert "not a step function file" in capsys.readouterr().err


class TestNorms:
    def test_norms_of_spike(self, func_file, capsys):
        code = main(["norms", str(func_file), "--p", "1,2,inf"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lp"]["1"] == pytest.approx(0.5)
        assert obj["lp"]["2"] == pytest.approx(1.0)
        assert obj["lp"]["inf"] == pytest.approx(2.0)
        assert obj["weak_lp"]["1"] == pytest.approx(0.5)
        assert obj["bmo1"] == pytest.approx(1.0)
        assert obj["bmo2"] == pytest.approx(obj["bmo2_haar"])
        assert obj["bstar"] >= 0

    def test_embedded_functions(self, func_file, capsys):
        code = main(
            ["norms", str(func_file), "--include-maximal", "--include-square"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        maximal = StepFunction.from_json_dict(obj["maximal"])
        assert maximal.values[0] == 2
        assert "square" in obj

    @pytest.mark.parametrize("mode", ["rational", "float64"])
    def test_norms_of_a_large_exponent(self, tmp_path, capsys, mode):
        path = tmp_path / "f.json"
        write_json(path, StepFunction.from_values([1, -3, 2, 1], mode=mode).to_json_dict())
        assert main(["norms", str(path), "--p", "700"]) == 0
        norm = json.loads(capsys.readouterr().out)["lp"]["700"]
        assert norm == pytest.approx(3 * 4 ** (-1 / 700), rel=1e-12)

    def test_norms_of_values_near_the_float_limit(self, tmp_path, capsys):
        # the mean of squares, 1e600 / 2, has no exact root and no float
        path = tmp_path / "f.json"
        write_json(path, {"depth": 1, "mode": "rational", "values": ["1e300", "3"]})
        assert main(["norms", str(path), "--p", "1,2,3,inf"]) == 0
        lp = json.loads(capsys.readouterr().out)["lp"]
        assert lp["1"] == pytest.approx(5e299, rel=1e-15)
        assert lp["2"] == pytest.approx(1e300 / 2**0.5, rel=1e-15)
        assert lp["3"] == pytest.approx(1e300 / 2 ** (1 / 3), rel=1e-15)
        assert lp["inf"] == 1e300

    def test_norms_of_cancelling_terms_are_positive(self, tmp_path, capsys):
        # 1023286908188737 - 723573111879672 * sqrt2 is 4.9e-16, not -0.125
        path = tmp_path / "f.json"
        values = [["1023286908188737", "-723573111879672"], "0"]
        write_json(path, {"depth": 1, "mode": "rational", "values": values})
        assert main(["norms", str(path), "--p", "1,2,inf"]) == 0
        obj = json.loads(capsys.readouterr().out)
        tiny = 4.886e-16
        assert obj["lp"]["inf"] == pytest.approx(tiny, rel=1e-3)
        assert obj["lp"]["1"] == pytest.approx(tiny / 2, rel=1e-3)
        for key in ("bmo1", "bmo2", "bstar"):
            assert obj[key] == pytest.approx(tiny / 2, rel=1e-3), key

    def test_square_function_of_values_near_the_float_limit(self, tmp_path, capsys):
        # the squares near 1e600 have no exact root and no float: only they
        # are scaled before the float root
        path = tmp_path / "f.json"
        write_json(path, {"depth": 2, "mode": "rational", "values": ["1e300", "0", "1", "7"]})
        assert main(["norms", str(path), "--include-square"]) == 0
        square = json.loads(capsys.readouterr().out)["square"]
        assert square["mode"] == "float64"
        # Sf**2 is c_U**2 + 2 c_(1,0)**2 = 1e600 * 5/16 on the left half
        # and about c_U**2 = 1e600 / 16 on the right half
        want = [1e300 * (5 / 16) ** 0.5] * 2 + [2.5e299] * 2
        assert square["values"] == pytest.approx(want, rel=1e-12)

    def test_bad_exponent_exits_two(self, func_file):
        assert main(["norms", str(func_file), "--p", "0.5"]) == 2

    def test_float64_values_past_the_square_limit(self, tmp_path, capsys):
        # squares of these floats overflow past 2**512; the BMO norms and
        # the square function scale by a power of two, and give the
        # rational file's values
        values = ["1e200", "3e200", "-1e200", "2e200"]
        reports = {}
        for mode in ("float64", "rational"):
            path = tmp_path / f"{mode}.json"
            vals = [float(v) for v in values] if mode == "float64" else values
            write_json(path, {"depth": 2, "mode": mode, "values": vals})
            assert main(["norms", str(path), "--include-square"]) == 0
            reports[mode] = json.loads(capsys.readouterr().out)
        got, want = reports["float64"], reports["rational"]
        assert want["bmo2"] == 1.5e200
        for key in ("bmo1", "bmo2", "bmo2_haar", "bstar"):
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
        assert got["square"]["values"] == pytest.approx(
            want["square"]["values"], rel=1e-12
        )

    def test_float64_values_near_the_float_maximum(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        values = [1.7e308, -1.7e308, 1e308, -1.5e308]
        write_json(path, {"depth": 2, "mode": "float64", "values": values})
        assert main(["norms", str(path), "--p", "1,2,inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        # the two halves have means 0 and -2.5e307
        assert out["bmo2"] == pytest.approx(1.7e308, rel=1e-12)
        assert out["lp"]["inf"] == 1.7e308

    def test_square_function_past_the_float_maximum_exits_two(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        values = [1.7e308] * 3 + [-1.7e308]
        write_json(path, {"depth": 2, "mode": "float64", "values": values})
        assert main(["norms", str(path), "--include-square"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the square function exceeds the float64 range\n"


class TestCzd:
    def test_decomposition_output(self, func_file, capsys):
        code = main(["czd", str(func_file), "--height", "3/2"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["height"] == "3/2"
        assert [p["interval"] for p in obj["parts"]] == [{"level": 2, "pos": 0}]
        good = StepFunction.from_json_dict(obj["good"])
        assert good == StepFunction.from_values([2, 0, 0, 0])

    @pytest.mark.parametrize("mode", ["rational", "float64"])
    def test_czd_file_reads_back(self, tmp_path, mode):
        f = StepFunction.from_values([4, -2, 0, 1, 6, 0, 0, 0], mode)
        path, out = tmp_path / "f.json", tmp_path / "czd.json"
        write_json(path, f.to_json_dict())
        assert main(["czd", str(path), "--height", "2", "-o", str(out)]) == 0
        back = dyadicops.CZDecomposition.from_json_dict(json.loads(out.read_text()))
        want = dyadicops.cz_decompose(f, 2)
        assert back.intervals == want.intervals and len(back.intervals) == 2
        assert (back.height, back.good, back.parts) == (want.height, want.good, want.parts)
        assert back.reconstruct() == f

    def test_root_exceeds_height_exits_two(self, func_file, capsys):
        assert main(["czd", str(func_file), "--height", "1/4"]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_bad_height_exits_two(self, func_file):
        assert main(["czd", str(func_file), "--height", "zero"]) == 2


class TestEstimate:
    def test_multiplier_reproducible(self, tmp_path, capsys):
        sym = tmp_path / "eps.json"
        write_json(
            sym,
            SymbolSequence(default=1, entries={}).to_json_dict(),
        )
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = [
            "estimate", "--op", "mult", "--alpha", "01", "--symbol", str(sym),
            "--p", "2,2", "--depth", "3", "--trials", "10", "--seed", "7",
        ]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert report["best_ratio"] >= report["extremal_lower_bound"]

    @pytest.mark.parametrize("command", ["estimate", "weak"])
    def test_report_goes_to_stdout_without_output(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        args = [
            command, "--op", "para", "--alpha", "01", "--p", "1,2",
            "--depth", "3", "--trials", "4",
        ]
        assert main(args) == 0
        assert list(tmp_path.iterdir()) == []
        printed = capsys.readouterr().out
        out = tmp_path / "r.json"
        assert main(args + ["-o", str(out)]) == 0
        assert capsys.readouterr().out == printed == out.read_text()

    def test_symbol_const(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--op", "mult", "--alpha", "01", "--symbol-const", "3",
            "--p", "2,2", "--depth", "2", "--trials", "5", "-o", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["extremal_lower_bound"] == pytest.approx(3.0)

    @pytest.mark.parametrize("command", ["estimate", "weak"])
    def test_symbol_and_symbol_const_together_exit_two(
        self, tmp_path, capsys, command
    ):
        sym = tmp_path / "s.json"
        write_json(sym, SymbolSequence(default=2).to_json_dict())
        out = tmp_path / "r.json"
        assert main([
            command, "--op", "mult", "--alpha", "01", "--symbol", str(sym),
            "--symbol-const", "3", "--p", "1,2", "--depth", "2", "--trials", "2",
            "-o", str(out),
        ]) == 2
        assert capsys.readouterr() == (
            "", "error: give --symbol or --symbol-const, not both\n"
        )
        assert not out.exists()

    def test_paraproduct_alias(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--op", "para", "--alpha", "011", "--p", "2,2,2",
            "--depth", "2", "--trials", "5", "-o", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["descriptor"]["kind"] == "paraproduct"

    def test_pi_depth_defaults_to_b(self, tmp_path, func_file, capsys):
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--op", "pi", "--alpha", "1", "--b", str(func_file),
            "--p", "2", "--trials", "5", "-o", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["grid"]["depth"] == 2
        assert report["b_norms"]["bmo2"] == pytest.approx(1.0)

    def test_commutator_with_dump(self, tmp_path, func_file, capsys):
        out = tmp_path / "r.json"
        csv = tmp_path / "trials.csv"
        code = main([
            "estimate", "--op", "commutator", "--alpha", "01", "--slot", "1",
            "--b", str(func_file), "--symbol-const", "1", "--p", "2,2",
            "--trials", "6", "-o", str(out), "--dump-trials", str(csv),
        ])
        assert code == 0
        assert csv.read_text().startswith("trial,ratio")

    def test_dump_lists_the_random_trials_and_the_evaluated_sharp_jobs(
        self, tmp_path, capsys
    ):
        # one interval carries the largest |eps|, so one sharp job runs; a
        # paraproduct has no closed form, so all 2**depth - 1 of its run
        sym = tmp_path / "sym.json"
        write_json(sym, SymbolSequence(
            default=Fraction(1, 2), entries={DyadicInterval(1, 1): 3},
        ).to_json_dict())
        for op, want in ((["mult", "--symbol", str(sym)], 1), (["para"], 7)):
            csv = tmp_path / "trials.csv"
            assert main([
                "estimate", "--op", *op, "--alpha", "01", "--p", "2,2",
                "--depth", "3", "--trials", "4", "--dump-trials", str(csv),
            ]) == 0
            report = json.loads(capsys.readouterr().out)
            lines = csv.read_text().splitlines()
            assert lines[0] == "trial,ratio"
            assert len(lines) == 1 + 4 + want
            if op[0] == "mult":
                # the job after the 4 trials and the intervals (0,0), (1,0)
                assert lines[-1] == f"6,{report['extremal_lower_bound']!r}"
                assert report["extremal_lower_bound"] == pytest.approx(3.0)
                assert report["extremal_interval"] == {"level": 1, "pos": 1}

    def test_missing_b_exits_two(self, tmp_path):
        assert main([
            "estimate", "--op", "pi", "--alpha", "1", "--p", "2",
            "--depth", "2", "--trials", "2",
            "-o", str(tmp_path / "r.json"),
        ]) == 2

    @pytest.mark.parametrize("command", ["estimate", "weak"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--op", "para", "--b", "FILE"], "paraproduct descriptors take only alpha"),
            (["--op", "para", "--symbol-const", "3", "--depth", "2"],
             "paraproduct descriptors take only alpha"),
            (["--op", "mult", "--slot", "2", "--depth", "2"],
             "multiplier descriptors take no b/slot"),
            (["--op", "pi", "--b", "FILE", "--slot", "1"],
             "pi_paraproduct descriptors take no symbol/slot"),
        ],
    )
    def test_option_the_kind_does_not_take_exits_two(
        self, func_file, capsys, command, options, message
    ):
        options = [str(func_file) if o == "FILE" else o for o in options]
        argv = [command, "--alpha", "01", "--p", "2,2", "--trials", "2", *options]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["estimate", "weak"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--op", "para"], "--depth is required when no --b file sets the grid"),
            (["--op", "commutator", "--b", "FILE"], "commutator descriptors need slot"),
        ],
    )
    def test_missing_option_exits_two(
        self, func_file, capsys, command, options, message
    ):
        options = [str(func_file) if o == "FILE" else o for o in options]
        argv = [command, "--alpha", "01", "--p", "2,2", "--trials", "2", *options]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_weak_subcommand(self, tmp_path, func_file, capsys):
        out = tmp_path / "w.json"
        code = main([
            "weak", "--op", "pi", "--alpha", "11", "--b", str(func_file),
            "--p", "1,1", "--trials", "5", "-o", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["weak_type"] is True

    def test_b_past_the_square_limit(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        write_json(path, {"depth": 2, "mode": "float64", "values": [1e200, 3e200, -1e200, 2e200]})
        argv = ["estimate", "--op", "pi", "--alpha", "01", "--b", str(path),
                "--p", "2,2", "--trials", "2"]
        assert main(argv) == 0
        b_norms = json.loads(capsys.readouterr().out)["b_norms"]
        assert b_norms["bmo2"] == pytest.approx(1.5e200, rel=1e-12)

    def test_weak_without_endpoint_exits_two(self, tmp_path, func_file):
        assert main([
            "weak", "--op", "pi", "--alpha", "11", "--b", str(func_file),
            "--p", "2,2", "--trials", "5", "-o", str(tmp_path / "w.json"),
        ]) == 2


class TestParsing:
    def test_no_args_exits_two(self):
        assert main([]) == 2

    def test_unknown_op_exits_two(self, tmp_path):
        assert main([
            "estimate", "--op", "convolution", "--alpha", "01", "--p", "2,2",
            "--depth", "2", "--trials", "2", "-o", str(tmp_path / "r.json"),
        ]) == 2

    def test_bad_alpha_exits_two(self, tmp_path):
        assert main([
            "estimate", "--op", "para", "--alpha", "21", "--p", "2,2",
            "--depth", "2", "--trials", "2", "-o", str(tmp_path / "r.json"),
        ]) == 2


class TestBoundary:
    """Bad input at the boundary prints ``error: ...`` and exits 2."""

    @pytest.fixture
    def nan_file(self, tmp_path):
        path = tmp_path / "nan.json"
        # json.dumps writes the NaN token that json.loads reads back
        path.write_text(json.dumps(
            {"depth": 2, "mode": "float64", "values": [1.0, float("nan"), 2.0, -1.0]}
        ))
        return path

    def test_norms_rejects_nan(self, nan_file, capsys):
        assert main(["norms", str(nan_file), "--p", "1,inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_estimate_rejects_nan_in_b(self, tmp_path, nan_file, capsys):
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--op", "pi", "--alpha", "1", "--b", str(nan_file),
            "--p", "2", "--trials", "3", "-o", str(out),
        ]) == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, pair, message",
        [
            ("rational", ["1", True], "bool is not a scalar"),
            ("float64", ["1", True], "bool is not a scalar"),
            ("rational", ["1/2", 0.5], "float values are not allowed in rational mode"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "analyze", "{path}"],
            ["norms", "{path}"],
            ["czd", "{path}", "--height", "9"],
            ["estimate", "--op", "pi", "--alpha", "1", "--b", "{path}", "--p", "2",
             "--trials", "1"],
        ],
        ids=["transform", "norms", "czd", "estimate"],
    )
    def test_a_pair_entry_is_read_as_a_bare_value(
        self, tmp_path, capsys, argv, mode, pair, message
    ):
        # an entry of an [a, b] pair obeys the rule of a value on its own
        path = tmp_path / "f.json"
        write_json(path, {"depth": 1, "mode": mode, "values": [pair, "1"]})
        assert main([a.format(path=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_norms_rejects_a_value_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        write_json(path, {"depth": 1, "mode": "rational", "values": ["1e400", "1"]})
        assert main(["norms", str(path), "--p", "1,2,3,inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: number too large for a float64 value\n"

    def test_estimate_at_an_exponent_near_the_float_limit(self, tmp_path, capsys):
        # every |f|**r overflows a float at r = 5e299; the output norm is
        # scaled by max |f|
        assert main([
            "estimate", "--op", "para", "--alpha", "11", "--p", "1e300,1e300",
            "--depth", "3", "--trials", "3",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["best_ratio"] == pytest.approx(7.0)

    def test_estimate_zero_denominator_exponent(self, tmp_path, capsys):
        assert main([
            "estimate", "--op", "para", "--alpha", "01", "--p", "1/0,2",
            "--depth", "2", "--trials", "2", "-o", str(tmp_path / "r.json"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["rational", "float64"])
    def test_norms_rejects_an_exponent_too_large_for_a_float(
        self, tmp_path, capsys, mode
    ):
        # "1e400" parses as the integer 10**400: rational mode would raise
        # every value to that power, float64 mode would overflow
        path = tmp_path / "f.json"
        write_json(path, StepFunction.from_values([1, -3, 2, 1], mode=mode).to_json_dict())
        assert main(["norms", str(path), "--p", "2,1e400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1e400 is too large for a float64 value\n"

    def test_estimate_rejects_an_exponent_too_large_for_a_float(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--op", "para", "--alpha", "01", "--p", "1e400,2",
            "--depth", "3", "--trials", "2", "-o", str(out),
        ]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: 1e400 is too large for a float64 value\n"

    def test_czd_zero_denominator_height(self, func_file, capsys):
        assert main(["czd", str(func_file), "--height", "1/0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("family", ["random-step", "indicator", "extremal"])
    @pytest.mark.parametrize("command", ["estimate", "weak"])
    def test_level_cap_of_another_family_exits_two(self, tmp_path, capsys, family, command):
        # only rademacher-haar draws by level: a cap elsewhere would be
        # written into the report without ever applying
        out = tmp_path / "r.json"
        assert main([
            command, "--op", "para", "--alpha", "01", "--p", "1,2", "--depth", "3",
            "--trials", "2", "--family", family, "--level-cap", "1", "-o", str(out),
        ]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: level_cap applies to the rademacher-haar family only, "
            f"not to {family}\n"
        )

    def test_verify_rejects_negative_trials(self, capsys):
        assert main(["verify", "decomposition", "--trials", "-3"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "suite, m",
        [("multiplier-coeff", "-5"), ("transpose", "0"), ("commutator-constant", "0")],
    )
    def test_verify_rejects_arity_below_one(self, capsys, suite, m):
        assert main(["verify", suite, "--m", m, "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --m must be >= 1, got {m}\n"

    @pytest.mark.parametrize(
        "obj, argv",
        [
            ({"depth": 40, "mode": "float64", "mean": 0.0, "coeffs": []},
             ["transform", "synthesize"]),
            ({"depth": 10**12, "mode": "float64", "values": [1.0, 2.0]}, ["norms"]),
        ],
    )
    def test_file_depth_checked_before_allocation(self, tmp_path, capsys, obj, argv):
        # a file's depth is checked before any of its 2**depth rows or
        # leaves is built
        path = tmp_path / "deep.json"
        write_json(path, obj)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: depth must lie in 1..{MAX_DEPTH}, got {obj['depth']}\n"
        )

    def test_depth_cap_checked_before_allocation(self, tmp_path, capsys):
        # one above the cap: rejected by the check, so nothing of size
        # 2**(MAX_DEPTH + 1) is ever built
        too_deep = str(MAX_DEPTH + 1)
        assert main(["verify", "decomposition", "--depth", too_deep]) == 2
        assert main([
            "estimate", "--op", "para", "--alpha", "01", "--p", "2,2",
            "--depth", too_deep, "--trials", "2", "-o", str(tmp_path / "r.json"),
        ]) == 2
        assert "depth" in capsys.readouterr().err

    def test_unwritable_dump_trials_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--op", "para", "--alpha", "01", "--p", "2,2",
            "--depth", "2", "--trials", "1", "-o", str(out),
            "--dump-trials", str(tmp_path / "missing" / "x.csv"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_output_prints_nothing_after_the_csv(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        assert main([
            "estimate", "--op", "para", "--alpha", "01", "--p", "2,2",
            "--depth", "2", "--trials", "1", "--dump-trials", str(csv),
            "-o", str(tmp_path / "missing" / "r.json"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert csv.read_text().startswith("trial,ratio")

    @pytest.mark.parametrize(
        "kind, obj, argv",
        [
            (
                "symbol sequence",
                {"default": 1, "entries": [1]},
                ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
                 "--depth", "2", "--trials", "2", "--symbol"],
            ),
            (
                "Haar spectrum",
                {"depth": 2, "mean": "0", "coeffs": [3]},
                ["transform", "synthesize"],
            ),
            (
                "step function",
                {"depth": 2, "values": 5},
                ["norms"],
            ),
            ("step function", {"depth": 1, "mode": "float64", "values": [True, 2.5]},
             ["norms"]),
            ("step function", {"depth": 1, "mode": "rational", "values": ["1", False]},
             ["norms"]),
            ("step function", {"depth": 1.9, "mode": "float64", "values": [1.0, 2.5]},
             ["norms"]),
            ("step function", {"depth": "1", "mode": "float64", "values": [1.0, 2.5]},
             ["norms"]),
            ("step function", {"depth": True, "mode": "float64", "values": [1.0, 2.5]},
             ["norms"]),
            ("Haar spectrum",
             {"depth": 2, "mode": "float64", "mean": 0.0,
              "coeffs": [{"level": 0.7, "pos": 0, "value": 1.0}]},
             ["transform", "synthesize"]),
            ("Haar spectrum",
             {"depth": 2, "mode": "rational", "mean": "0",
              "coeffs": [{"level": 1, "pos": "1", "value": "1"}]},
             ["transform", "synthesize"]),
            ("Haar spectrum", {"depth": 2, "mode": "float64", "mean": True, "coeffs": []},
             ["transform", "synthesize"]),
            ("symbol sequence", {"default": 1, "entries": [{"level": 1.5, "pos": 1, "value": 2}]},
             ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
              "--depth", "2", "--trials", "2", "--symbol"]),
            ("symbol sequence", {"default": 1, "entries": [{"level": 1, "pos": "1", "value": 2}]},
             ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
              "--depth", "2", "--trials", "2", "--symbol"]),
            ("symbol sequence", {"default": True, "entries": []},
             ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
              "--depth", "2", "--trials", "2", "--symbol"]),
            # a value a + b*sqrt(2) written as a list of other than 2 entries
            *[
                ("step function", {"depth": 1, "mode": mode, "values": [pair, "1"]},
                 ["norms"])
                for mode in ("float64", "rational")
                for pair in (["1", "2", "3"], ["1"])
            ],
            *[
                ("symbol sequence", symbol,
                 ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
                  "--depth", "2", "--trials", "2", "--symbol"])
                for symbol in (
                    {"default": ["1", "2", "3"], "entries": []},
                    {"default": 1, "entries": [{"level": 1, "pos": 1, "value": ["1"]}]},
                )
            ],
        ],
    )
    def test_entry_that_is_not_an_object_names_the_file(
        self, tmp_path, capsys, kind, obj, argv
    ):
        # also a depth, level or pos that is not a JSON integer, a value
        # that is a JSON boolean, and a value written as a list of other
        # than two entries: none of them is rounded, truncated or read as 0
        # or 1
        path = tmp_path / "bad.json"
        write_json(path, obj)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not a {kind} file: ")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1/0", "zero denominator in '1/0'"),
            (True, "{path} is not a symbol sequence file: bool is not a scalar"),
            (["1", "2", "3"], "{path} is not a symbol sequence file: "
             "a value written as a list needs 2 entries, got 3"),
        ],
    )
    def test_bad_symbol_value_after_repeated_texts_exits_two(
        self, tmp_path, capsys, bad, message
    ):
        # each value text is decoded once per file: a bad one is still
        # refused after good texts were, and when it repeats
        path = tmp_path / "eps.json"
        entries = [{"level": 2, "pos": pos, "value": "1/2"} for pos in range(4)]
        entries += [{"level": 1, "pos": pos, "value": bad} for pos in range(2)]
        write_json(path, {"default": "1/2", "entries": entries})
        assert main([
            "estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
            "--depth", "3", "--trials", "2", "--symbol", str(path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"

    def test_symbol_listing_an_interval_twice_exits_two(self, tmp_path, capsys):
        # the later value won
        path = tmp_path / "eps.json"
        entries = [{"level": 1, "pos": 1, "value": v} for v in ("2", "3")]
        write_json(path, {"default": "1", "entries": entries})
        assert main([
            "estimate", "--op", "mult", "--alpha", "01", "--p", "2,2",
            "--depth", "2", "--trials", "2", "--symbol", str(path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a symbol lists some interval more than once\n"


class TestCanonicalOutput:
    """Every report is one line: ``json.dumps(obj, sort_keys=True)`` and a
    newline, the same bytes on stdout and in the ``-o`` file."""

    @pytest.fixture
    def inputs(self, tmp_path, func_file):
        spectrum = tmp_path / "spec.json"
        write_json(spectrum, analyze(StepFunction.from_values([2, 0, 0, 0])).to_json_dict())
        floats = tmp_path / "g.json"
        write_json(floats, StepFunction.from_values(
            [0.5, -1.25, 1e-300, 3.0, 2.0, 0.0, -7.5, 17.0], mode="float64",
        ).to_json_dict())
        return {"f": str(func_file), "spec": str(spectrum), "g": str(floats)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "decomposition", "--depth", "2", "--trials", "2"],
            ["verify", "localized", "--mode", "float64", "--depth", "3", "--trials", "1"],
            ["transform", "analyze", "{f}"],
            ["transform", "analyze", "{g}"],
            ["transform", "synthesize", "{spec}"],
            ["norms", "{f}", "--p", "1,2,3,inf", "--include-maximal", "--include-square"],
            ["norms", "{g}", "--p", "1,3/2,inf", "--include-maximal", "--include-square"],
            ["czd", "{f}", "--height", "3/2"],
            ["czd", "{g}", "--height", "5"],
            ["estimate", "--op", "pi", "--alpha", "01", "--b", "{f}", "--p", "2,2",
             "--trials", "3"],
            ["weak", "--op", "para", "--alpha", "01", "--p", "1,1", "--depth", "3",
             "--trials", "3"],
        ],
    )
    def test_one_sorted_line_on_stdout_and_in_the_file(
        self, tmp_path, capsys, inputs, argv
    ):
        argv = [arg.format(**inputs) for arg in argv]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == json.dumps(json.loads(printed), sort_keys=True) + "\n"
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == printed.encode()
        assert capsys.readouterr().out == printed

    def test_report_to_json_is_the_estimate_output(self, capsys):
        assert main(["estimate", "--op", "para", "--alpha", "01", "--p", "1,2",
                     "--depth", "3", "--trials", "4", "--seed", "5"]) == 0
        report = estimate_operator_norm(
            OperatorDescriptor("paraproduct", AlphaVector.from_string("01")),
            ExponentTuple.from_string("1,2"),
            SamplerSpec(family="random-step", depth=3, seed=5),
            4,
        )
        assert report.to_json() == capsys.readouterr().out

    def test_nan_reaching_the_writer_exits_two(self, tmp_path, monkeypatch, capsys, func_file):
        monkeypatch.setattr("dyadicops.cli.bstar_seminorm", lambda f: float("nan"))
        out = tmp_path / "n.json"
        assert main(["norms", str(func_file), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: Out of range float values are not JSON compliant"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, obj, message",
        [
            (["norms"], {"depth": 2, "mode": "float64", "values": [1.0, 2.0, 3.0]},
             "expected 4 leaf values for depth 2, got 3"),
            (["norms"], {"depth": 1, "mode": "rational", "values": ["1", "2", "3"]},
             "expected 2 leaf values for depth 1, got 3"),
            (["transform", "synthesize"],
             {"depth": 2, "mode": "float64", "mean": 0.0,
              "coeffs": [{"level": 2, "pos": 0, "value": 1.0}]},
             "coefficient at level 2 does not fit a depth-2 grid"),
            (["transform", "synthesize"],
             {"depth": 2, "mode": "float64", "mean": 0.0,
              "coeffs": [{"level": -1, "pos": 0, "value": 1.0}]},
             "level must be >= 0, got -1"),
            (["transform", "synthesize"],
             {"depth": 2, "mode": "rational", "mean": "0",
              "coeffs": [{"level": 1, "pos": 2, "value": "1"}]},
             "position 2 out of range for level 1"),
            (["transform", "synthesize"],
             {"depth": 2, "mode": "rational", "mean": "0",
              "coeffs": [{"level": 1, "pos": -1, "value": "1"}]},
             "position -1 out of range for level 1"),
            (["norms"], {"depth": 1, "mode": "float64", "values": [1.0, float("inf")]},
             "float64 values must be finite, got inf"),
            (["transform", "synthesize"],
             {"depth": 1, "mode": "float64", "mean": float("nan"), "coeffs": []},
             "float64 values must be finite, got nan"),
            (["transform", "analyze"], {"depth": 1, "mode": "weird", "values": [1, 2]},
             "unknown mode 'weird'; expected one of ('rational', 'float64')"),
            (["transform", "synthesize"], {"depth": 1, "mode": "weird", "mean": 0},
             "unknown mode 'weird'; expected one of ('rational', 'float64')"),
        ],
    )
    def test_reader_errors(self, tmp_path, capsys, argv, obj, message):
        path = tmp_path / "bad.json"
        # json.dumps writes the NaN and Infinity tokens that json.loads reads
        path.write_text(json.dumps(obj))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestModuleEntry:
    """``python -m dyadicops.cli`` runs the command line."""

    def run(self, *argv):
        src = str(Path(dyadicops.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        return subprocess.run(
            [sys.executable, "-m", "dyadicops.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_suite_runs_and_exits_zero(self):
        done = self.run("verify", "adjoint", "--depth", "2", "--trials", "2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"] is True

    def test_bad_input_exits_two(self):
        done = self.run("verify", "adjoint", "--trials", "0")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")


class TestParserReuse:
    """``main`` builds the parser once per process: a call after any other,
    a usage error and --help included, prints and exits as a fresh
    process does."""

    def test_calls_in_one_process_match_fresh_processes(
        self, tmp_path, func_file, monkeypatch, capsys
    ):
        # the width of --help comes from COLUMNS, here and in the children
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["norms", str(func_file), "--p", "3"],
            ["norms", "--include-square"],
            ["norms", str(func_file)],
            ["norms", "--help"],
            ["weak", "--op", "mult", "--alpha", "01", "--p", "1,2", "--depth", "3",
             "--trials", "3", "--seed", "2"],
            ["estimate", "--op", "mult", "--alpha", "01", "--p", "2,2", "--depth", "3"],
            ["--help"],
            ["norms", str(func_file), "--include-maximal"],
        ]
        src = str(Path(dyadicops.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        codes = set()
        for argv in calls:
            code = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "dyadicops.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (code, got.out, got.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            codes.add(code)
        assert codes == {0, 2}
