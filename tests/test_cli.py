"""CLI contract: exit codes, JSON round-trips, diff semantics, sweeps."""

import concurrent.futures
import functools
import json
import multiprocessing
import sys

import pytest

import mcurve
from mcurve import cli, grobner, koszul, sweeps
from mcurve.cli import build_report, main
from mcurve.errors import InvariantViolation
from mcurve.seq import parse_sequence


class TestInvariants:
    def test_golden_arithmetic_verify(self, capsys):
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "regularity         6 [both-agree]" in out
        assert "cm type            1 [both-agree]" in out
        assert "gorenstein         True [both-agree]" in out

    def test_golden_generalized_verify(self, capsys):
        assert main(["invariants", "-m", "7,30,39,48,57,66", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "cohen-macaulay     False [both-agree]" in out
        assert "regularity         14 [both-agree]" in out

    def test_invalid_input_exits_2(self, capsys):
        assert main(["invariants", "-m", "2,1"]) == 2

    def test_json_round_trip(self, capsys):
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == build_report(parse_sequence("10,13,16,19,22"), verify=True).to_dict()

    def test_general_sequence_oracle_only(self, capsys):
        assert main(["invariants", "-m", "1,2,5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"]["regularity"] == "oracle"
        assert data["cm"] is not None

    def test_one_toric_basis_per_report(self, monkeypatch):
        # 1,2,3,4,6 reaches the quadric stage of the Koszul cascade, which
        # reuses the basis the report already computed
        calls = []

        def counted(seq):
            calls.append(seq.m)
            return grobner.toric_ideal(seq)

        monkeypatch.setattr(sweeps, "toric_ideal", counted)
        monkeypatch.setattr(koszul, "toric_ideal", counted)
        report = build_report(parse_sequence("1,2,3,4,6"), verify=True)
        assert report.koszul_reason.startswith("quadratic_gb:")
        assert calls == [(1, 2, 3, 4, 6)]

    def test_one_closed_basis_per_report(self, monkeypatch):
        # a verified report builds the closed basis once for betti_1 and the
        # comparison; an unverified arithmetic report needs none
        calls = []
        for name in ("gb_generalized", "gb_arithmetic"):
            def counted(prof, fn=getattr(sweeps, name), name=name):
                calls.append(name)
                return fn(prof)

            monkeypatch.setattr(sweeps, name, counted)
        build_report(parse_sequence("7,30,39,48,57,66"), verify=True)
        assert calls == ["gb_generalized"]
        calls.clear()
        build_report(parse_sequence("10,13,16,19,22"), verify=False)
        assert calls == []

    def test_one_profile_per_curve(self, monkeypatch):
        # every closed form takes the profile its caller built once; a
        # generalized profile builds the arithmetic profile of its tail
        calls = []
        modules = [m for name, m in sys.modules.items()
                   if name == "mcurve" or name.startswith("mcurve.")]
        for fn in (mcurve.seq.arithmetic_profile, mcurve.seq.generalized_profile):
            def counted(s, fn=fn):
                calls.append(fn.__name__)
                return fn(s)

            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    monkeypatch.setattr(module, attr, counted)

        def profiles(call, m):
            calls.clear()
            call(parse_sequence(m))
            return sorted(calls)

        arith, gen = ["arithmetic_profile"], ["arithmetic_profile", "generalized_profile"]
        assert profiles(sweeps.check_arithmetic_instance, "10,13,16,19,22") == arith
        assert profiles(sweeps.check_generalized_instance, "7,30,39,48,57,66") == gen
        for m, want in (("10,13,16,19,22", arith), ("4,5,6,7,8", arith),
                        ("7,30,39,48,57,66", gen)):
            assert profiles(lambda s: build_report(s, verify=True), m) == want, m


def _report(seq, kind, h, d, cm, cm_type, gorenstein, ci, reg, hf_reg, betti1, hs, hp,
            koszul, reason, provenance):
    """A to_dict() output, in its key order."""
    return {"sequence": seq, "kind": kind, "h": h, "d": d, "cm": cm, "cm_type": cm_type,
            "gorenstein": gorenstein, "complete_intersection": ci, "regularity": reg,
            "hf_regularity": hf_reg, "betti1": betti1, "hs_numerator": hs,
            "hilbert_polynomial": {"slope": hp[0], "constant": hp[1]},
            "koszul_verdict": koszul, "koszul_reason": reason, "provenance": provenance}


def _provenance(names, source):
    return {**dict.fromkeys(names, source), "koszul": "oracle"}


ARITH_CLAIMS = ["cm", "cm_type", "gorenstein", "complete_intersection", "hf_regularity",
                "betti1", "regularity", "hs_numerator", "hilbert_polynomial"]
GEN_CLAIMS = ["cm", "gorenstein", "complete_intersection", "betti1", "regularity",
              "hs_numerator", "hilbert_polynomial"]
CM_ORACLE = ["cm", "cm_type", "gorenstein", "regularity", "hs_numerator", "hilbert_polynomial"]
NOT_CM_ORACLE = ["cm", "regularity", "hs_numerator", "hilbert_polynomial"]

# the whole report of one curve per path, unverified and verified
REPORT_CONTRACT = {
    "10,13,16,19,22": (  # arithmetic
        _report([10, 13, 16, 19, 22], "arithmetic", 1, 3, True, 1, True, False, 6, 5, 9,
                [1, 4, 4, 4, 4, 4, 1], (22, -44), "not_koszul", "classified_generalized",
                _provenance(ARITH_CLAIMS, "closed_form")),
        _report([10, 13, 16, 19, 22], "arithmetic", 1, 3, True, 1, True, False, 6, 5, 9,
                [1, 4, 4, 4, 4, 4, 1], (22, -44), "not_koszul", "classified_generalized",
                {**_provenance(ARITH_CLAIMS, "both-agree"), "hf_regularity": "closed_form"})),
    "7,30,39,48,57,66": (  # generalized, h | d
        _report([7, 30, 39, 48, 57, 66], "generalized", 3, 9, False, None, False, False, 14,
                None, 18, [1, 5, 9, 13, 13, 13, 10, 6, 1, -1, -1, -1, 0, -1, 0, -1],
                (66, -165), "not_koszul", "classified_generalized",
                _provenance(GEN_CLAIMS, "closed_form")),
        _report([7, 30, 39, 48, 57, 66], "generalized", 3, 9, False, None, False, False, 14,
                None, 18, [1, 5, 9, 13, 13, 13, 10, 6, 1, -1, -1, -1, 0, -1, 0, -1],
                (66, -165), "not_koszul", "classified_generalized",
                {**_provenance(GEN_CLAIMS, "both-agree"),
                 "complete_intersection": "closed_form"})),
    "1,2,3,4,6": 2 * (  # general, Cohen-Macaulay
        _report([1, 2, 3, 4, 6], "general", None, None, True, 1, True, None, 2, None, None,
                [1, 4, 1], (6, 0), "koszul", "quadratic_gb:degrevlex",
                _provenance(CM_ORACLE, "oracle")),),
    "5,26,32,38": 2 * (  # general (h = 4 does not divide d = 6), not Cohen-Macaulay
        _report([5, 26, 32, 38], "generalized", 4, 6, False, None, None, None, 13, None, None,
                [1, 3, 5, 7, 9, 9, 6, 2, 0, -1, 0, -1, -1, 0, -1], (38, -81), "not_koszul",
                "classified_generalized", _provenance(NOT_CM_ORACLE, "oracle")),),
    "6,9,12": 2 * (  # fits h = 1, but gcd(m_1, d) = 3: no closed form applies
        _report([6, 9, 12], "arithmetic", 1, 3, True, 1, True, None, 2, None, None,
                [1, 2, 1], (4, 0), "koszul", "classified_generalized",
                _provenance(CM_ORACLE, "oracle")),),
}


def _rebind(monkeypatch, fn, replacement):
    """Replace `fn` under every name a loaded mcurve module holds for it."""
    for name, module in list(sys.modules.items()):
        if name == "mcurve" or name.startswith("mcurve."):
            for attr in [a for a, v in vars(module).items() if v is fn]:
                monkeypatch.setattr(module, attr, replacement)


class TestReportContract:
    @pytest.mark.parametrize("m", REPORT_CONTRACT)
    def test_whole_report(self, m):
        # every field and every provenance entry, in order: json.dumps keeps it
        for verify, want in zip((False, True), REPORT_CONTRACT[m]):
            got = build_report(parse_sequence(m), verify=verify).to_dict()
            assert json.dumps(got) == json.dumps(want), (m, verify)

    @pytest.mark.parametrize("call, m", [
        (lambda s: build_report(s, verify=True), "10,13,16,19,22"),
        (lambda s: build_report(s, verify=True), "7,30,39,48,57,66"),
        (sweeps.check_arithmetic_instance, "10,13,16,19,22"),
        (sweeps.check_generalized_instance, "7,30,39,48,57,66"),
    ])
    def test_oracle_and_closed_basis_once_per_curve(self, monkeypatch, call, m):
        # the generalized checker also computes the basis of its tail curve
        calls = []
        for fn, curve in ((grobner.toric_ideal, lambda seq, *a: seq.m),
                          (mcurve.monideal.cm_type_oracle, lambda seq, *a: seq.m),
                          (mcurve.arith_forms.gb_arithmetic, lambda prof: prof.seq.m),
                          (mcurve.gen_forms.gb_generalized, lambda prof: prof.seq.m)):
            def counted(*args, fn=fn, curve=curve):
                calls.append((fn.__name__, curve(*args)))
                return fn(*args)

            _rebind(monkeypatch, fn, counted)
        call(parse_sequence(m))
        assert len(calls) == len(set(calls)), calls
        assert ("toric_ideal", tuple(map(int, m.split(",")))) in calls

    def test_first_failing_claim_is_reported(self, capsys, monkeypatch):
        # a wrong cm is reported as such (exit 1), not as the NotCohenMacaulay
        # that the CM type oracle, a later claim, would raise on it
        _rebind(monkeypatch, mcurve.monideal.cm_via_initial, lambda ideal: False)
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify"]) == 1
        assert capsys.readouterr().err.startswith("verification failure: cm:")


class TestGb:
    def test_closed_source(self, capsys):
        assert main(["gb", "-m", "1,2,3", "--source", "closed"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# order=degrevlex vars=4")
        assert len(out.strip().splitlines()) == 4  # header + 3 quadrics

    def test_diff_empty(self, capsys):
        assert main(["gb", "-m", "7,30,39,48,57,66", "--diff"]) == 0
        assert "diff empty" in capsys.readouterr().out

    def test_closed_source_unavailable(self, capsys):
        assert main(["gb", "-m", "1,2,5", "--source", "closed"]) == 2

    def test_order_with_closed_or_diff_is_usage_error(self, capsys):
        for flags in (["--source", "closed"], ["--diff"]):
            assert main(["gb", "-m", "1,2,3", *flags, "--order", "yweighted:x1"]) == 2
            assert "usage error" in capsys.readouterr().err
            assert main(["gb", "-m", "1,2,3", *flags, "--order", "degrevlex"]) == 0

    @pytest.mark.parametrize("order", ["yweighted:x", "yweighted:xabc"])
    def test_malformed_order_is_a_usage_error(self, capsys, order):
        assert main(["gb", "-m", "3,5,7", "--order", order]) == 2
        assert capsys.readouterr().err == f"usage error: unknown order {order!r}\n"

    @pytest.mark.parametrize("order", ["yweighted:x0", "yweighted:x5"])  # 3,5,7: x1 .. x4
    def test_order_variable_out_of_range_is_a_usage_error(self, capsys, order):
        assert main(["gb", "-m", "3,5,7", "--order", order]) == 2
        assert capsys.readouterr().err == (
            f"usage error: variable index out of range in {order!r}\n")

    def test_serialization_parses_back(self, capsys):
        s = parse_sequence("3,5,7")
        assert main(["gb", "-m", "3,5,7"]) == 0
        gb = grobner.toric_ideal(s)
        assert capsys.readouterr().out == grobner.render_gb(gb.order, gb.elements, s)


class TestHilbert:
    def test_golden_table(self, capsys):
        assert main(["hilbert", "-m", "4,5,6,7,8", "--max-degree", "6"]) == 0
        out = capsys.readouterr().out
        rows = [1, 6, 14, 22, 30, 38, 46]
        for s, value in enumerate(rows):
            assert f"{s:>4} {value:>10} {value:>10}" in out

    def test_conic(self, capsys):
        assert main(["hilbert", "-m", "1,2", "--max-degree", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["counted"] for r in data["rows"]] == [1, 3, 5, 7]

    def test_row_110(self, capsys):
        assert main(["hilbert", "-m", "10,13,16,19,22", "--max-degree", "7", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][7] == {"s": 7, "closed": 110, "counted": 110}

    def test_negative_max_degree_is_a_usage_error(self, capsys):
        assert main(["hilbert", "-m", "3,5,7", "--max-degree", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: --max-degree" in captured.err
        assert main(["hilbert", "-m", "3,5,7", "--max-degree", "0", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 1


class TestSweep:
    def test_n3_sweep(self, capsys):
        assert main(["sweep", "--family", "n3", "--max-mn", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["failures"] == 0
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["ok"]

    def test_max_mn_bounds_n4(self, capsys):
        assert main(["sweep", "--family", "n4", "--max-mn", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["config"] == {"max_mn": 6} and summary["failures"] == 0
        assert max(json.loads(line)["seq"][-1] for line in lines[:-1]) == 6

    def test_random_sweep_seeded(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--family", "random", "--count", "5",
                     "--seed", "3", "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["config"] == {"count": 5, "max_mn": 25, "seed": 3}
        assert summary["instances"] == 5

    def test_arithmetic_sweep_small(self, capsys):
        assert main(["sweep", "--family", "arithmetic", "--max-mn", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["summary"]["failures"] == 0

    def test_jobs_2_matches_jobs_1(self, capsys):
        def records(jobs):
            assert main(["sweep", "--family", "n3", "--jobs", jobs]) == 0
            out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            for record in out[:-1]:
                del record["elapsed_ms"]
            return out

        serial = records("1")
        assert records("2") == serial
        assert serial[-1]["summary"]["instances"] == len(serial) - 1 > 0

    def test_bad_bounds_are_usage_errors(self, capsys):
        for flags in (["--family", "generalized", "--h", "1"],
                      ["--family", "generalized", "--h", "2,1"],
                      ["--family", "generalized", "--h", "2,2"],
                      ["--family", "n3", "--max-mn", "0"],
                      ["--family", "arithmetic", "--max-mn", "-4"],
                      ["--family", "n3", "--max-mn", "5", "--jobs", "0"],
                      ["--family", "n3", "--max-mn", "5", "--jobs", "-1"],
                      ["--family", "random", "--max-mn", "1"],
                      ["--family", "random", "--count", "0"],
                      ["--family", "random", "--count", "-3"]):
            assert main(["sweep", *flags]) == 2, flags
            captured = capsys.readouterr()
            assert captured.out == "" and "usage error" in captured.err

    @pytest.mark.parametrize("family, flag", [
        ("arithmetic", "--h"), ("arithmetic", "--count"), ("arithmetic", "--seed"),
        ("generalized", "--count"), ("generalized", "--seed"),
        ("n3", "--h"), ("n3", "--count"), ("n3", "--seed"),
        ("n4", "--h"), ("n4", "--count"), ("n4", "--seed"),
        ("random", "--h"),
    ])
    def test_flag_the_family_does_not_take_is_a_usage_error(self, capsys, family, flag):
        # such a flag was once dropped without a word, and the sweep exited 0
        assert main(["sweep", "--family", family, "--max-mn", "5", flag, "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: the {family} family takes no {flag}\n"

    def test_every_config_field_has_a_flag(self):
        # a config holds only what a caller may set, so mcurve sweep reaches every field
        for name, family in sweeps.FAMILIES.items():
            fields = set(family.config._fields)
            assert "max_mn" in fields and fields <= set(cli.SWEEP_FLAGS), name

    def test_random_max_mn_below_max_n(self, capsys):
        # n is drawn from 2..min(5, max_mn): a bound under 5 still samples
        assert main(["sweep", "--family", "random", "--max-mn", "3", "--count", "5"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len(records) == 5
        assert all(r["ok"] and r["seq"][-1] <= 3 for r in records)

    @pytest.mark.parametrize("family, m, keys", [
        ("arithmetic", "10,13,16,19,22",
         "betti1 cm cm_type complete_intersection decomposition gb_equals_oracle gorenstein "
         "hf_counts hilbert_polynomial hs_numerator min_multiple nested_type reg_h_degree "
         "regularity split_correction_zero"),
        ("generalized", "7,30,39,48,57,66",
         "betti1 cm decomposition elimination_equality gb_equals_oracle gorenstein hf_counts "
         "hilbert_polynomial hs_numerator last_step min_multiple nested_type "
         "not_cm_witness_found reg_last_component regularity"),
        ("generalized", "1,4,6",
         "betti1 cm decomposition elimination_equality gb_equals_oracle gorenstein hf_counts "
         "hilbert_polynomial hs_n3_cross hs_numerator last_step min_multiple nested_type "
         "not_cm_witness_found reg_last_component regularity"),
        ("n3", "3,4,5", "quadric_iff_listed"),  # not on the list
        ("n4", "1,2,3,5", "quadratic_gb_witness quadric_iff_listed"),
        ("random", "3,5,7,11",
         "cm_implies_zero_correction decomposition_membership deterministic hf_convolution "
         "members nested_type no_monomial split_combination witness_implies_not_cm"),
    ])
    def test_check_keys_of_each_family(self, family, m, keys):
        # the record contract of mcurve sweep: each check key names one claim or check
        checks = sweeps.FAMILIES[family].check(parse_sequence(m))
        assert sorted(checks) == keys.split() and all(checks.values())

    def test_pool_has_no_more_workers_than_instances(self, capsys, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # large --jobs value starts real workers
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for count, pools in (("3", [3]), ("1", [])):
            sizes.clear()
            assert main(["sweep", "--family", "random", "--count", count, "--jobs", "64"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert json.loads(lines[-1])["summary"]["instances"] == int(count)
            assert sizes == pools, count

    @pytest.mark.parametrize("family, default", [
        ("arithmetic", sweeps.ArithmeticSweep()), ("generalized", sweeps.GeneralizedSweep()),
        ("n3", sweeps.KoszulN3Sweep()), ("n4", sweeps.KoszulN4Sweep()),
        ("random", sweeps.RandomSweep()),
    ])
    def test_default_config_is_the_dataclass_default(self, capsys, monkeypatch, family, default):
        # the default bound on m_n is written once, in sweeps.py, which the
        # benchmark pools read too; no instance runs
        monkeypatch.setitem(sweeps.FAMILIES, family,
                            sweeps.FAMILIES[family]._replace(instances=lambda cfg: []))
        assert main(["sweep", "--family", family]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["config"] == json.loads(json.dumps(default._asdict()))

    def test_nonpositive_h_exits_instead_of_hanging(self, run_python):
        # h <= 0 once made the instance generator loop forever
        for h in ("0", "-1"):
            proc = run_python("-m", "mcurve.cli", "sweep", "--family", "generalized", "--h", h)
            assert proc.returncode == 2 and proc.stdout == "", h
            assert "usage error" in proc.stderr


def _failing_n3_check(seq, error=InvariantViolation):
    if seq.m == (1, 2, 3):
        raise error("forced failure")
    return {"ok": True}


class TestExitCodes:
    """0 success, 1 verification failure, 2 usage or internal error."""

    @pytest.mark.parametrize("jobs", [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="the patched family table reaches pool workers only by fork")),
    ])
    def test_sweep_records_an_internal_failure(self, capsys, monkeypatch, jobs):
        # an instance out of memory is recorded like any other failure: the
        # sweep goes on and ends with its summary line
        for error in (InvariantViolation, MemoryError):
            check = functools.partial(_failing_n3_check, error=error)
            monkeypatch.setitem(sweeps.FAMILIES, "n3", sweeps.FAMILIES["n3"]._replace(check=check))
            assert main(["sweep", "--family", "n3", "--max-mn", "5", "--jobs", jobs]) == 1
            lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            failed = [r for r in lines[:-1] if not r["ok"]]
            assert [r["seq"] for r in failed] == [[1, 2, 3]]
            assert failed[0]["error"] == f"{error.__name__}: forced failure"
            assert lines[-1]["summary"]["failures"] == 1
            assert lines[-1]["summary"]["instances"] == len(lines) - 1 > 1

    def test_invariants_internal_failure_exits_2(self, capsys, monkeypatch):
        def broken(seq):
            raise InvariantViolation("forced failure")

        monkeypatch.setattr(sweeps, "toric_ideal", broken)
        assert main(["invariants", "-m", "1,2,5"]) == 2
        assert "forced failure" in capsys.readouterr().err

    def test_invariants_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "reg_arithmetic", lambda prof: -1)
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify"]) == 1
        assert "verification failure: regularity" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # an I/O error is not a verification failure (exit 1)
        out = tmp_path / "missing" / "x.jsonl"
        assert main(["sweep", "--family", "n3", "--max-mn", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and str(out) in captured.err

    def test_cap_degree_flag_is_a_usage_error(self, capsys):
        # the degree guard is fixed: the retired flag is refused, not ignored
        assert main(["invariants", "-m", "4,5,6,7,8", "--cap-degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --cap-degree 3" in captured.err

    def test_out_of_memory_exits_2(self, run_python):
        # the largest entry's Hilbert numerator needs about 200 MB: under a
        # 128 MB address-space cap it runs out of memory, which is neither a
        # verification failure (exit 1) nor a traceback.  The import comes
        # first, so that only the command runs under the cap.
        proc = run_python("-c", "import resource, sys\n"
                          "from mcurve.cli import main\n"
                          "resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))\n"
                          "sys.exit(main(['invariants', '-m', '1,10000000']))")
        assert proc.returncode == 2
        assert proc.stderr == "error: out of memory\n"

