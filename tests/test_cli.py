"""CLI contract: exit codes, JSON round-trips, diff semantics, sweeps."""

import json

from mcurve.cli import InvariantReport, build_report, main
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
        report = InvariantReport.from_dict(data)
        assert report == build_report(parse_sequence("10,13,16,19,22"), verify=True)

    def test_general_sequence_oracle_only(self, capsys):
        assert main(["invariants", "-m", "1,2,5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"]["regularity"] == "oracle"
        assert data["cm"] is not None


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

    def test_serialization_parses_back(self, capsys):
        from mcurve.grobner import parse_gb, toric_ideal
        assert main(["gb", "-m", "3,5,7"]) == 0
        text = capsys.readouterr().out
        gb = parse_gb(text)
        assert gb.elements == toric_ideal(parse_sequence("3,5,7")).elements


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
        assert summary["config"] == {"max_m4": 6} and summary["failures"] == 0
        assert max(json.loads(line)["seq"][-1] for line in lines[:-1]) == 6

    def test_random_sweep_seeded(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--family", "random", "--count", "5",
                     "--seed", "3", "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["seed"] == 3 and summary["instances"] == 5

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


class TestCap:
    def test_cap_flag_fails_fast(self, capsys):
        # closed forms alone do not hit the cap; the oracle path does
        assert main(["invariants", "-m", "10,13,16,19,22", "--cap-degree", "3"]) == 0
        assert main(["invariants", "-m", "10,13,16,19,22", "--cap-degree", "3",
                     "--verify"]) == 2

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MCURVE_CAP_DEGREE", "3")
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify"]) == 2
        monkeypatch.setenv("MCURVE_CAP_DEGREE", "400")
        assert main(["invariants", "-m", "10,13,16,19,22", "--verify"]) == 0
