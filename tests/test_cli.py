import hashlib
import json

import pytest

from sft_lab import enumerator
from sft_lab.cli import main
from sft_lab.jsonio import (canonical_dumps, digest, read_document,
                            str_to_fraction, write_document)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_counts(path, rows, generators=None):
    doc = {
        "generators": generators or [
            {"id": "q_i", "cz": 1, "action": "1"},
            {"id": "q_j", "cz": 0, "action": "1"},
        ],
        "counts": rows,
    }
    write_document(str(path), doc)
    return str(path)


class TestEnumerateCommand:
    def test_torus_document_pinned(self, capsys):
        # the whole stdout, manifest included, of the (1,1) case: where
        # regularity transfers the obstruction rank is 0
        code, out = run(capsys, "enumerate", "--genus", "1", "--ends", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "57fec94e0102e4df49918de9b1b54e01"
            "c45cbf31cec329d453d3d53dcf24fc20")

    def test_component_outside_the_kernel_bound_exits_three(self, capsys,
                                                            monkeypatch):
        # the inputs come from the enumerator, so a component that breaks
        # the kernel bound is a consistency failure, not invalid input
        monkeypatch.setattr(enumerator, "kernel_bound", lambda c, g: 0)
        code = main(["enumerate", "--genus", "1", "--ends", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "consistency failure: component" in err

    @pytest.mark.parametrize("genus, ends", [("-1", "3"), ("0", "-1")])
    def test_negative_genus_or_ends_is_validation_error(self, capsys, genus,
                                                        ends):
        code = main(["enumerate", "--genus", genus, "--ends", ends])
        assert code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"max_levels": 2.5},            # float for an int field
        {"max_levels": True},           # bool for an int field
        {"allow_flowline_pants": 1},    # non-bool for a toggle
        {"action_threshold": True},     # bool for an action field
        {"action_threshold": "1/x"},    # bad rational literal
    ])
    def test_wrongly_typed_config_is_validation_error(self, capsys, tmp_path,
                                                      config):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        code = main(["enumerate", "--config", str(path),
                     "--genus", "0", "--ends", "1"])
        assert code == 2
        assert "invalid input: model field" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [0, -3])
    def test_max_levels_below_one_is_validation_error(self, capsys, tmp_path,
                                                      levels):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"max_levels": levels}))
        code = main(["enumerate", "--config", str(path),
                     "--genus", "0", "--ends", "1"])
        assert code == 2
        assert "at least one level" in capsys.readouterr().err

    def test_manifest_records_every_model_field(self, capsys, tmp_path):
        # the action threshold changes the (0,2) count from 6 to 0, so it
        # must change the recorded model and the input digest
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"action_threshold": "3/2"}))
        code, out = run(capsys, "enumerate", "--config", str(path),
                        "--genus", "0", "--ends", "2")
        _, default_out = run(capsys, "enumerate", "--genus", "0",
                             "--ends", "2")
        doc, default = json.loads(out), json.loads(default_out)
        assert code == 0
        assert doc["classification"]["summary"]["configurations"] == 0
        assert default["classification"]["summary"]["configurations"] == 6
        assert doc["model_conventions"]["action_threshold"] == "3/2"
        assert doc["input_digest"] != default["input_digest"]
        assert set(doc["model_conventions"]) == {
            "left_action_unit", "right_action_unit", "action_threshold",
            "cover_threshold", "max_levels", "allow_generic_crossing_pages",
            "left_covers_as_classes", "allow_branched_trivial_covers",
            "allow_flowline_pants", "flow_cover_attach_even_only"}

    def test_cylinder_document_pinned(self, capsys):
        # the whole stdout, manifest included, of the (0,2) case
        code, out = run(capsys, "enumerate", "--genus", "0", "--ends", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "122a43f54b2de0fdb4304983910114b4"
            "fd40abc54efccf341084a8c1895d918d")

    @pytest.mark.parametrize("key", ["k_circles", "genus_sigma",
                                     "genus_base", "max_ends_per_component",
                                     "max_genus_component",
                                     "max_components_per_level",
                                     "max_components"])
    def test_removed_model_field_is_unknown_key(self, capsys, tmp_path, key):
        # these fields left the model, so a config that sets one is refused
        path = tmp_path / "model.json"
        path.write_text(json.dumps({key: 3}))
        code = main(["enumerate", "--config", str(path),
                     "--genus", "0", "--ends", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad model configuration field" in err and key in err


class TestIndexCommand:
    def test_kernel_bound(self, capsys):
        code, out = run(capsys, "index", "--kernel-bound", "0", "0")
        assert code == 0
        assert json.loads(out)["kernel_bound"]["value"] == 2

    def test_normal_index_of_sporadic_profile(self, capsys):
        code, out = run(capsys, "index", "--normal-index",
                        "1", "1", "0", "0", "0", "0", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["normal_index"]["value"] == 0
        assert doc["automatic_transversality"] is False

    def test_obstruction_rank(self, capsys):
        code, out = run(capsys, "index", "--obstruction-rank", "0", "0", "1")
        assert code == 0
        assert json.loads(out)["obstruction_rank"] == 1

    def test_no_operation_is_validation_error(self, capsys):
        code, _ = run(capsys, "index")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["index", "--kernel-bound", "x", "1"],
        ["index", "--gluing-dim", "1", "1.5"],
        ["rigidity", "--multiplicities", "1,x"],
    ])
    def test_non_integer_argument_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err


class TestTorsionCommand:
    def test_sporadic_table(self, capsys, tmp_path):
        counts = write_counts(tmp_path / "c.json",
                              [{"genus": 1, "positive": ["q_i"],
                                "value": "5"}])
        code, out = run(capsys, "torsion", "--counts", counts)
        doc = json.loads(out)
        assert code == 0
        assert doc["torsion_order"] == "1"
        assert doc["certificate"][0]["coefficient"] == "1/5"

    def test_plane_table(self, capsys, tmp_path):
        counts = write_counts(tmp_path / "c.json",
                              [{"genus": 0, "positive": ["q_i"],
                                "value": "1"}])
        code, out = run(capsys, "torsion", "--counts", counts)
        assert code == 0
        assert json.loads(out)["torsion_order"] == "0"

    def test_empty_table_unknown(self, capsys, tmp_path):
        counts = write_counts(tmp_path / "c.json", [])
        code, out = run(capsys, "torsion", "--counts", counts)
        assert code == 0
        assert json.loads(out)["torsion_order"] == "unknown"

    def test_square_zero_failure_exits_three(self, capsys, tmp_path):
        counts = write_counts(
            tmp_path / "c.json",
            [{"genus": 0, "positive": ["q_i"], "negative": ["q_j"],
              "value": "1"},
             {"genus": 0, "positive": ["q_j"], "value": "1"}],
            generators=[{"id": "q_i", "cz": 1, "action": "1"},
                        {"id": "q_j", "cz": 1, "action": "1", "parity": 0}])
        code, out = run(capsys, "torsion", "--counts", counts)
        assert code == 3
        assert json.loads(out)["square_zero"] is False

    def test_skipped_square_check_is_reported_as_null(self, capsys,
                                                      tmp_path):
        counts = write_counts(tmp_path / "c.json",
                              [{"genus": 1, "positive": ["q_i"],
                                "value": "5"}])
        code, out = run(capsys, "torsion", "--counts", counts,
                        "--skip-square-check")
        doc = json.loads(out)
        assert code == 0
        assert doc["square_zero"] is None and doc["torsion_order"] == "1"

    @pytest.mark.parametrize("argv,code", [
        (["--trunc-hbar", "0"], 0), (["--trunc-len", "0"], 0),
        (["--trunc-hbar", "-1"], 2), (["--trunc-len", "-1"], 2),
        (["--action-cap", "0"], 2)])
    def test_truncation_bounds(self, capsys, tmp_path, argv, code):
        counts = write_counts(tmp_path / "c.json", [])
        assert main(["torsion", "--counts", counts] + argv) == code
        if code == 2:
            assert "truncation needs" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, capsys):
        code, _ = run(capsys, "torsion", "--counts", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("generators,rows,field", [
        ([{"cz": 1}], [], "'id'"),
        ([{"id": "q_i", "cz": "x"}], [], "'cz'"),
        ([{"id": "q_i", "cover": 1.5}], [], "'cover'"),
        ([{"id": "q_i", "action": "1/x"}], [], "'action'"),
        ([{"id": "q_i"}], [{"positive": ["q_i"], "value": "1"}], "'genus'"),
        ([{"id": "q_i"}], [{"genus": 0, "positive": ["q_i"],
                            "value": "1/0"}], "'value'"),
        ([{"id": "q_i"}], [{"genus": 0, "positive": "q_i",
                            "value": "1"}], "'positive'"),
        ([{"id": "q_i", "good": False}], [], "'good'"),
    ])
    def test_bad_table_field_is_named(self, capsys, tmp_path, generators,
                                      rows, field):
        counts = write_counts(tmp_path / "c.json", rows,
                              generators=generators)
        code = main(["torsion", "--counts", counts])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid input:") and field in err

    def test_bad_action_cap_is_named(self, capsys, tmp_path):
        counts = write_counts(tmp_path / "c.json", [])
        code = main(["torsion", "--counts", counts, "--action-cap", "x"])
        assert code == 2
        assert "--action-cap" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        code, _ = run(capsys, "torsion", "--counts", str(path))
        assert code == 2

    def test_internal_key_error_is_not_invalid_input(self, capsys, tmp_path,
                                                     monkeypatch):
        from sft_lab import cli

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "torsion_order", broken)
        counts = write_counts(tmp_path / "c.json", [])
        with pytest.raises(KeyError):
            main(["torsion", "--counts", counts])
        assert "invalid input" not in capsys.readouterr().err

    def test_square_zero_error_is_consistency_failure(self, capsys, tmp_path,
                                                      monkeypatch):
        from sft_lab import cli
        from sft_lab.errors import SquareZeroError

        def broken(*args, **kwargs):
            raise SquareZeroError("D^2 != 0")

        monkeypatch.setattr(cli, "torsion_order", broken)
        counts = write_counts(tmp_path / "c.json", [])
        assert main(["torsion", "--counts", counts]) == 3
        assert "consistency failure" in capsys.readouterr().err


class TestCobracketCommand:
    def test_simple_class(self, capsys):
        code, out = run(capsys, "cobracket", "--word", "a1")
        doc = json.loads(out)
        assert code == 0
        assert doc["cobracket"] == [] and doc["sporadic_count"] == 0

    def test_orientation_reversal_invariance(self, capsys):
        _, out1 = run(capsys, "cobracket", "--word", "a1a2A1A2")
        _, out2 = run(capsys, "cobracket", "--word", "a2a1A2A1")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["sporadic_count"] == d2["sporadic_count"] != 0

    def test_trivial_class_is_validation_error(self, capsys):
        code, _ = run(capsys, "cobracket", "--word", "a1A1")
        assert code == 2

    def test_registry_roundtrip(self, capsys, tmp_path):
        reg = str(tmp_path / "registry.json")
        run(capsys, "cobracket", "--word", "a1a2A1A2", "--registry", reg)
        saved = read_document(reg)
        assert saved["classes"]
        code, _ = run(capsys, "cobracket", "--word", "a1", "--registry", reg)
        assert code == 0


    @pytest.mark.parametrize("registry", [[1, 2], {"classes": [5]},
                                          {"classes": "a1"}])
    def test_malformed_registry_is_validation_error(self, capsys, tmp_path,
                                                    registry):
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps(registry))
        code = main(["cobracket", "--word", "a1", "--registry", str(reg)])
        assert code == 2
        assert "registry" in capsys.readouterr().err


class TestRigidityCommand:
    def test_single_profile(self, capsys):
        code, out = run(capsys, "rigidity", "--degree", "2", "--interior",
                        "1", "--multiplicities", "1,1,1,1")
        doc = json.loads(out)
        assert code == 0
        assert doc["profile"]["verdict"] == "injective_forced"
        assert str_to_fraction(doc["profile"]["budget"]) == -1

    def test_unbranched_profile(self, capsys):
        code, out = run(capsys, "rigidity", "--degree", "2", "--interior",
                        "0", "--multiplicities", "1,1,1,1")
        doc = json.loads(out)
        assert doc["profile"]["verdict"] == "inconclusive"
        assert "unbranched" in doc["profile"]["note"]

    def test_sweep(self, capsys):
        code, out = run(capsys, "rigidity", "--sweep", "--max-degree", "3",
                        "--max-branching", "4")
        doc = json.loads(out)
        assert code == 0
        branched = [r for r in doc["sweep"] if r["total_branching"] >= 1]
        assert branched and all(r["verdict"] == "injective_forced"
                                for r in branched)


class TestDeterminismAndRoundTrip:
    def test_byte_identical_documents(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, "rigidity", "--sweep", "--max-degree", "3", "--out", a)
        run(capsys, "rigidity", "--sweep", "--max-degree", "3", "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_documents_reparse_to_equal_values(self, capsys, tmp_path):
        path = str(tmp_path / "doc.json")
        _, out = run(capsys, "rigidity", "--degree", "3", "--interior", "2",
                     "--multiplicities", "2,2,1,1", "--out", path)
        parsed = read_document(path)
        assert canonical_dumps(parsed) == out
        assert digest(parsed) == digest(json.loads(out))

    def test_digest_stable_under_field_reordering(self):
        a = {"x": 1, "y": {"p": "2/3", "q": [1, 2]}}
        b = {"y": {"q": [1, 2], "p": "2/3"}, "x": 1}
        assert digest(a) == digest(b)
