"""CLI and file-format tests, including golden files."""

import csv
import json
import os
import pathlib

import numpy as np
import pytest

from conftest import random_hermitian, random_skew, random_unitary

from denflow.cli import (
    DocumentError,
    doc_to_matrix,
    doc_to_samples,
    load_matrix,
    main,
    matrix_to_doc,
    parse_times,
    samples_to_doc,
    save_matrix,
)
from denflow.geodesic import solve_geodesic
from denflow.linalg import frob_norm
from denflow.regularize import model_path, RegularizedModel

GOLDEN = pathlib.Path(__file__).parent / "golden"

RHO0 = np.diag([1.0, 0.0]).astype(complex)
RHO1 = np.diag([0.0, 1.0]).astype(complex)
XREF = np.array([[0.0, -1.6], [1.6, 0.0]], dtype=complex)


@pytest.fixture
def docs(tmp_path):
    save_matrix(tmp_path / "rho0.json", RHO0)
    save_matrix(tmp_path / "rho1.json", RHO1)
    save_matrix(tmp_path / "x.json", XREF, kind="skew")
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def csv_states(header, data, n):
    re = data[:, 1 : 1 + n * n].reshape(-1, n, n)
    im = data[:, 1 + n * n : 1 + 2 * n * n].reshape(-1, n, n)
    return re + 1j * im


def assert_json_close(got, want, tol=1e-6, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for k in want:
            assert_json_close(got[k], want[k], tol, f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, tol, f"{path}[{i}]")
    elif isinstance(want, bool) or not isinstance(want, (int, float)):
        assert got == want, path
    else:
        assert abs(got - want) <= tol, f"{path}: {got} vs {want}"


class TestDocuments:
    def test_matrix_roundtrip_bit_exact(self):
        rng = np.random.default_rng(8)
        cases = [
            (random_hermitian(rng, 3), "hermitian"),
            (random_skew(rng, 3), "skew"),
            (random_unitary(rng, 3), "unitary"),
        ]
        for M, kind in cases:
            back = doc_to_matrix(matrix_to_doc(M, kind=kind), kind=kind)
            assert np.array_equal(back, M)

    def test_file_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        M = random_hermitian(rng, 4)
        save_matrix(tmp_path / "m.json", M)
        assert np.array_equal(load_matrix(tmp_path / "m.json"), M)

    def test_dataset_roundtrip_and_array_form(self):
        from denflow.regularize import MatrixSample

        rng = np.random.default_rng(10)
        samples = [MatrixSample(t, random_hermitian(rng, 2)) for t in (0.1, 0.5, 0.9)]
        doc = samples_to_doc(samples, meta={"tag": "x"})
        back = doc_to_samples(doc)
        for a, b in zip(samples, back):
            assert a.t == b.t
            assert np.array_equal(a.value, b.value)
        # a bare array of samples is accepted too
        back2 = doc_to_samples(doc["samples"])
        assert np.array_equal(back2[1].value, samples[1].value)

    def test_non_hermitian_rejected(self):
        doc = {"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}
        with pytest.raises(ValueError):
            doc_to_matrix(doc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            doc_to_matrix({"n": 3, "re": [[1.0, 0.0], [0.0, 1.0]]})

    def test_parse_times_grid_and_list(self):
        grid = parse_times("0.05:0.05:1")
        assert len(grid) == 20
        assert grid[0] == 0.05 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.05)
        assert np.allclose(parse_times("0.1,0.4,0.9"), [0.1, 0.4, 0.9])
        with pytest.raises(ValueError):
            parse_times("1:0:-2")
        for text in ("0:0.1:inf", "nan,0.5", "0,inf"):
            with pytest.raises(DocumentError, match="finite"):
                parse_times(text)


class TestInterpolate:
    def test_fade_regime_linear_eigenvalues(self, docs):
        out = docs / "run"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "0.1",
            "--samples", "21", "--out", str(out), "--quiet",
        ])
        assert code == 0
        header, data = read_csv(out / "path.csv")
        t = data[:, 0]
        eig0 = data[:, header.index("eig_0")]
        eig1 = data[:, header.index("eig_1")]
        assert np.allclose(eig0, np.minimum(t, 1 - t), atol=1e-9)
        assert np.allclose(eig1, np.maximum(t, 1 - t), atol=1e-9)

    def test_rotation_regime_rank_one(self, docs):
        out = docs / "run"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--samples", "101", "--out", str(out), "--quiet",
        ])
        assert code == 0
        header, data = read_csv(out / "path.csv")
        assert np.all(data[:, header.index("min_eig")] <= 1e-9)
        assert np.allclose(data[:, header.index("trace")], 1.0, atol=1e-9)
        sol = json.loads((out / "solution.json").read_text())
        X = np.array(sol["X"]["re"]) + 1j * np.array(sol["X"]["im"])
        assert abs(np.linalg.norm(X) - np.pi / np.sqrt(2)) <= 1e-4

    def test_identical_endpoints_constant_path(self, docs):
        out = docs / "run"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho0.json"), "--epsilon", "1",
            "--samples", "7", "--out", str(out), "--quiet",
        ])
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["cost"]["total"] <= 1e-7
        _, data = read_csv(out / "path.csv")
        assert np.allclose(data[:, 1:], data[0:1, 1:], atol=1e-7)

    def test_json_format_output(self, docs):
        out = docs / "run"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--samples", "5", "--format", "json", "--out", str(out), "--quiet",
        ])
        assert code == 0
        samples = doc_to_samples(json.loads((out / "path.json").read_text()))
        assert len(samples) == 5
        assert frob_norm(samples[0].value - RHO0) <= 1e-9
        assert frob_norm(samples[-1].value - RHO1) <= 1e-9

    def test_glyph_reconstruction(self, docs):
        out = docs / "run"
        main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--samples", "9", "--glyphs", "--out", str(out), "--quiet",
        ])
        header, data = read_csv(out / "path.csv")
        states = csv_states(header, data, 2)
        glyphs = json.loads((out / "glyphs.json").read_text())
        assert len(glyphs) == 9
        for record, M in zip(glyphs, states):
            vals = [a["eigenvalue"] for a in record["axes"]]
            assert vals == sorted(vals)
            recon = np.zeros((2, 2), dtype=complex)
            for axis in record["axes"]:
                v = np.array(axis["vector_re"]) + 1j * np.array(axis["vector_im"])
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
                recon += axis["eigenvalue"] * np.outer(v, v.conj())
            assert frob_norm(recon - M) <= 1e-8

    def test_trace_mismatch_exits_2(self, docs, tmp_path):
        save_matrix(tmp_path / "bad.json", np.diag([1.0, 0.5]).astype(complex))
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(tmp_path / "bad.json"), "--epsilon", "1", "--quiet",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1"])
    def test_bad_epsilon_exits_3(self, docs, eps):
        out = docs / "o"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), f"--epsilon={eps}", "--quiet",
            "--out", str(out),
        ])
        assert code == 3
        assert not (out / "solution.json").exists()

    def test_schema_errors_exit_3(self, docs, tmp_path):
        missing = main([
            "interpolate", "--rho0", str(tmp_path / "nope.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1", "--quiet",
        ])
        assert missing == 3
        (tmp_path / "junk.json").write_text("{not json")
        broken = main([
            "interpolate", "--rho0", str(tmp_path / "junk.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1", "--quiet",
        ])
        assert broken == 3
        (tmp_path / "nonherm.json").write_text(
            json.dumps({"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})
        )
        nonherm = main([
            "interpolate", "--rho0", str(tmp_path / "nonherm.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1", "--quiet",
        ])
        assert nonherm == 3

    def test_usage_error_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate", "--epsilon", "1"])
        assert exc.value.code == 3

    def test_max_enum_flag_rejected(self, docs):
        # the matching cap is fixed at 7; larger n takes the local search
        with pytest.raises(SystemExit) as exc:
            main([
                "interpolate", "--rho0", str(docs / "rho0.json"),
                "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
                "--max-enum", "3", "--out", str(docs / "run"), "--quiet",
            ])
        assert exc.value.code == 3

    def test_non_psd_endpoint_exits_3(self, docs, tmp_path):
        # Hermitian with trace 1, so only the PSD check can reject it
        save_matrix(tmp_path / "neg.json", np.diag([1.5, -0.5]).astype(complex))
        out = tmp_path / "o"
        code = main([
            "interpolate", "--rho0", str(tmp_path / "neg.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1", "--quiet",
            "--out", str(out),
        ])
        assert code == 3
        assert not (out / "solution.json").exists()


class TestPath:
    def test_report_and_controls(self, docs):
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--steps", "20", "--out", str(out), "--quiet",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["endpoint_residual"] <= 1e-4
        base = solve_geodesic(RHO0, RHO1, 10.0)
        assert report["cost"] <= base.cost_total + 1e-2
        trace = report["objective_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        controls = json.loads((out / "controls.json").read_text())
        assert len(controls) == 20
        doc_to_matrix(controls[0]["X"], kind="skew")
        doc_to_matrix(controls[0]["u"])
        _, data = read_csv(out / "path.csv")
        assert data.shape[0] == 21

    def test_identical_endpoints_zero_cost(self, docs):
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho0.json"), "--epsilon", "1",
            "--steps", "10", "--out", str(out), "--quiet",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cost"] <= 1e-8

    def test_non_converged_exits_4(self, docs):
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--steps", "4", "--tol-end", "0", "--max-rounds", "1",
            "--out", str(out), "--quiet",
        ])
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False

    def test_samples_flag_rejected(self, docs):
        # a path has N + 1 states; --samples belongs to interpolate only
        with pytest.raises(SystemExit) as exc:
            main([
                "path", "--rho0", str(docs / "rho0.json"),
                "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
                "--samples", "5", "--out", str(docs / "run"), "--quiet",
            ])
        assert exc.value.code == 3

    def test_max_enum_flag_rejected(self, docs):
        # the matching cap is fixed at 7; larger n takes the local search
        with pytest.raises(SystemExit) as exc:
            main([
                "path", "--rho0", str(docs / "rho0.json"),
                "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
                "--max-enum", "3", "--out", str(docs / "run"), "--quiet",
            ])
        assert exc.value.code == 3

    def test_zero_rounds_exits_3(self, docs):
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
            "--steps", "4", "--max-rounds", "0", "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert not (out / "report.json").exists()

    def test_non_psd_endpoint_exits_3(self, docs, tmp_path):
        save_matrix(tmp_path / "neg.json", np.diag([-0.5, 1.5]).astype(complex))
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(tmp_path / "neg.json"), "--epsilon", "1",
            "--steps", "4", "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_exits_3(self, docs, tol):
        out = docs / "run"
        code = main([
            "path", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
            "--steps", "4", "--tol-end", tol, "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert not (out / "report.json").exists()


class TestSynthAndRegularize:
    def synth(self, docs, out, seed=42, noise="0", times="0.05:0.05:1", z=("--z", "0,0")):
        return main([
            "synth", "--rho0", str(docs / "rho0spd.json"), "--x", str(docs / "x.json"),
            *z, "--times", times, "--noise", noise,
            "--seed", str(seed), "--out", str(out), "--quiet",
        ])

    @pytest.fixture
    def sdocs(self, docs):
        save_matrix(docs / "rho0spd.json", np.diag([1.0, 0.1]).astype(complex))
        return docs

    def test_synth_grid_and_determinism(self, sdocs):
        assert self.synth(sdocs, sdocs / "a", noise="0.05") == 0
        assert self.synth(sdocs, sdocs / "b", noise="0.05") == 0
        a = (sdocs / "a" / "dataset.json").read_bytes()
        b = (sdocs / "b" / "dataset.json").read_bytes()
        assert a == b
        assert self.synth(sdocs, sdocs / "c", seed=43, noise="0.05") == 0
        assert a != (sdocs / "c" / "dataset.json").read_bytes()
        doc = json.loads(a)
        assert len(doc["samples"]) == 20

    def test_synth_negative_z_space_separated(self, sdocs):
        # argparse alone reads '-0.1,0.1' as an unknown option
        assert self.synth(sdocs, sdocs / "a", z=("--z", "-0.1,0.1")) == 0
        assert self.synth(sdocs, sdocs / "b", z=("--z=-0.1,0.1",)) == 0
        a = (sdocs / "a" / "dataset.json").read_bytes()
        assert a == (sdocs / "b" / "dataset.json").read_bytes()

    def test_synth_zero_noise_exact_flow(self, sdocs):
        assert self.synth(sdocs, sdocs / "a") == 0
        samples = doc_to_samples(json.loads((sdocs / "a" / "dataset.json").read_text()))
        truth = RegularizedModel(
            V=np.eye(2, dtype=complex)[:, ::-1], p=np.array([0.1, 1.0]),
            z=np.zeros(2), X=XREF, objective=0.0,
        )
        states = model_path(truth, [s.t for s in samples])
        for s, M in zip(samples, states):
            assert frob_norm(s.value - M) <= 1e-12

    def test_regularize_noise_free_recovery(self, sdocs):
        assert self.synth(sdocs, sdocs / "a") == 0
        out = sdocs / "fit"
        code = main([
            "regularize", "--data", str(sdocs / "a" / "dataset.json"),
            "--seeds", "2", "--out", str(out), "--quiet",
        ])
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["objective"] <= 1e-6
        assert model["stalled"] is False
        X = np.array(model["X"]["re"]) + 1j * np.array(model["X"]["im"])
        assert frob_norm(X - XREF) <= 1e-3
        with open(out / "fit.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "misfit"]
        assert len(rows) == 21
        assert max(float(r[1]) for r in rows[1:]) <= 1e-6
        # glyphs for both the data and the fitted path
        for name in ("data_glyphs.json", "fit_glyphs.json"):
            glyphs = json.loads((out / name).read_text())
            assert len(glyphs) == 20

    def test_regularize_stalled_exits_5(self, sdocs):
        assert self.synth(sdocs, sdocs / "noisy", noise="0.05") == 0
        out = sdocs / "fit"
        code = main([
            "regularize", "--data", str(sdocs / "noisy" / "dataset.json"),
            "--seeds", "1", "--max-iters", "1", "--out", str(out), "--quiet",
        ])
        assert code == 5
        model = json.loads((out / "model.json").read_text())
        assert model["stalled"] is True

    def test_regularize_schema_error_exits_3(self, sdocs, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"nope": 1}))
        code = main([
            "regularize", "--data", str(tmp_path / "bad.json"), "--quiet",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_synth_non_finite_noise_exits_3(self, sdocs, noise):
        assert self.synth(sdocs, sdocs / "a", noise=noise) == 3
        assert not (sdocs / "a" / "dataset.json").exists()

    def test_regularize_zero_seeds_exits_3(self, sdocs):
        assert self.synth(sdocs, sdocs / "a") == 0
        out = sdocs / "fit"
        code = main([
            "regularize", "--data", str(sdocs / "a" / "dataset.json"),
            "--seeds", "0", "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert not (out / "model.json").exists()

    def test_synth_bad_times_exits_3(self, sdocs):
        code = self.synth(sdocs, sdocs / "a", times="nonsense")
        assert code == 3

    @pytest.mark.parametrize("times", ["0:0.1:inf", "nan,0.5", "0,inf"])
    def test_synth_non_finite_times_exits_3(self, sdocs, times):
        assert self.synth(sdocs, sdocs / "a", times=times) == 3
        assert not (sdocs / "a" / "dataset.json").exists()


class TestDecompose:
    def test_offdiagonal_direction_is_pure_rotation(self, docs, tmp_path):
        save_matrix(tmp_path / "t.json", np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        out = tmp_path / "run"
        code = main([
            "decompose", "--rho", str(docs / "rho0.json"),
            "--direction", str(tmp_path / "t.json"), "--out", str(out), "--quiet",
        ])
        assert code == 0
        doc = json.loads((out / "decomposition.json").read_text())
        assert np.allclose(doc["scaling_part"]["re"], 0.0, atol=1e-12)
        for value in doc["residuals"].values():
            assert value <= 1e-10

    def test_diagonal_direction_is_pure_scaling(self, docs, tmp_path):
        save_matrix(tmp_path / "t.json", np.diag([0.25, -0.25]).astype(complex))
        out = tmp_path / "run"
        code = main([
            "decompose", "--rho", str(docs / "rho0.json"),
            "--direction", str(tmp_path / "t.json"), "--out", str(out), "--quiet",
        ])
        assert code == 0
        doc = json.loads((out / "decomposition.json").read_text())
        assert np.allclose(doc["X"]["re"], 0.0, atol=1e-12)
        assert np.allclose(doc["X"]["im"], 0.0, atol=1e-12)

    def test_non_hermitian_direction_exits_3(self, docs, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})
        )
        code = main([
            "decompose", "--rho", str(docs / "rho0.json"),
            "--direction", str(tmp_path / "bad.json"), "--quiet",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3


class TestLogging:
    def test_quiet_suppresses_info(self, docs, capfd):
        out = docs / "run"
        args = [
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1",
            "--samples", "3", "--out", str(out),
        ]
        main(args)
        assert "interpolate:" in capfd.readouterr().err
        main(args + ["--quiet"])
        assert "interpolate:" not in capfd.readouterr().err

    def test_errors_reported_even_quiet(self, docs, capfd, tmp_path):
        main([
            "interpolate", "--rho0", str(tmp_path / "nope.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "1", "--quiet",
        ])
        assert "cannot read" in capfd.readouterr().err


class TestGolden:
    def test_interpolate_golden(self, docs):
        out = docs / "run"
        code = main([
            "interpolate", "--rho0", str(docs / "rho0.json"),
            "--rho1", str(docs / "rho1.json"), "--epsilon", "10",
            "--samples", "5", "--glyphs", "--out", str(out), "--quiet",
        ])
        assert code == 0
        for name in ("solution.json", "glyphs.json"):
            got = json.loads((out / name).read_text())
            want = json.loads((GOLDEN / "interpolate" / name).read_text())
            assert_json_close(got, want)
        got_header, got_data = read_csv(out / "path.csv")
        want_header, want_data = read_csv(GOLDEN / "interpolate" / "path.csv")
        assert got_header == want_header
        assert got_data.shape == want_data.shape
        assert np.abs(got_data - want_data).max() <= 1e-6

    def test_regularize_golden(self, docs):
        save_matrix(docs / "rho0spd.json", np.diag([1.0, 0.1]).astype(complex))
        synth_out = docs / "synthrun"
        main([
            "synth", "--rho0", str(docs / "rho0spd.json"), "--x", str(docs / "x.json"),
            "--z", "0,0", "--times", "0.05:0.05:1", "--noise", "0",
            "--seed", "42", "--out", str(synth_out), "--quiet",
        ])
        out = docs / "fit"
        code = main([
            "regularize", "--data", str(synth_out / "dataset.json"),
            "--seeds", "2", "--out", str(out), "--quiet",
        ])
        assert code == 0
        got = json.loads((out / "model.json").read_text())
        want = json.loads((GOLDEN / "regularize" / "model.json").read_text())
        assert_json_close(got, want)

    def test_synth_golden_bytes(self, docs):
        save_matrix(docs / "rho0spd.json", np.diag([1.0, 0.1]).astype(complex))
        out = docs / "run"
        code = main([
            "synth", "--rho0", str(docs / "rho0spd.json"), "--x", str(docs / "x.json"),
            "--z", "0,0", "--times", "0.05:0.05:1", "--noise", "0.05",
            "--seed", "42", "--out", str(out), "--quiet",
        ])
        assert code == 0
        got = (out / "dataset.json").read_bytes()
        want = (GOLDEN / "synth" / "dataset.json").read_bytes()
        assert got == want

    def test_decompose_golden(self, docs, tmp_path):
        save_matrix(tmp_path / "t.json", np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        out = tmp_path / "run"
        code = main([
            "decompose", "--rho", str(docs / "rho0.json"),
            "--direction", str(tmp_path / "t.json"), "--out", str(out), "--quiet",
        ])
        assert code == 0
        got = json.loads((out / "decomposition.json").read_text())
        want = json.loads((GOLDEN / "decompose" / "decomposition.json").read_text())
        assert_json_close(got, want)
