"""Command-line behavior: output formats and the exit-code contract."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from raftmlp.cli import EX_CHECK, EX_IO, EX_OK, EX_USAGE, main
from raftmlp.container import save_tensors, save_weights
from raftmlp.models import build_preset, named_parameters, replace_parameters
from raftmlp.tensor import Tensor

RAFTMLP_S_PARAMS = 9_867_744
RAFTMLP_S_MACS = 2_087_030_784


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory):
    """raftmlp-s with zero weights and a strictly increasing head bias.

    With every weight zeroed the logits equal the head bias, so the
    predicted ranking is class 999, 998, ... regardless of the image.
    """
    model = build_preset("raftmlp-s", init="zeros")
    params = dict(named_parameters(model))
    bias = np.arange(1000, dtype=np.float32) / np.float32(100.0)
    params["head.bias"] = Tensor(bias, dtype="f32")
    model = replace_parameters(model, params)
    path = tmp_path_factory.mktemp("weights") / "raftmlp-s.rftw"
    save_weights(model, path)
    return str(path)


def write_ppm(path, height, width):
    rng = np.random.default_rng(height * 1000 + width)
    raster = rng.integers(0, 256, size=height * width * 3, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(raster.tobytes())
    return str(path)


@pytest.fixture(scope="module")
def image_224(tmp_path_factory):
    return write_ppm(tmp_path_factory.mktemp("images") / "a.ppm", 224, 224)


class TestDescribe:
    def test_raftmlp_s(self, capsys):
        assert main(["describe", "raftmlp-s"]) == EX_OK
        out = capsys.readouterr().out
        assert "preset: raftmlp-s" in out
        assert "resolution: 224x224" in out
        assert "channels: 64 128 256 512" in out
        assert "depths: 2 2 6 2" in out
        assert "strides: 4 2 2 2" in out
        assert "56x56" in out and "7x7" in out
        assert "head: 512 -> 1000" in out

    def test_raftmlp_l_channels(self, capsys):
        assert main(["describe", "raftmlp-l"]) == EX_OK
        assert "channels: 128 192 512 1024" in capsys.readouterr().out

    def test_mixer_b16(self, capsys):
        assert main(["describe", "mixer-b16"]) == EX_OK
        out = capsys.readouterr().out
        assert "plain" in out
        assert "14x14" in out
        assert "(with final norm)" in out

    def test_cr2_shows_raft_size(self, capsys):
        assert main(["describe", "mixer-b16-cr2"]) == EX_OK
        assert "raft r=2" in capsys.readouterr().out

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["describe", "raftmlp-xl"]) == EX_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EX_USAGE


class TestCost:
    def test_text_report(self, capsys):
        assert main(["cost", "raftmlp-s"]) == EX_OK
        out = capsys.readouterr().out
        assert f"{RAFTMLP_S_PARAMS}" in out
        assert f"{RAFTMLP_S_MACS}" in out
        assert "params (M): 9.868" in out
        assert "flops convention: macs" in out
        assert "level1.embed" in out and "head" in out

    def test_json_report(self, capsys):
        assert main(["cost", "raftmlp-s", "--json"]) == EX_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "raftmlp-s"
        assert doc["totals"] == {"params": RAFTMLP_S_PARAMS, "macs": RAFTMLP_S_MACS}
        assert doc["flops_convention"] == "macs"
        assert doc["flops"] == RAFTMLP_S_MACS
        assert {row["module"] for row in doc["rows"]} >= {"level1.embed", "head"}

    def test_2macs_convention_doubles_flops(self, capsys):
        assert main(["cost", "raftmlp-s", "--json", "--flops-convention", "2macs"]) == EX_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops"] == 2 * RAFTMLP_S_MACS
        assert doc["totals"]["macs"] == RAFTMLP_S_MACS  # raw MACs stay raw

    def test_expect_params_pass(self, capsys):
        argv = ["cost", "raftmlp-s", "--expect-params", str(RAFTMLP_S_PARAMS)]
        assert main(argv) == EX_OK
        assert "params check ok" in capsys.readouterr().out

    def test_expect_params_within_published_rounding(self, capsys):
        # the rounded headline figure of 9.9M is within the 1% default
        assert main(["cost", "raftmlp-s", "--expect-params", "9900000"]) == EX_OK

    def test_expect_params_failure(self, capsys):
        argv = ["cost", "raftmlp-s", "--expect-params", "9000000"]
        assert main(argv) == EX_CHECK
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--expect-params", "0"],
            ["--expect-params", "-5"],
            ["--expect-params", "9.9e6"],
            ["--tolerance", "-1", "--expect-params", str(RAFTMLP_S_PARAMS)],
            ["--tolerance", "nan", "--expect-params", str(RAFTMLP_S_PARAMS)],
        ],
    )
    def test_out_of_range_check_arguments_are_usage_errors(self, capsys, flags):
        assert main(["cost", "raftmlp-s", *flags]) == EX_USAGE
        captured = capsys.readouterr()
        assert "error: argument" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_zero_tolerance_demands_the_exact_count(self, capsys):
        argv = ["cost", "raftmlp-s", "--tolerance", "0", "--expect-params"]
        assert main(argv + [str(RAFTMLP_S_PARAMS)]) == EX_OK
        assert main(argv + [str(RAFTMLP_S_PARAMS + 1)]) == EX_CHECK

    def test_custom_resolution(self, capsys):
        assert main(["cost", "raftmlp-s", "--resolution", "448x448", "--json"]) == EX_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["resolution"] == [448, 448]
        assert doc["totals"]["params"] == RAFTMLP_S_PARAMS
        assert doc["totals"]["macs"] > RAFTMLP_S_MACS

    def test_malformed_resolution(self, capsys):
        assert main(["cost", "raftmlp-s", "--resolution", "448"]) == EX_USAGE

    def test_indivisible_resolution(self, capsys):
        assert main(["cost", "raftmlp-s", "--resolution", "225x224"]) == EX_USAGE


class TestForward:
    def test_ranking_follows_head_bias(self, capsys, weights_path, image_224):
        argv = ["forward", "raftmlp-s", "--weights", weights_path, "--image", image_224]
        assert main(argv) == EX_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("1: class 999 p=")
        assert lines[1].startswith("2: class 998 p=")

    def test_topk(self, capsys, weights_path, image_224):
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", image_224, "--topk", "3",
        ]
        assert main(argv) == EX_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize("topk", ["0", "-3", "two"])
    def test_topk_below_one_is_usage_error(self, capsys, weights_path, image_224, topk):
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", image_224, "--topk", topk,
        ]
        assert main(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert "error: argument --topk" in captured.err and captured.out == ""

    def test_topk_above_the_class_count_prints_every_class(self, capsys, weights_path, image_224):
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", image_224, "--topk", "5000",
        ]
        assert main(argv) == EX_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1000 and lines[-1].startswith("1000: class 0 p=")

    def test_probabilities_sum_to_one(self, capsys, weights_path, image_224):
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", image_224, "--topk", "1000",
        ]
        assert main(argv) == EX_OK
        out = capsys.readouterr().out
        total = sum(float(line.rsplit("p=", 1)[1]) for line in out.strip().splitlines())
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_missing_weights_file(self, capsys, image_224, tmp_path):
        argv = [
            "forward", "raftmlp-s",
            "--weights", str(tmp_path / "nope.rftw"), "--image", image_224,
        ]
        assert main(argv) == EX_IO

    def test_mismatched_container(self, capsys, image_224, tmp_path):
        rogue = tmp_path / "rogue.rftw"
        save_tensors({"alpha": Tensor(np.zeros((2, 2)))}, rogue)
        argv = ["forward", "raftmlp-s", "--weights", str(rogue), "--image", image_224]
        assert main(argv) == EX_IO
        assert "missing" in capsys.readouterr().err

    def test_misfit_container_dtype_and_shape(self, capsys, image_224, tmp_path):
        params = dict(named_parameters(build_preset("raftmlp-s", init="zeros")))
        params["head.bias"] = Tensor(np.zeros(1000), dtype="f64")
        params["head.weight"] = Tensor(np.zeros((512, 10), dtype=np.float32), dtype="f32")
        misfit = tmp_path / "misfit.rftw"
        save_tensors(params, misfit)
        argv = ["forward", "raftmlp-s", "--weights", str(misfit), "--image", image_224]
        assert main(argv) == EX_IO
        err = capsys.readouterr().err
        assert "ContainerError" in err
        assert "head.bias is f64" in err and "head.weight is f32 (512, 10)" in err

    def test_declared_payload_beyond_the_file_is_io_error(self, capsys, image_224, tmp_path):
        # One f32 tensor declaring 2**33 scalars, with 10 payload bytes.
        lying = tmp_path / "lying.rftw"
        lying.write_bytes(
            b"RFTW" + struct.pack("<IQI", 1, 1, 1) + b"x" + struct.pack("<BIQ", 0, 1, 1 << 33)
            + bytes(10)
        )
        argv = ["forward", "raftmlp-s", "--weights", str(lying), "--image", image_224]
        assert main(argv) == EX_IO
        assert "ContainerTruncatedError" in capsys.readouterr().err

    def test_non_finite_weights_are_io_error(self, capsys, weights_path, image_224, tmp_path):
        nan = tmp_path / "nan.rftw"
        nan.write_bytes(Path(weights_path).read_bytes()[:-4] + struct.pack("<f", float("nan")))
        argv = ["forward", "raftmlp-s", "--weights", str(nan), "--image", image_224]
        assert main(argv) == EX_IO
        err = capsys.readouterr().err
        assert "ContainerError" in err and "'head.bias'" in err

    def test_ascii_image_is_io_error(self, capsys, weights_path, tmp_path):
        p3 = tmp_path / "ascii.ppm"
        p3.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        argv = ["forward", "raftmlp-s", "--weights", weights_path, "--image", str(p3)]
        assert main(argv) == EX_IO
        assert "P3" in capsys.readouterr().err

    def test_off_grid_image_without_adaptation(self, capsys, weights_path, tmp_path):
        small = write_ppm(tmp_path / "small.ppm", 96, 96)
        argv = ["forward", "raftmlp-s", "--weights", weights_path, "--image", small]
        assert main(argv) == EX_USAGE == 1
        err = capsys.readouterr().err
        assert "--adapt-resolution" in err and "96x96" in err and "224x224" in err
        assert "forward_adapted" not in err

    @pytest.mark.parametrize("height, width", [(224, 160), (160, 224)])
    def test_an_image_off_size_in_one_extent_is_refused(self, capsys, weights_path, tmp_path,
                                                         height, width):
        image = write_ppm(tmp_path / "off.ppm", height, width)
        argv = ["forward", "raftmlp-s", "--weights", weights_path, "--image", image]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err
        assert f"forward: raftmlp-s runs at 224x224, the image is {height}x{width}" in err

    def test_off_grid_image_with_adaptation(self, capsys, weights_path, tmp_path):
        small = write_ppm(tmp_path / "small.ppm", 96, 96)
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", small, "--adapt-resolution",
        ]
        assert main(argv) == EX_OK
        assert capsys.readouterr().out.startswith("1: class 999")

    @pytest.mark.parametrize("height, width", [(1025, 8), (8, 1025)])
    def test_adaptation_refuses_an_extent_over_the_cap(self, capsys, weights_path, tmp_path,
                                                        height, width):
        tall = write_ppm(tmp_path / "tall.ppm", height, width)
        argv = [
            "forward", "raftmlp-s",
            "--weights", weights_path, "--image", tall, "--adapt-resolution",
        ]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err
        assert f"forward: image {height}x{width}" in err and "1024-pixel cap" in err
        assert "forward_adapted" not in err


    @pytest.mark.parametrize("adapt", [True, False])
    def test_a_huge_image_is_refused_before_its_raster_is_read(self, capsys, weights_path,
                                                               tmp_path, adapt):
        # A sparse 4000 x 4000 PPM: 48 MB of raster that the refusal must not decode,
        # and weights that it need not load.
        huge = tmp_path / "huge.ppm"
        header = b"P6\n4000 4000\n255\n"
        with open(huge, "wb") as f:
            f.write(header)
            f.truncate(len(header) + 4000 * 4000 * 3)
        argv = ["forward", "raftmlp-s", "--weights", weights_path, "--image", str(huge)]
        tracemalloc.start()
        try:
            code = main(argv + ["--adapt-resolution"] * adapt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EX_USAGE
        assert peak < 8 * 2**20
        err = capsys.readouterr().err
        assert "4000x4000" in err
        assert ("1024-pixel cap" in err) if adapt else ("--adapt-resolution" in err)


class TestGradcheck:
    def test_single_block_passes(self, capsys):
        argv = ["gradcheck", "--block", "channel", "--seeds", "2", "--max-coords", "8"]
        assert main(argv) == EX_OK
        out = capsys.readouterr().out
        assert "ok" in out
        assert "gradcheck[channel] seed=0" in out
        assert "gradcheck[channel] seed=1" in out
        assert "FAIL" not in out

    def test_unknown_block_is_usage_error(self, capsys):
        assert main(["gradcheck", "--block", "bogus"]) == EX_USAGE

    @pytest.mark.parametrize(
        "flags",
        [["--seeds", "0"], ["--seeds", "-1"], ["--max-coords", "0"], ["--max-coords", "-3"]],
    )
    def test_a_check_of_nothing_is_a_usage_error(self, capsys, flags):
        assert main(["gradcheck", "--block", "channel", *flags]) == EX_USAGE
        captured = capsys.readouterr()
        assert "error: argument" in captured.err and captured.out == ""

    @pytest.mark.parametrize("block", ["channel", "model"])
    def test_a_negative_seed_is_a_usage_error(self, capsys, block):
        # channel has fewer coordinates than --max-coords, model more: both refuse.
        assert main(["gradcheck", "--block", block, "--seed", "-1", "--seeds", "1"]) == EX_USAGE
        captured = capsys.readouterr()
        assert "argument --seed" in captured.err and captured.out == ""


class TestFeatmaps:
    def test_writes_one_pgm_per_channel(self, capsys, weights_path, image_224, tmp_path):
        out_dir = tmp_path / "maps"
        argv = [
            "featmaps", "raftmlp-s",
            "--weights", weights_path, "--image", image_224,
            "--level", "1", "--out", str(out_dir),
        ]
        assert main(argv) == EX_OK
        files = sorted(out_dir.iterdir())
        assert len(files) == 64
        assert files[0].name == "level1_ch0000.pgm"
        assert files[-1].name == "level1_ch0063.pgm"
        assert files[0].read_bytes().startswith(b"P5\n56 56\n255\n")
        assert "wrote 64 channel maps" in capsys.readouterr().out

    @pytest.mark.parametrize("level", ["0", "5"])
    def test_level_out_of_range(self, capsys, weights_path, image_224, tmp_path, level):
        argv = [
            "featmaps", "raftmlp-s",
            "--weights", weights_path, "--image", image_224,
            "--level", level, "--out", str(tmp_path / "maps"),
        ]
        assert main(argv) == EX_USAGE
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["0", "5"])
    def test_level_is_checked_before_the_weights_are_read(self, capsys, image_224, tmp_path,
                                                          level):
        argv = [
            "featmaps", "raftmlp-s",
            "--weights", str(tmp_path / "missing.rftw"), "--image", image_224,
            "--level", level, "--out", str(tmp_path / "maps"),
        ]
        assert main(argv) == EX_USAGE
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["present", "missing"])
    def test_off_size_image_is_refused_from_its_header(self, capsys, weights_path, tmp_path,
                                                       weights):
        # A sparse 1000 x 1000 PPM: 3 MB of raster that the refusal must not decode,
        # and weights that it must not read.
        big = tmp_path / "big.ppm"
        header = b"P6\n1000 1000\n255\n"
        with open(big, "wb") as f:
            f.write(header)
            f.truncate(len(header) + 1000 * 1000 * 3)
        argv = [
            "featmaps", "raftmlp-s",
            "--weights", weights_path if weights == "present" else str(tmp_path / "none.rftw"),
            "--image", str(big), "--level", "1", "--out", str(tmp_path / "maps"),
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EX_USAGE
        assert peak < 8 * 2**20
        err = capsys.readouterr().err
        assert "1000x1000" in err and "224x224" in err
        assert "forward_adapted" not in err and "level_outputs" not in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("height, width", [(224, 160), (160, 224)])
    def test_an_image_off_size_in_one_extent_is_refused(self, capsys, weights_path, tmp_path,
                                                         height, width):
        image = write_ppm(tmp_path / "off.ppm", height, width)
        argv = [
            "featmaps", "raftmlp-s", "--weights", weights_path, "--image", image,
            "--level", "1", "--out", str(tmp_path / "maps"),
        ]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err
        assert f"featmaps: raftmlp-s runs at 224x224, the image is {height}x{width}" in err
        assert not (tmp_path / "maps").exists()


class TestSelftest:
    def test_full_suite_passes(self, capsys):
        assert main(["selftest"]) == EX_OK
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        assert "FAIL" not in out
