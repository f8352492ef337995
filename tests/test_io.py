"""Weight container and netpbm image round trips, plus the error taxonomy."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from raftmlp.container import (
    ContainerError,
    ContainerMagicError,
    ContainerNameError,
    ContainerTruncatedError,
    ContainerVersionError,
    MAGIC,
    VERSION,
    load_tensors,
    load_weights,
    save_tensors,
    save_weights,
)
from raftmlp.models import (
    LevelConfig,
    ModelConfig,
    build_model,
    forward,
    named_parameters,
)
from raftmlp.netpbm import ImageFormatError, read_ppm, write_pgm
from raftmlp.tensor import Tensor


def tiny_model(seed=23):
    config = ModelConfig(
        name="tiny",
        levels=(
            LevelConfig(channels=8, depth=1, stride=4, scales=(0, 1), raft_size=2, e_chan=2),
            LevelConfig(channels=16, depth=1, stride=2, scales=(0,), raft_size=2, e_chan=2),
        ),
        num_classes=4,
        resolution=(32, 32),
        seed=seed,
    )
    return build_model(config, dtype="f64")


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "alpha": Tensor(rng.normal(size=(3, 4)), dtype="f64"),
        "beta.weight": Tensor(rng.normal(size=(7,)).astype(np.float32), dtype="f32"),
        "gamma": Tensor(rng.normal(size=(2, 2, 2)), dtype="f64"),
    }


class TestTensorContainer:
    def test_roundtrip_is_bitwise(self, tmp_path):
        tensors = sample_tensors()
        path = tmp_path / "weights.rftw"
        save_tensors(tensors, path)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert loaded[name].dtype == tensors[name].dtype
            assert np.array_equal(loaded[name].numpy(), tensors[name].numpy())

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.rftw"
        save_tensors({"x": Tensor(np.zeros((2, 3)), dtype="f64")}, path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == VERSION
        assert struct.unpack("<Q", blob[8:16])[0] == 1
        assert struct.unpack("<I", blob[16:20])[0] == 1  # name length
        assert blob[20:21] == b"x"

    def test_empty_mapping(self, tmp_path):
        path = tmp_path / "empty.rftw"
        save_tensors({}, path)
        assert load_tensors(path) == {}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rftw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContainerMagicError):
            load_tensors(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.rftw"
        path.write_bytes(MAGIC + struct.pack("<I", 9) + struct.pack("<Q", 0))
        with pytest.raises(ContainerVersionError):
            load_tensors(path)

    @pytest.mark.parametrize("cut", [2, 6, 10, 20, 40])
    def test_truncation_at_any_boundary(self, tmp_path, cut):
        path = tmp_path / "full.rftw"
        save_tensors(sample_tensors(), path)
        blob = path.read_bytes()
        short = tmp_path / "short.rftw"
        short.write_bytes(blob[:cut])
        with pytest.raises(ContainerTruncatedError):
            load_tensors(short)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "full.rftw"
        save_tensors({"x": Tensor(np.ones((4, 4)), dtype="f64")}, path)
        blob = path.read_bytes()
        short = tmp_path / "short.rftw"
        short.write_bytes(blob[:-1])
        with pytest.raises(ContainerTruncatedError):
            load_tensors(short)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "full.rftw"
        save_tensors({"x": Tensor(np.ones((2,)), dtype="f64")}, path)
        padded = tmp_path / "padded.rftw"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContainerError, match="trailing"):
            load_tensors(padded)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.rftw"
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", 2))
            for _ in range(2):
                f.write(struct.pack("<I", 1) + b"x")
                f.write(struct.pack("<B", 1))
                f.write(struct.pack("<I", 1) + struct.pack("<Q", 1))
                f.write(struct.pack("<d", 0.0))
        with pytest.raises(ContainerNameError, match="duplicate"):
            load_tensors(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "odd.rftw"
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", 1))
            f.write(struct.pack("<I", 1) + b"x")
            f.write(struct.pack("<B", 7))
        with pytest.raises(ContainerError, match="dtype"):
            load_tensors(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.rftw"
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", 1))
            f.write(struct.pack("<I", 1) + b"x")
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<I", 2) + struct.pack("<QQ", 3, 0))
        with pytest.raises(ContainerError, match="non-positive"):
            load_tensors(path)


class TestModelWeights:
    def test_save_load_preserves_logits(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "tiny.rftw"
        save_weights(model, path)
        restored = load_weights(tiny_model(seed=99), path)
        image = Tensor(np.random.default_rng(1).normal(size=(3, 32, 32)), dtype="f64")
        assert np.array_equal(
            forward(model, image).numpy(), forward(restored, image).numpy()
        )

    def test_name_mismatch_lists_both_sides(self, tmp_path):
        model = tiny_model()
        tensors = dict(named_parameters(model))
        del tensors["head.bias"]
        tensors["rogue"] = Tensor(np.zeros((1,)), dtype="f64")
        path = tmp_path / "bad.rftw"
        save_tensors(tensors, path)
        with pytest.raises(ContainerNameError) as exc_info:
            load_weights(model, path)
        assert "head.bias" in str(exc_info.value)
        assert "rogue" in str(exc_info.value)

    def test_dtype_and_shape_mismatch_lists_every_tensor(self, tmp_path):
        model = tiny_model()
        tensors = dict(named_parameters(model))
        tensors["head.bias"] = Tensor(tensors["head.bias"].numpy(), dtype="f32")
        tensors["head.weight"] = Tensor(np.zeros((16, 10)), dtype="f64")
        path = tmp_path / "misfit.rftw"
        save_tensors(tensors, path)
        with pytest.raises(ContainerError) as exc_info:
            load_weights(model, path)
        message = str(exc_info.value)
        assert "head.bias is f32 (4,), model has f64 (4,)" in message
        assert "head.weight is f64 (16, 10), model has f64 (16, 4)" in message

    def test_all_errors_are_value_errors(self):
        for exc in (
            ContainerError,
            ContainerMagicError,
            ContainerVersionError,
            ContainerTruncatedError,
            ContainerNameError,
        ):
            assert issubclass(exc, ValueError)


class TestPpm:
    @staticmethod
    def _write_p6(path, width, height, pixels, maxval=255, header_comment=False):
        with open(path, "wb") as f:
            f.write(b"P6\n")
            if header_comment:
                f.write(b"# generated for tests\n")
            f.write(f"{width} {height}\n{maxval}\n".encode("ascii"))
            f.write(bytes(pixels))

    def test_white_square(self, tmp_path):
        path = tmp_path / "white.ppm"
        self._write_p6(path, 2, 2, [255] * 12)
        image = read_ppm(path)
        assert image.shape == (3, 2, 2)
        assert image.dtype == "f32"
        assert np.array_equal(image.numpy(), np.ones((3, 2, 2), dtype=np.float32))

    def test_channel_order_and_scaling(self, tmp_path):
        path = tmp_path / "pix.ppm"
        # one pixel: r=255, g=0, b=51 -> [1, 0, 0.2]
        self._write_p6(path, 1, 1, [255, 0, 51])
        got = read_ppm(path).numpy()
        assert got[0, 0, 0] == np.float32(1.0)
        assert got[1, 0, 0] == np.float32(0.0)
        assert got[2, 0, 0] == np.float32(51) / np.float32(255)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "comment.ppm"
        self._write_p6(path, 1, 1, [1, 2, 3], header_comment=True)
        assert read_ppm(path).shape == (3, 1, 1)

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 0 0\n")
        with pytest.raises(ImageFormatError, match="P3"):
            read_ppm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "pgm.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError, match="magic"):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        self._write_p6(path, 1, 1, [0, 0, 0, 0, 0, 0], maxval=65535)
        with pytest.raises(ImageFormatError, match="maxval"):
            read_ppm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        self._write_p6(path, 2, 2, [255] * 11)
        with pytest.raises(ImageFormatError, match="truncated"):
            read_ppm(path)

    def test_short_file_fails_before_allocating_the_raster(self, tmp_path):
        path = tmp_path / "huge.ppm"
        self._write_p6(path, 3000, 3000, [])
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="truncated raster"):
                read_ppm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self):
        # A pipe reports no size, so the raster check must not rely on one.
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as f:
            f.write(b"P6\n1 1\n255\n" + bytes([255, 0, 51]))
        try:
            got = read_ppm(f"/dev/fd/{read_end}").numpy()
        finally:
            os.close(read_end)
        want = np.array([255, 0, 51], dtype=np.float32) / np.float32(255)
        assert np.array_equal(got[:, 0, 0], want)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_short_pipe_fails_before_allocating_the_raster(self):
        # 27 MB declared, a few bytes sent: a pipe is read in bounded chunks.
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as f:
            f.write(b"P6\n3000 3000\n255\n" + bytes(10))
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="truncated raster"):
                read_ppm(f"/dev/fd/{read_end}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            os.close(read_end)
        assert peak < 4 << 20

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "garbled.ppm"
        path.write_bytes(b"P6\nwide 1\n255\n")
        with pytest.raises(ImageFormatError, match="non-numeric"):
            read_ppm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"")
        with pytest.raises(ImageFormatError):
            read_ppm(path)


class TestPgm:
    def test_min_max_normalization(self, tmp_path):
        path = tmp_path / "ramp.pgm"
        write_pgm(Tensor(np.array([[0.0, 0.5, 1.0]])), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n3 1\n255\n")
        assert list(blob[-3:]) == [0, 128, 255]

    def test_normalization_is_offset_and_scale_invariant(self, tmp_path):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(5, 7))
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(Tensor(base), a)
        write_pgm(Tensor(base * 3.5 - 11.0), b)
        assert a.read_bytes() == b.read_bytes()

    def test_constant_plane_writes_zeros(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(Tensor(np.full((2, 2), 4.25)), path)
        assert path.read_bytes().endswith(b"\x00" * 4)

    def test_monotone_gradient_survives_roundtrip(self, tmp_path):
        # PGM bytes are written row-major, so a row ramp must come back
        # non-decreasing when read as bytes.
        path = tmp_path / "grad.pgm"
        write_pgm(Tensor(np.linspace(0.0, 1.0, 16).reshape(1, 16)), path)
        raster = path.read_bytes().split(b"255\n", 1)[1]
        values = list(raster)
        assert values == sorted(values)
        assert values[0] == 0 and values[-1] == 255

    def test_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(Tensor(np.zeros((2, 2, 2))), tmp_path / "bad.pgm")
