"""Any bytes given to the binary readers, `checkpoint.load_tensors` (.idck)
and `toyroad.read_clip` (.toyr), end in a value or a typed `LongroadError`,
never in another exception: arbitrary byte strings, and valid files with
bytes overwritten, 32-bit fields replaced, bytes inserted or the tail cut."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from longroad import checkpoint as CK
from longroad import toyroad as R
from longroad.cli import main
from longroad.errors import FormatError, LongroadError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def valid_checkpoint() -> bytes:
    return _bytes_of(lambda path: CK.save_tensors(path, {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "scalar": np.array(2.5),
        "b": np.ones((1, 2, 1), dtype=np.float64),
    }))


def valid_clip() -> bytes:
    frames = np.random.default_rng(0).integers(0, 256, (3, 3, 4, 6), dtype=np.uint8)
    record = R.ClipRecord(frames=frames, fps=10, caption="road straight",
                          commands=np.array([0, 1, 2], dtype=np.uint8))
    return _bytes_of(lambda path: R.write_clip(record, path))


def _bytes_of(write) -> bytes:
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        write(path)
        return path.read_bytes()


@st.composite
def mutated(draw, blob: bytes):
    """`blob` with a few edits, biased toward the header, where the sizes are."""
    data = bytearray(blob)
    pos = st.one_of(st.integers(0, 40), st.integers(0, len(blob) - 1))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["byte", "u32", "insert", "cut"]))
        at = min(draw(pos), len(data))
        if kind == "byte":
            data[at:at + 1] = bytes([draw(st.integers(0, 255))])
        elif kind == "u32":
            value = draw(st.one_of(st.sampled_from([0, 1, 64, 65, 2**31, 2**32 - 1]),
                                   st.integers(0, 2**32 - 1)))
            data[at:at + 4] = struct.pack("<I", value)
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[at:]
    return bytes(data)


def ends_in_value_or_typed_error(read, path, blob):
    path.write_bytes(blob)
    try:
        read(path)
    except FormatError as e:  # names its file and an offset within it
        assert str(path) in str(e) and 0 <= e.offset <= len(blob), str(e)
    except LongroadError:
        pass


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(blob=st.binary(max_size=96))
def test_load_tensors_arbitrary_bytes(input_path, blob):
    ends_in_value_or_typed_error(CK.load_tensors, input_path, CK.MAGIC + blob)


@FUZZ
@given(blob=mutated(valid_checkpoint()))
def test_load_tensors_mutated_file(input_path, blob):
    ends_in_value_or_typed_error(CK.load_tensors, input_path, blob)


@FUZZ
@given(blob=st.binary(max_size=96))
def test_read_clip_arbitrary_bytes(input_path, blob):
    ends_in_value_or_typed_error(R.read_clip, input_path, R.MAGIC + blob)


@FUZZ
@given(blob=mutated(valid_clip()))
def test_read_clip_mutated_file(input_path, blob):
    ends_in_value_or_typed_error(R.read_clip, input_path, blob)


def test_valid_files_read_back():
    # the seeds of the mutations are themselves valid
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        path.write_bytes(valid_checkpoint())
        assert CK.load_tensors(path)["w"].shape == (2, 3)
        path.write_bytes(valid_clip())
        assert R.read_clip(path).frames.shape == (3, 3, 4, 6)


def crafted_header(rank: int, dims: tuple[int, ...]) -> bytes:
    """One float32 tensor "a" of the given dims and no payload."""
    return (CK.MAGIC + struct.pack("<HI", CK.VERSION, 1) + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", rank) + struct.pack(f"<{len(dims)}I", *dims)
            + struct.pack("<B", 0))


class TestCraftedDims:
    def test_product_past_int64_is_truncation(self, tmp_path):
        # (2**32 - 1)**2 * 4 bytes wrapped around in an int64 product, and
        # numpy then failed to reshape an empty payload
        path = tmp_path / "m.idck"
        path.write_bytes(crafted_header(2, (2**32 - 1, 2**32 - 1)))
        with pytest.raises(FormatError, match="truncated"):
            CK.load_tensors(path)

    def test_zero_dim_beside_huge_dims(self, tmp_path):
        # no payload to truncate, but numpy cannot make the shape
        path = tmp_path / "m.idck"
        path.write_bytes(crafted_header(3, (0, 2**32 - 1, 2**32 - 1)))
        with pytest.raises(FormatError, match="exceed"):
            CK.load_tensors(path)
        path.write_bytes(crafted_header(2, (0, 2**32 - 1)))
        assert CK.load_tensors(path)["a"].shape == (0, 2**32 - 1)

    def test_rank_past_numpy_limit(self, tmp_path):
        path = tmp_path / "m.idck"
        path.write_bytes(crafted_header(65, (1,) * 65) + b"\0" * 4)
        with pytest.raises(FormatError, match="rank 65"):
            CK.load_tensors(path)
        path.write_bytes(crafted_header(64, (1,) * 64) + b"\0" * 4)
        assert CK.load_tensors(path)["a"].shape == (1,) * 64

    def test_rollout_exits_two(self, tmp_path, capsys):
        path = tmp_path / "m.idck"
        path.write_bytes(crafted_header(2, (2**32 - 1, 2**32 - 1)))
        rc = main(["rollout", "--ckpt", str(path), "--cond", "none", "--iters", "1",
                   "--out", str(tmp_path / "x.toyr")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err
