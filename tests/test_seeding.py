import pytest

from codedsmooth.errors import ValidationError
from codedsmooth.seeding import stream_rng


def test_seed_is_one_64_bit_word():
    # masking used to alias -3 with 2**64 - 3 and run 2**64 as seed 0
    top = stream_rng(2 ** 64 - 1, "x").integers(0, 2 ** 32, 4)
    assert stream_rng(2 ** 64 - 1, "x").integers(0, 2 ** 32, 4).tolist() == top.tolist()
    for seed in (-3, -1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValidationError, match=str(seed)):
            stream_rng(seed, "x")
