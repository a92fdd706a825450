"""Contract file formats: the model file and the CSV tables.

Model file: 8-byte magic, text header, little-endian f64 parameters.
    b"CSMODEL1"
    ascii header, one "key value" pair per line, terminated by a blank line:
        version 1
        widths 2,64,64,2
        activation relu
        seed 7
        method coded mu=0.5 gamma=1.5
    raw parameter block: per layer, weight matrix (row-major) then bias,
    as little-endian float64; this is ``MLP.theta``'s layout
    (``MLPSpec.layout``), so the block is written and read as that one vector.

CSV tables (metrics.csv, sim_sweep.csv, sweep.csv, results.csv): a header
line, then one comma-separated line per row, written by ``csv_table``.
Only ``load_model`` loads ``models``, so a command that writes tables and
no model file (``simulate``) does not.
"""

import numpy as np

from .errors import ValidationError

MAGIC = b"CSMODEL1"
VERSION = 1


def csv_table(header: str, rows) -> str:
    """The header line, then one line per row; floats print with 17
    significant digits, which read back to the same bits, and every other
    field prints with ``str``."""
    lines = [header] + [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def model_bytes(model, seed: int, method_desc: str) -> bytes:
    """The model file's contents for an ``MLP``."""
    spec = model.spec
    header = (
        f"version {VERSION}\n"
        f"widths {','.join(str(w) for w in spec.widths)}\n"
        f"activation {spec.activation}\n"
        f"seed {seed}\n"
        f"method {method_desc}\n"
        "\n"
    )
    return MAGIC + header.encode("ascii") + model.theta.astype("<f8").tobytes()


def load_model(path) -> tuple:
    """Read a model file; returns (model, header dict). A file that cannot be
    read or is not a well-formed model file raises ValidationError naming it;
    the block's length is checked before a model is allocated."""
    from .models import MLP, MLPSpec
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ValidationError(f"{path}: cannot read model file: {err.strerror}") from None
    try:
        if blob[:8] != MAGIC:
            raise ValueError("bad magic, not a model file")
        end = blob.find(b"\n\n", 8)
        if end < 0:
            raise ValueError("unterminated header")
        header = {}
        for line in blob[8:end].decode("ascii").splitlines():
            key, _, value = line.partition(" ")
            header[key] = value
        if header.get("version") != str(VERSION):
            raise ValueError(f"unsupported version {header.get('version')!r}")
        widths = tuple(int(w) for w in header["widths"].split(","))
        spec = MLPSpec(widths=widths, activation=header["activation"])
        n_block, n_bytes = len(blob) - end - 2, 8 * spec.n_parameters
        if n_block != n_bytes:
            raise ValueError(f"parameter block has {n_block} bytes, expected {n_bytes}")
        model = MLP(spec)
        model.theta[...] = np.frombuffer(blob, "<f8", offset=end + 2)
        if not np.isfinite(model.theta).all():
            raise ValueError("parameter block holds NaN or Inf values")
    except KeyError as err:
        raise ValidationError(f"{path}: model file header has no {err.args[0]} line") from None
    except ValueError as err:  # UnicodeDecodeError and ValidationError too
        raise ValidationError(f"{path}: {err}") from None
    return model, header
