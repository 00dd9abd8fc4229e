"""Deterministic run records and tabular output.

Every number written to a CSV or plot-data file goes through one fixed
format (%.17g, enough digits for an exact float64 round trip), and JSON is
canonicalized with sorted keys, so a rerun with the same config and seed
reproduces the artifacts byte for byte.  Wall-clock data lives only in the
run record, which is exempt from that contract.
"""

import datetime
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

TOOL_VERSION = "0.1.0"
RECORD_FORMAT_VERSION = 1


def fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_plot_data(path, pairs):
    """Two-column plain text."""
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{fmt(float(a))} {fmt(float(b))}\n")


def _finite(obj):
    """obj with every non-finite float replaced by None: JSON (RFC 8259) has
    no NaN or infinity, so an undefined number is written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def canonical_json(obj):
    return json.dumps(_finite(obj), sort_keys=True, separators=(",", ": "), indent=1,
                      allow_nan=False)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj) + "\n")


def content_hash(config, seed, version=TOOL_VERSION):
    payload = canonical_json({"config": config, "seed": int(seed), "version": version})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRecord:
    command: str
    config: dict
    master_seed: int
    input_hash: str
    started: str = ""
    finished: str = ""
    tool_version: str = TOOL_VERSION
    outputs: dict = field(default_factory=dict)

    def start(self):
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def finish(self):
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def to_dict(self):
        return {"format_version": RECORD_FORMAT_VERSION, **asdict(self)}


def output_directory(base, command, config, seed):
    """Directory keyed by the content hash, so differing runs cannot collide."""
    h = content_hash(config, seed)
    path = os.path.join(base, f"{command}-{h}")
    os.makedirs(path, exist_ok=True)
    return path
