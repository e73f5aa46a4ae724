"""Reproducibility manifest.

Every file the CLI writes embeds a :class:`RunManifest` describing exactly
how to regenerate it: the command line, the seed, the quadrature settings,
and the expansion constants the run consumed (stored bit-exact via
``float.hex``). Manifests round-trip through JSON identically.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .quadrature import QuadratureSpec

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class ConstantRecord:
    """One constant as consumed by a run: exact bits plus error estimate."""

    value: float
    abs_error: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "value_hex": self.value.hex(),
            "abs_error": self.abs_error,
        }

    @staticmethod
    def from_dict(d: dict) -> "ConstantRecord":
        return ConstantRecord(
            value=float.fromhex(d["value_hex"]), abs_error=float(d["abs_error"])
        )


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI invocation byte for byte."""

    command_line: str
    seed: int | None
    quad: QuadratureSpec
    constants: dict[str, ConstantRecord] = field(default_factory=dict)
    wall_time_s: float = 0.0
    artifact_version: str = ARTIFACT_VERSION

    def to_dict(self) -> dict:
        return {
            "command_line": self.command_line,
            "seed": self.seed,
            "quad": dataclasses.asdict(self.quad),
            "constants": {k: v.to_dict() for k, v in sorted(self.constants.items())},
            "wall_time_s": self.wall_time_s,
            "artifact_version": self.artifact_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "RunManifest":
        quad = d["quad"]
        return RunManifest(
            command_line=d["command_line"],
            seed=d["seed"],
            quad=QuadratureSpec(
                scheme=quad["scheme"],
                nodes=quad["nodes"],
                abs_tol=quad["abs_tol"],
                rel_tol=quad["rel_tol"],
                split_points=tuple(quad["split_points"]),
            ),
            constants={
                k: ConstantRecord.from_dict(v) for k, v in d["constants"].items()
            },
            wall_time_s=d["wall_time_s"],
            artifact_version=d["artifact_version"],
        )

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        return RunManifest.from_dict(json.loads(text))
