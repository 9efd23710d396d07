"""Aggregate metric report and its JSON serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class MetricReport:
    chamfer: float
    hausdorff: float
    chamfer_normals: float
    sif_count: int
    sif_percent: float
    dice: float | None
    volume_similarity: float | None
    sample_count: int
    seed: int
    pred_path: str | None = None
    gt_path: str | None = None

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")
