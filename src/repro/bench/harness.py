"""Result recording for the benchmark harness.

Each benchmark writes its rendered table both to stdout and to
``results/<name>.txt`` under the repository root: the artifact to read a
benchmark's result from and to diff between reruns (``results/`` is not
under version control; rerun the benchmark to regenerate it).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def results_dir() -> Path:
    """``results/`` next to the package's repository root (cwd-based when
    the package is installed elsewhere)."""
    root = Path(os.environ.get("SEABED_RESULTS_DIR", Path.cwd() / "results"))
    root.mkdir(parents=True, exist_ok=True)
    return root


class ResultSink:
    """Prints a rendered experiment table and persists it."""

    def __init__(self, name: str):
        self.name = name
        self._chunks: list[str] = []

    def emit(self, text: str) -> None:
        self._chunks.append(text)
        print(f"\n{text}")

    def close(self) -> Path:
        path = results_dir() / f"{self.name}.txt"
        path.write_text("\n\n".join(self._chunks) + "\n")
        return path

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def cdf_points(values, quantiles=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0)) -> list[tuple[float, float]]:
    """(quantile, value) pairs for a response-time CDF (Figure 10a)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return []
    return [(q, float(np.quantile(arr, q))) for q in quantiles]
