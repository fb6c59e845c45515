"""Datasets: toy 2-D generators and numeric CSV ingestion.

A `Dataset` holds a shuffled row matrix plus split fractions; the
train/val/test views are computed slices. CSV ingestion standardizes every
column with statistics of the training split (population std, ddof=0);
columns that are constant on the training split cannot be standardized and
are dropped with a recorded diagnostic.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "toy2d", "load_csv", "TOY_NAMES"]

TOY_NAMES = ("two_moons", "rings", "checkerboard", "two_gaussians")

# Two well-separated modes (5.7 sigma apart) that a small flow can still
# carve out at desk scale.
TWO_GAUSSIANS_CENTERS = np.array([[2.0, 0.0], [-2.0, 0.0]])
TWO_GAUSSIANS_STD = 0.7


@dataclass
class Dataset:
    name: str
    rows: np.ndarray
    split_fractions: tuple = (0.7, 0.15, 0.15)
    mean: np.ndarray = None
    std: np.ndarray = None
    dropped_columns: tuple = ()

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")
        if not np.all(np.isfinite(self.rows)):
            bad = np.argwhere(~np.isfinite(self.rows))[:, 0].tolist()
            raise ValueError(f"non-finite values in rows {sorted(set(bad))}")
        f = self.split_fractions
        if len(f) != 3 or any(x < 0 for x in f) or sum(f) > 1.0 + 1e-9:
            raise ValueError("split fractions must be 3 nonnegative values summing to <= 1")
        if self.mean is None:
            self.mean = np.zeros(self.rows.shape[1])
        if self.std is None:
            self.std = np.ones(self.rows.shape[1])

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def dim(self):
        return self.rows.shape[1]

    def _bounds(self):
        n_train = int(self.n * self.split_fractions[0])
        n_val = int(self.n * self.split_fractions[1])
        return n_train, n_train + n_val

    @property
    def train(self):
        return self.rows[: self._bounds()[0]]

    @property
    def val(self):
        a, b = self._bounds()
        return self.rows[a:b]

    @property
    def test(self):
        return self.rows[self._bounds()[1]:]


def _sample_two_gaussians(rng, n):
    """Equal mixture of N(center, 0.7^2 I) at centers (+-2, 0)."""
    comp = rng.integers(0, 2, size=n)
    return TWO_GAUSSIANS_CENTERS[comp] + TWO_GAUSSIANS_STD * rng.standard_normal((n, 2))


def _sample_two_moons(rng, n):
    """Two interleaved half-circles of radius 1, offset by (1, 0.5),
    with isotropic Gaussian noise (sigma = 0.08), scaled by 2."""
    theta = rng.uniform(0.0, np.pi, size=n)
    lower = rng.integers(0, 2, size=n).astype(bool)
    x = np.where(lower, 1.0 - np.cos(theta), np.cos(theta))
    y = np.where(lower, 0.25 - np.sin(theta), np.sin(theta) - 0.25)
    pts = np.stack([x, y], axis=1) + 0.08 * rng.standard_normal((n, 2))
    return 2.0 * pts


def _sample_rings(rng, n):
    """Two concentric circles of radius 1 and 2 with radial noise 0.08."""
    radius = np.where(rng.integers(0, 2, size=n) == 0, 1.0, 2.0)
    radius = radius + 0.08 * rng.standard_normal(n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def _sample_checkerboard(rng, n):
    """Uniform over the black cells of a 4x4 checkerboard on [-2, 2]^2."""
    i = rng.integers(0, 4, size=n)
    j_half = rng.integers(0, 2, size=n)
    j = 2 * j_half + (i % 2)  # (i + j) even
    return np.stack([
        i - 2.0 + rng.uniform(0.0, 1.0, size=n),
        j - 2.0 + rng.uniform(0.0, 1.0, size=n),
    ], axis=1)


_GENERATORS = {
    "two_gaussians": _sample_two_gaussians,
    "two_moons": _sample_two_moons,
    "rings": _sample_rings,
    "checkerboard": _sample_checkerboard,
}


def toy2d(name: str, n: int, seed: int = 0,
          split_fractions=(0.7, 0.15, 0.15)) -> Dataset:
    """Seeded sampler for the named toy density. Rows are not standardized;
    the generators already produce O(1) coordinates."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown toy dataset {name!r}; choose from {TOY_NAMES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    rows = _GENERATORS[name](rng, n)
    return Dataset(name=name, rows=rows, split_fractions=tuple(split_fractions))


def _parse_csv(path):
    """Numeric rows from a CSV file. The first non-blank record may be a
    non-numeric header; anything else non-numeric is an error naming its file
    line (a record's last, if a quoted field spans lines)."""
    rows, width, header_ok = [], None, True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            lineno, candidate, header_ok = reader.line_num, header_ok, False
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if candidate:
                    continue  # header row
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {record!r} as numbers"
                ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no numeric rows found")
    return np.asarray(rows, dtype=float)


def load_csv(path, split_fractions=(0.7, 0.15, 0.15), seed: int = 0) -> Dataset:
    """Load, shuffle (seeded), split, and standardize a numeric CSV.

    Standardization uses mean/std of the training split only. Constant
    training columns are dropped, each with a warning, and listed in
    `Dataset.dropped_columns`.
    """
    rows = _parse_csv(path)
    if not np.all(np.isfinite(rows)):
        bad = sorted(set(np.argwhere(~np.isfinite(rows))[:, 0].tolist()))
        raise ValueError(f"{path}: non-finite values in data rows {bad}")
    rng = np.random.default_rng(seed)
    rows = rows[rng.permutation(rows.shape[0])]

    n_train = int(rows.shape[0] * split_fractions[0])
    train = rows[:n_train] if n_train > 0 else rows
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # ddof=0

    constant = std == 0.0
    dropped = tuple(np.argwhere(constant).ravel().tolist())
    if dropped:
        warnings.warn(
            f"{path}: dropping constant column(s) {list(dropped)}"
            " (zero training std, cannot standardize)",
            stacklevel=2,
        )
        rows = rows[:, ~constant]
        mean = mean[~constant]
        std = std[~constant]
    if rows.shape[1] == 0:
        raise ValueError(f"{path}: all columns constant, nothing to model")

    rows = (rows - mean) / std
    return Dataset(
        name=os.path.basename(str(path)),
        rows=rows,
        split_fractions=tuple(split_fractions),
        mean=mean,
        std=std,
        dropped_columns=dropped,
    )
