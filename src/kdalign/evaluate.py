"""Experimental protocol: CSV ingestion, splits, and ranking metrics.

The split follows the 7:1:2 train/val/test protocol (stratified per class),
deletes rule-matched anomalies from the training split so rules carry unseen
anomaly scenarios, keeps k labeled anomalies, and treats the remaining
training anomalies as unlabeled normals.  AUPRC is average precision with
tie grouping; Rec@K uses k = number of true outliers, where it coincides
with precision@k and F1@k.
"""

from __future__ import annotations

import collections
import csv
import functools
import itertools
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .atomic import write_atomic
from .errors import DataError
from .rules import Rule, any_rule_mask

SPLIT_TAGS = ("train", "val", "test")


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    split: np.ndarray | None = None  # optional per-row tags from the CSV

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise DataError(
                f"feature matrix {self.X.shape} and labels {self.y.shape} do not line up"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise DataError("feature name count does not match feature columns")

    def name_to_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


def load_csv(path, labeled: bool = True) -> Dataset:
    """Read a dataset CSV: a header of distinct column names, numeric
    features, a 0/1 ``label`` column, and an optional ``split`` column of
    train/val/test tags.  With ``labeled`` false the ``label`` column may be
    absent and its cells are not read: ``y`` is 0 on every row.

    The body is read in blocks of whole lines, about ``_BLOCK_CHARS`` of text
    each, and numpy's C reader parses a block in two passes: the feature
    columns as float64, and the label and split columns as text.  A block is
    taken only if its text holds no ``"`` and no NUL, its comma count is
    (columns - 1) times its line count, both passes give one row per line
    (loadtxt skips blank lines), every label is exactly ``0`` or ``1`` and
    every tag is in ``SPLIT_TAGS``.  The
    first block that fails a test, and every line after it, go through the
    row loop: ``csv.reader`` with ``float()`` on each cell, which takes
    ``float()``'s wider grammar (``1_000``) and raises the ``DataError`` that
    names the bad row and column.  Both paths give the same values, and the
    first that fails, so the file loads to the same bytes either way.

    Rows append to one ``array('d')`` and one ``array('b')``; ``X`` is a
    ``(rows, features)`` view of that buffer, so the memory held beyond the
    output is about one block."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        except csv.Error as e:
            raise DataError(f"{path}: row 1: {e}") from None
        repeated = [name for name, n in collections.Counter(header).items() if n > 1]
        if repeated:
            raise DataError(f"{path}: the header names column {repeated[0]!r} more than once")
        if labeled and "label" not in header:
            raise DataError(f"{path}: missing required 'label' column")
        label_col = header.index("label") if "label" in header else None
        split_col = header.index("split") if "split" in header else None
        feature_cols = [
            i for i in range(len(header)) if i != label_col and i != split_col
        ]
        names = [header[i] for i in feature_cols]
        values, labels, splits = array("d"), array("b"), []
        # the two passes' columns cover every column, so loadtxt refuses a short row
        text_cols = [i for i in (label_col, split_col) if i is not None]
        read = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)

        def read_block(lines: list[str]) -> bool:
            """Append a block parsed by ``np.loadtxt`` and return True, or
            append nothing and return False when it fails a test above."""
            text = "".join(lines)
            if '"' in text or "\0" in text or text.count(",") != (len(header) - 1) * len(lines):
                return False
            try:
                with warnings.catch_warnings():  # loadtxt warns as it skips a blank line
                    warnings.simplefilter("ignore")
                    X = read(lines, dtype=np.float64, usecols=feature_cols)
                    tokens = read(lines, dtype=str, usecols=text_cols) if text_cols else X
            except ValueError:
                return False
            if X.shape[0] != len(lines) or tokens.shape[0] != len(lines):
                return False
            y = (tokens[:, 0] == "1").view(np.int8) if labeled else np.zeros(len(lines), np.int8)
            if labeled and np.count_nonzero(y) + np.count_nonzero(tokens[:, 0] == "0") != len(lines):
                return False
            if split_col is not None:
                if not np.isin(tokens[:, -1], SPLIT_TAGS).all():
                    return False
                splits.extend(tokens[:, -1].tolist())
            values.frombytes(X.tobytes())
            labels.frombytes(y.tobytes())
            return True

        lines = fh.readlines(_BLOCK_CHARS)
        while lines and read_block(lines):
            lines = fh.readlines(_BLOCK_CHARS)
        rows = csv.reader(itertools.chain(lines, fh))
        try:
            for lineno, record in enumerate(rows, start=len(labels) + 2):
                if len(record) != len(header):
                    raise DataError(
                        f"{path}: row {lineno}: expected {len(header)} cells, got {len(record)}"
                    )
                try:
                    values.fromlist([float(record[i]) for i in feature_cols])
                except ValueError:
                    for i in feature_cols:
                        try:
                            float(record[i])
                        except ValueError:
                            raise DataError(
                                f"{path}: row {lineno}, column {header[i]!r}: "
                                f"non-numeric cell {record[i]!r}"
                            ) from None
                    raise
                if labeled and record[label_col] not in ("0", "1"):
                    raise DataError(
                        f"{path}: row {lineno}, column 'label': expected 0 or 1, "
                        f"got {record[label_col]!r}"
                    )
                labels.append(labeled and record[label_col] == "1")
                if split_col is not None:
                    tag = record[split_col]
                    if tag not in SPLIT_TAGS:
                        raise DataError(
                            f"{path}: row {lineno}, column 'split': unknown tag {tag!r}"
                        )
                    splits.append(tag)
        except csv.Error as e:  # e.g. a cell past csv.field_size_limit()
            raise DataError(f"{path}: row {len(labels) + 2}: {e}") from None
    if not labels:
        raise DataError(f"{path}: no data rows")
    X = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(feature_cols))
    finite = np.isfinite(X)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: row {r + 2}, column {names[c]!r}: non-finite value {float(X[r, c])}"
        )
    split = np.array(splits) if split_col is not None else None
    return Dataset(X, np.array(labels), names, split)


_BLOCK_CHARS = 1 << 18  # the text of one block of lines, about 256 KB


class _Line:
    """A csv.writer target: ``writerow`` returns the row's text."""

    @staticmethod
    def write(text: str) -> str:
        return text


def save_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` as CSV, streamed to the file a row at a time."""
    write_atomic(path, _csv_lines(dataset))


def _csv_lines(dataset: Dataset):
    writer = csv.writer(_Line())
    header = list(dataset.feature_names) + ["label"]
    if dataset.split is not None:
        header.append("split")
    yield writer.writerow(header)
    for i in range(dataset.n_samples):
        row = [repr(float(v)) for v in dataset.X[i]] + [str(int(dataset.y[i]))]
        if dataset.split is not None:
            row.append(str(dataset.split[i]))
        yield writer.writerow(row)


@dataclass
class SplitDataset:
    """Dataset plus the weakly-supervised training view.

    ``train_idx`` excludes deleted rule-matched anomalies; ``train_labels``
    marks only the k retained labeled anomalies as positive, everything else
    in the training pool counts as normal (contamination included).
    """

    data: Dataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    deleted_idx: np.ndarray
    labeled_anomaly_idx: np.ndarray
    train_labels: np.ndarray
    seed: int

    def train_features(self) -> np.ndarray:
        return self.data.X[self.train_idx]


def _stratified_split(y: np.ndarray, seed: int):
    rng = np.random.default_rng(seed)
    parts = {tag: [] for tag in SPLIT_TAGS}
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        n = idx.size
        n_train = int(round(0.7 * n))
        n_val = min(int(round(0.1 * n)), n - n_train)
        parts["train"].append(idx[:n_train])
        parts["val"].append(idx[n_train : n_train + n_val])
        parts["test"].append(idx[n_train + n_val :])
    return {tag: np.sort(np.concatenate(chunks)) for tag, chunks in parts.items()}


def split_dataset(
    data: Dataset, rules: Sequence[Rule], k_labeled: int, seed: int
) -> SplitDataset:
    """Build the weakly-supervised split.

    A ``split`` column on the dataset bypasses the random 7:1:2 assignment;
    the rule-matched-anomaly deletion and k-anomaly labeling always apply to
    the training portion.  Raises when the val or the test split holds no
    anomaly, or when fewer than k unmatched training anomalies remain.
    """
    rng = np.random.default_rng((seed, 0x51))
    if data.split is not None:
        tags = {tag: np.flatnonzero(data.split == tag) for tag in SPLIT_TAGS}
    else:
        tags = _stratified_split(data.y, seed)
    for tag in ("val", "test"):
        if not data.y[tags[tag]].any():
            raise DataError(
                f"the {tag} split has no anomaly; its AUPRC and Rec@K need at least one"
            )
    train_idx = tags["train"]
    matched = np.zeros(data.n_samples, dtype=bool)
    if rules:
        matched = any_rule_mask(rules, data.X, data.name_to_index())
    is_anom = data.y == 1
    delete_mask = matched[train_idx] & is_anom[train_idx]
    deleted_idx = train_idx[delete_mask]
    train_idx = train_idx[~delete_mask]

    train_anoms = train_idx[is_anom[train_idx]]
    if train_anoms.size < k_labeled:
        raise DataError(
            f"need {k_labeled} labeled anomalies but only {train_anoms.size} "
            f"unmatched training anomalies remain after rule deletion"
        )
    labeled = np.sort(rng.choice(train_anoms, size=k_labeled, replace=False))
    train_labels = np.zeros(train_idx.size, dtype=np.int64)
    train_labels[np.isin(train_idx, labeled)] = 1
    return SplitDataset(
        data=data,
        train_idx=train_idx,
        val_idx=tags["val"],
        test_idx=tags["test"],
        deleted_idx=deleted_idx,
        labeled_anomaly_idx=labeled,
        train_labels=train_labels,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision over a descending-score sweep with grouped ties.

    Returns an ``np.float64``: the sum, in group order, of each tie group's
    recall gain times its precision (``np.cumsum`` adds in that order)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    total_pos = int(labels.sum())
    if total_pos == 0:
        raise ValueError("auprc undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    group_ends = np.append(np.flatnonzero(np.diff(s_sorted)), s_sorted.size - 1)
    tp = np.cumsum(labels[order])[group_ends]
    gains = np.diff(tp / total_pos, prepend=0.0)
    return np.cumsum(gains * (tp / (group_ends + 1)))[-1]


def rec_at_k_detail(scores: np.ndarray, labels: np.ndarray) -> tuple[float, int, bool]:
    """(recall@k, k, tie-at-cut flag) with k = number of positives.

    Ties at the cut resolve by stable input order; the flag records whether
    the cut fell inside a tie group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.sum())
    if k == 0:
        raise ValueError("rec@k undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    top = order[:k]
    tie_at_cut = bool(k < scores.size and scores[order[k - 1]] == scores[order[k]])
    return int(labels[top].sum()) / k, k, tie_at_cut


SUMMARY_METRICS = ("auprc", "rec_at_k", "val_auprc")
SUMMARY_GROUPS = ("model", "noise_ratio")


@dataclass
class MetricReport:
    """Result rows; the table ends with one mean±std line of the metric
    columns per model (and per model and noise ratio in a noise study)."""

    rows: list[dict] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_table(self) -> str:
        cols = self.columns()
        if not cols:
            return "(empty report)\n"
        keys = [c for c in SUMMARY_GROUPS if c in cols]
        groups: dict[tuple, list[dict]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(c) for c in keys), []).append(row)
        lines = [cols] + [[_fmt(row.get(c, "")) for c in cols] for row in self.rows]
        for group, rows in groups.items():
            cells = dict(zip(keys, map(_fmt, group)))
            for c in SUMMARY_METRICS:
                if c in cols:
                    values = [row[c] for row in rows]
                    cells[c] = f"{np.mean(values):.4f}±{np.std(values):.4f}"
            lines.append([cells.get(c, "") for c in cols])
        widths = [max(12, *(len(line[i]) for line in lines)) for i in range(len(cols))]
        return "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n" for line in lines
        )

    def to_delimited(self) -> str:
        cols = self.columns()
        out = [",".join(cols)]
        for row in self.rows:
            out.append(",".join(_fmt(row.get(c, "")) for c in cols))
        return "\n".join(out) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
