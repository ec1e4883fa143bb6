import numpy as np
import pytest

from kdalign import evaluate
from kdalign.config import load_config
from kdalign.errors import DataError
from kdalign.evaluate import (
    SPLIT_TAGS,
    Dataset,
    MetricReport,
    auprc,
    load_csv,
    rec_at_k_detail,
    save_csv,
    split_dataset,
)
from kdalign.experiment import noise_study, run_experiment
from kdalign.rules import parse_rule
from kdalign.synthetic import make_synthetic
from oracles import auprc_group_loop, average_precision, rec_at_k, recall_at_k


class TestCsv:
    def test_roundtrip(self, tmp_path):
        data, _ = make_synthetic(seed=1, n_normal=40, n_direct=5, n_rule=5)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        again = load_csv(path)
        np.testing.assert_array_equal(again.X, data.X)
        np.testing.assert_array_equal(again.y, data.y)
        assert again.feature_names == data.feature_names

    def test_split_column_roundtrip(self, tmp_path):
        data = Dataset(
            np.arange(12, dtype=float).reshape(6, 2),
            np.array([0, 0, 0, 1, 1, 1]),
            ["a", "b"],
            split=np.array(["train", "train", "val", "train", "val", "test"]),
        )
        path = tmp_path / "data.csv"
        save_csv(data, path)
        again = load_csv(path)
        np.testing.assert_array_equal(again.split, data.split)

    def test_no_feature_columns_gives_one_empty_row_per_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label,split\n0,train\n1,test\n0,val\n")
        data = load_csv(path)
        assert data.X.shape == (3, 0) and data.feature_names == []
        np.testing.assert_array_equal(data.y, [0, 1, 0])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path)

    def test_malformed_cell_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataError, match="row 3, column 'b'"):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1,2\n")
        with pytest.raises(DataError, match="expected 0 or 1"):
            load_csv(path)

    def test_bad_split_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label,split\n1,0,dev\n")
        with pytest.raises(DataError, match="unknown tag"):
            load_csv(path)


# Each row: CSV text, then (feature names, X, y, split) or the DataError
# text after "<path>: ".  The block reader parses blocks of plain lines with
# np.loadtxt and sends the first block that fails a test, and the rest of
# the file, to the csv.reader row loop; both must read a file as the row loop
# alone does.
SECOND_BLOCK = "a,label\n" + "0.5,1\n" * 60_000  # 360 KB: line 60,002 is past the first block
BLOCK_READER_CASES = {
    "crlf": ("a,b,label\r\n1,2,0\r\n3,4,1\r\n", (["a", "b"], [[1, 2], [3, 4]], [0, 1], None)),
    "quoted-header-and-cell": (
        '"a,b",c,label,split\n"1.5",2,1,test\n3,4,0,val\n',
        (["a,b", "c"], [[1.5, 2], [3, 4]], [1, 0], ["test", "val"]),
    ),
    "blank-line": ("a,label\n1,0\n\n2,1\n", "row 3: expected 2 cells, got 0"),
    "float-grammar": ("a,b,label\n1_000,\u0661,1\n", (["a", "b"], [[1000, 1]], [1], None)),
    "label-space-1": ("a,label\n1,0\n1, 1\n", "row 3, column 'label': expected 0 or 1, got ' 1'"),
    "label-1.0": ("a,label\n1,1.0\n", "row 2, column 'label': expected 0 or 1, got '1.0'"),
    "nan": ("a,b,label\n1,2,0\n3,nan,0\n", "row 3, column 'b': non-finite value nan"),
    "1e500": ("a,label\n1e500,0\n", "row 2, column 'a': non-finite value inf"),
    "short-row": ("a,b,label\n1,2,0\n1,2\n", "row 3: expected 3 cells, got 2"),
    "long-row": ("a,b,label\n1,2,0,4\n", "row 2: expected 3 cells, got 4"),
    "hash": ("a,label\n#3,0\n", "row 2, column 'a': non-numeric cell '#3'"),
    "bare-cr-line-ends": ("a,label\r1,0\r2,1\r", (["a"], [[1], [2]], [0, 1], None)),
    "bare-cr-in-a-row": ("a,b,label\n1,\r2,0\n", "row 2: expected 3 cells, got 2"),
    "nul-in-a-label": ("a,label\n1,1\x00\n", "row 2, column 'label': expected 0 or 1, got '1\\x00'"),
    "bad-cell-in-second-block": (
        SECOND_BLOCK + "x,0\n", "row 60002, column 'a': non-numeric cell 'x'"
    ),
    "header-cell-past-field-limit": (
        '"' + "a" * 200_000 + '",label\n1,0\n', "row 1: field larger than field limit (131072)"
    ),
    "cell-past-field-limit-in-second-block": (
        SECOND_BLOCK + '"' + "1" * 200_000 + '",0\n',
        "row 60002: field larger than field limit (131072)",
    ),
    "repeated-feature-column": (
        "a,a,label\n1,2,0\n", "the header names column 'a' more than once"
    ),
}


@pytest.mark.parametrize("case", sorted(BLOCK_READER_CASES))
def test_block_reader_reads_as_the_row_loop(tmp_path, case):
    text, want = BLOCK_READER_CASES[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, str):
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {want}"
        return
    names, X, y, split = want
    data = load_csv(path)
    assert data.feature_names == names
    np.testing.assert_array_equal(data.X, np.array(X, dtype=np.float64).reshape(len(y), -1))
    np.testing.assert_array_equal(data.y, y)
    assert (data.split is None) if split is None else data.split.tolist() == split


def test_blocks_read_the_bytes_the_row_loop_reads(tmp_path, monkeypatch):
    # a save_csv round trip with a split column, in one block and in 2 KB blocks
    data, _ = make_synthetic(seed=4, n_normal=300, n_direct=20, n_rule=30, n_features=5)
    split = np.array(SPLIT_TAGS)[np.arange(data.n_samples) % 3]
    data = Dataset(data.X, data.y, data.feature_names, split=split)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    for chars in (evaluate._BLOCK_CHARS, 2048):
        monkeypatch.setattr(evaluate, "_BLOCK_CHARS", chars)
        again = load_csv(path)
        assert again.X.tobytes() == data.X.tobytes() and again.y.tobytes() == data.y.tobytes()
        assert again.split.tolist() == split.tolist() and again.split.dtype == split.dtype


def toy_dataset(n=1000, anomaly_rate=0.1, seed=0):
    rng = np.random.default_rng(seed)
    n_anom = int(n * anomaly_rate)
    X = np.vstack([rng.normal(0, 1, size=(n - n_anom, 2)), rng.normal(5, 1, size=(n_anom, 2))])
    y = np.r_[np.zeros(n - n_anom, dtype=int), np.ones(n_anom, dtype=int)]
    order = rng.permutation(n)
    return Dataset(X[order], y[order], ["a", "b"])


class TestSplit:
    def test_split_sizes(self):
        data = toy_dataset(1000)
        split = split_dataset(data, [], k_labeled=10, seed=0)
        n_train = split.train_idx.size
        n_val = split.val_idx.size
        n_test = split.test_idx.size
        assert n_train + n_val + n_test == 1000
        assert abs(n_train - 700) <= 2
        assert abs(n_val - 100) <= 2
        assert abs(n_test - 200) <= 2

    def test_disjoint_and_exhaustive(self):
        data = toy_dataset(500, seed=3)
        split = split_dataset(data, [], k_labeled=5, seed=1)
        combined = np.concatenate(
            [split.train_idx, split.val_idx, split.test_idx, split.deleted_idx]
        )
        assert np.sort(combined).tolist() == list(range(500))

    def test_stratification_keeps_val_positives(self):
        data = toy_dataset(400, anomaly_rate=0.05, seed=4)
        split = split_dataset(data, [], k_labeled=3, seed=2)
        assert data.y[split.val_idx].sum() >= 1
        assert data.y[split.test_idx].sum() >= 1

    def test_rule_deletion_and_relabeling(self):
        # rules match a known subset of training anomalies
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, size=(970, 2)), rng.normal(6, 0.5, size=(30, 2))])
        y = np.r_[np.zeros(970, dtype=int), np.ones(30, dtype=int)]
        data = Dataset(X, y, ["a", "b"])
        rules = [parse_rule("IF a > 6 AND b > 6 THEN anomaly IS true")]
        split = split_dataset(data, rules, k_labeled=10, seed=0)
        # every deleted sample is a rule-matched training anomaly
        assert (data.y[split.deleted_idx] == 1).all()
        from kdalign.rules import any_rule_mask

        matched = any_rule_mask(rules, data.X, data.name_to_index())
        assert matched[split.deleted_idx].all()
        # no rule-matched anomaly remains in train
        train_matched = matched[split.train_idx] & (data.y[split.train_idx] == 1)
        assert not train_matched.any()
        # exactly k labeled anomalies; the rest relabeled into the pool
        assert split.labeled_anomaly_idx.size == 10
        assert split.train_labels.sum() == 10
        remaining = (data.y[split.train_idx] == 1).sum()
        assert remaining >= 10

    def test_shortfall_error(self):
        data = toy_dataset(200, anomaly_rate=0.06, seed=5)
        rules = [parse_rule("IF a > -100 THEN anomaly IS true")]  # matches everything
        with pytest.raises(DataError, match="only 0 unmatched"):
            split_dataset(data, rules, k_labeled=10, seed=0)

    def test_counting_example(self):
        # 20 training anomalies, rules match 8 of them, k=10 labeled, 2 relabeled
        rng = np.random.default_rng(11)
        X_norm = rng.normal(0, 1, size=(180, 1))
        X_anom_matched = rng.uniform(10, 11, size=(8, 1))
        X_anom_free = rng.uniform(5, 6, size=(12, 1))
        X_held_out = np.array([[0.0], [5.5], [0.0], [10.5]])  # one anomaly each in val and test
        X = np.vstack([X_norm, X_anom_matched, X_anom_free, X_held_out])
        y = np.r_[np.zeros(180, dtype=int), np.ones(20, dtype=int), [0, 1, 0, 1]]
        split_tags = np.array(["train"] * 200 + ["val", "val", "test", "test"])
        data = Dataset(X, y, ["a"], split=split_tags)
        rules = [parse_rule("IF a > 9 THEN anomaly IS true")]
        split = split_dataset(data, rules, k_labeled=10, seed=3)
        assert split.deleted_idx.size == 8
        assert split.labeled_anomaly_idx.size == 10
        unlabeled_anoms = (data.y[split.train_idx] == 1).sum() - 10
        assert unlabeled_anoms == 2

    def test_deterministic_per_seed(self):
        data = toy_dataset(300, seed=6)
        a = split_dataset(data, [], k_labeled=5, seed=9)
        b = split_dataset(data, [], k_labeled=5, seed=9)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.labeled_anomaly_idx, b.labeled_anomaly_idx)
        c = split_dataset(data, [], k_labeled=5, seed=10)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_split_column_bypasses_random_split(self):
        data = toy_dataset(100, seed=8)
        tags = np.array(["train"] * 60 + ["val"] * 20 + ["test"] * 20)
        data = Dataset(data.X, data.y, data.feature_names, split=tags)
        split = split_dataset(data, [], k_labeled=1, seed=0)
        np.testing.assert_array_equal(split.val_idx, np.arange(60, 80))
        np.testing.assert_array_equal(split.test_idx, np.arange(80, 100))


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_hand_summed_example(self):
        value = auprc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0]))
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), rel=1e-12)

    def test_all_equal_scores_give_prevalence(self):
        labels = np.array([1, 0, 0, 1, 0, 0, 0, 0, 1, 0])
        value = auprc(np.full(10, 0.5), labels)
        assert value == pytest.approx(0.3, rel=1e-12)

    def test_no_positives_raises(self):
        with pytest.raises(ValueError):
            auprc(np.array([0.1, 0.2]), np.array([0, 0]))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        scores = np.round(rng.random(n), 2)  # rounded to force ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        assert auprc(scores, labels) == pytest.approx(
            average_precision(scores, labels), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_bytes_equal_the_group_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        scores = np.round(rng.random(n), int(rng.integers(0, 3)))  # many ties
        labels = (rng.random(n) < rng.uniform(0.02, 0.9)).astype(np.int64)
        labels[int(rng.integers(n))] = 1
        got, want = auprc(scores, labels), auprc_group_loop(scores, labels)
        assert type(got) is np.float64 and type(want) is np.float64
        assert got.tobytes() == want.tobytes()

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(123)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0] = 1
        base = auprc(scores, labels)
        assert auprc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auprc(scores**3 + 7, labels) == pytest.approx(base, abs=1e-12)


class TestRecAtK:
    def test_perfect_ranking(self):
        assert rec_at_k(np.array([0.9, 0.8, 0.1, 0.05]), np.array([1, 1, 0, 0])) == 1.0

    def test_inverted_ranking(self):
        assert rec_at_k(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0

    def test_equals_precision_at_k(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            k = int(labels.sum())
            value, k_used, _ = rec_at_k_detail(scores, labels)
            assert k_used == k
            order = np.argsort(-scores, kind="stable")
            precision_at_k = labels[order[:k]].sum() / k
            assert value == precision_at_k
            # F1 at this k: precision == recall -> F1 equals both
            if value > 0:
                f1 = 2 * value * precision_at_k / (value + precision_at_k)
                assert f1 == pytest.approx(value)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[-1] = 1
            assert rec_at_k(scores, labels) == pytest.approx(recall_at_k(scores, labels))

    def test_tie_at_cut_detected(self):
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        labels = np.array([1, 1, 0, 0])
        value, k, tie = rec_at_k_detail(scores, labels)
        assert k == 2 and tie is True
        assert value == 1.0  # stable order keeps index 1 before index 2


class TestMetricReport:
    def test_table_and_delimited(self):
        report = MetricReport()
        report.add(seed=0, auprc=0.5, rec_at_k=0.4)
        report.add(seed=1, auprc=0.7, rec_at_k=0.6)
        table = report.to_table()
        assert "auprc" in table and "0.500000" in table
        assert table.splitlines()[-1].split() == ["0.6000±0.1000", "0.5000±0.1000"]
        csv_text = report.to_delimited()
        assert csv_text.splitlines()[0] == "seed,auprc,rec_at_k"


class TestReportFiles:
    """``report.txt`` is the returned report's table and one last line that
    says what each ± spans; ``report.csv`` is its rows alone."""

    @pytest.mark.parametrize(
        "study, stem, seeds, spans",
        [
            (run_experiment, "report", "0,1", "mean±std over 2 split seeds (eval.seeds); "
             "one knowledge encoder (know_encoder.seed 3)"),
            (noise_study, "noise_report", "0", "mean±std over 1 split seed (eval.seeds) per "
             "noise ratio; one knowledge encoder per noise ratio (know_encoder.seed 3)"),
        ],
        ids=["experiment", "noise-study"],
    )
    def test_text_ends_with_what_the_spread_spans(self, tmp_path, study, stem, seeds, spans):
        data, _ = make_synthetic(seed=1, n_normal=200, n_direct=20, n_rule=20)
        overrides = {"rules.max_depth": "2", "rules.min_leaf": "5", "rules.feature_indices": "2",
                     "eval.k_labeled": "5", "know_encoder.steps": "5", "know_encoder.seed": "3",
                     "train.epochs": "1", "eval.seeds": seeds, "eval.noise_ratios": "0,0.2"}
        report = study(load_config(None, list(overrides.items())), out_dir=str(tmp_path), data=data)
        text = (tmp_path / f"{stem}.txt").read_text()
        assert text == report.to_table() + spans + "\n"
        assert (tmp_path / f"{stem}.csv").read_text() == report.to_delimited()
