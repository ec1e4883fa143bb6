"""The generator's output bytes, and the memory that ``make_synthetic`` and
``load_csv`` hold while they build their arrays.  The generator's argument
checks are exit-code rows in ``test_cli.py``."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from kdalign.evaluate import Dataset, load_csv, save_csv
from kdalign.synthetic import make_synthetic

W2_SHAPE = {"seed": 1, "n_normal": 20_000, "n_direct": 600, "n_rule": 1_000, "n_features": 16}
SCORING_SHAPE = {"n_normal": 96_000, "n_direct": 1_600, "n_rule": 2_400, "n_features": 16}

# SHA-256 of the X, y and tag bytes, taken from the generator that drew each
# cluster with rng.normal, stacked the blocks and shuffled with X[order].
DIGESTS = {
    "w1-defaults": (
        {"seed": 42},
        "9d910b05ed63125387c1e3161f08e2a490278529379f8f745a91717f3ffe49de",
        "e90ac1293356bfcf1f56e8f01eb19da8376fc13fd1fd19f76249d4828c4c677d",
        "73020022ce893a6c5455ce733ccb64fad233dbe3c51e00a054478b783ca04faf",
    ),
    "w2-shape": (
        W2_SHAPE,
        "fc515cb28ca9c8da7c03c607b9c075cf264defbd74ed2282d67efb33c1fca2ba",
        "8f96a7d9c6ddd3966c6f79ba347f9fc6cc8ffd8a8f074f170f725b28753518c8",
        "4e24ba346a23864f9989b78edaf53cb37cbc2d5eb9fb317cf9dc1a39510243cf",
    ),
    "scoring-shape": (
        {"seed": 3, **SCORING_SHAPE},
        "4fbe2df2d21f3f2edb65b9a6470689bbda24c7581f9ebd016ac99022523378ab",
        "1d9a5c118722bd2d60b087a22d4ef68b326e53b945bf8cb3c602f6401047e485",
        "a754c1e5cb08e91d666ae9448fc145962e9a8d82324761895889c04296692964",
    ),
    "no-direct-cluster": (
        {"seed": 5, "n_normal": 300, "n_direct": 0, "n_rule": 40, "n_features": 6, "noise": 0.8},
        "d847d9a2099bf3a9a81ab840d3e87b57931c47534cc46596c8e65529eb37c4cb",
        "eee2fd5ece8db15106d86d9aed9ab9e47b71101581abcf88111d16c1f5588a83",
        "b7f64eac369825ae958f884e12cca764c5729f8195d4e9a0cc59fe752f35aa9d",
    ),
    "no-normal-clusters": (  # the tags are '<U6': no 8-character name is drawn
        {"seed": 6, "n_normal": 0, "n_direct": 3, "n_rule": 2},
        "342160a2c21fd43687b8014ad4b71758ee9dad7a470d7438ccfe836ef5bf9820",
        "00026c99bfe39e6f7afdfa71a85dfec6909cc9210d43d230b66bc82713bc2857",
        "9cbd90defeb586edc268fa7ebfb83ca313d0cd41a41ba10a759e3cd928ce810f",
    ),
}
W2_CSV_DIGEST = "27c28d37d3405ce9db66b69e106673d6488a8003e57a00774639b57cc13307e9"
# The 5,000-row CSV of test_save_csv_streams_its_rows, split column included,
# as the writer that built the whole text before writing it wrote it.
SPLIT_CSV_DIGEST = "f47ea3e1a551188f4cd9d9dcd4c1eddbd4b56ea83fb4e3a2ed6d95de0771ea04"


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_generator_bytes_are_pinned(case):
    kwargs, x_digest, y_digest, tag_digest = DIGESTS[case]
    data, tags = make_synthetic(**kwargs)
    assert data.X.flags.c_contiguous and data.X.dtype == np.float64 and data.y.dtype == np.int64
    assert (sha256(data.X), sha256(data.y), sha256(tags)) == (x_digest, y_digest, tag_digest)


def test_w2_csv_round_trip_is_pinned(tmp_path):
    data, _ = make_synthetic(**W2_SHAPE)
    path = tmp_path / "w2.csv"
    save_csv(data, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == W2_CSV_DIGEST
    again = load_csv(path)
    _, x_digest, y_digest, _ = DIGESTS["w2-shape"]
    assert (sha256(again.X), sha256(again.y)) == (x_digest, y_digest)
    assert again.X.shape == (21_600, 16) and again.feature_names == data.feature_names
    assert again.split is None


def test_tags_and_labels_follow_the_clusters():
    data, tags = make_synthetic(seed=0, n_normal=7, n_direct=2, n_rule=3)
    want = ["direct"] * 2 + ["normal_a"] * 3 + ["normal_b"] * 4 + ["rule"] * 3
    assert sorted(tags.tolist()) == want
    np.testing.assert_array_equal(data.y, np.isin(tags, ["direct", "rule"]))


def traced_peak(call):
    """(result, peak traced bytes above the bytes held before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_builders_hold_little_more_than_their_output(tmp_path):
    (data, tags), peak = traced_peak(lambda: make_synthetic(seed=0, **SCORING_SHAPE))
    assert peak <= 1.5 * (data.X.nbytes + data.y.nbytes + tags.nbytes)

    # the W2-sized file takes many blocks of lines, and the bound holds for
    # it too, so the memory held per block does not grow with the file
    small = {"seed": 2, "n_normal": 4_700, "n_direct": 120, "n_rule": 180, "n_features": 16}
    for shape, rows in ((small, 5_000), (W2_SHAPE, 21_600)):
        path = tmp_path / f"{rows}.csv"
        save_csv(make_synthetic(**shape)[0], path)
        loaded, peak = traced_peak(lambda: load_csv(path))
        assert loaded.X.shape == (rows, 16)
        assert peak <= 3 * (loaded.X.nbytes + loaded.y.nbytes)


def test_save_csv_streams_its_rows(tmp_path):
    # each row goes to the file as it is formatted, so the writer holds a
    # small part of the 1.6 MB text, not the text itself
    data, _ = make_synthetic(seed=2, n_normal=4_700, n_direct=120, n_rule=180, n_features=16)
    split = np.array(["train", "val", "test"])[np.arange(data.n_samples) % 3]
    data = Dataset(data.X, data.y, data.feature_names, split=split)
    path = tmp_path / "5k.csv"
    _, peak = traced_peak(lambda: save_csv(data, path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SPLIT_CSV_DIGEST
    assert peak <= 0.5 * (data.X.nbytes + data.y.nbytes)
