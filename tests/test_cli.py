import pytest

from kdalign import cli


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = cli.main(
        ["synth-data", "--out", str(path), "--seed", "1", "--n-normal", "200",
         "--n-direct", "20", "--n-rule", "20"]
    )
    assert code == 0
    return path


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--train.batch_size", "0", "[train] batch_size"),
        ("--ot.epsilon_scale", "-1", "[ot] epsilon_scale"),
        ("--ot.epsilon_scale", "nan", "[ot] epsilon_scale"),
        ("--ot.max_iter", "0", "[ot] max_iter"),
        ("--ot.tol", "-1e-6", "[ot] tol"),
    ],
)
def test_bad_training_step_config_exits_1(small_csv, tmp_path, capsys, flag, value, key):
    capsys.readouterr()
    code = cli.main(
        ["experiment", "--data.path", str(small_csv), "--out", str(tmp_path / "out"),
         "--know_encoder.steps", "2", "--train.epochs", "1", "--eval.seeds", "0",
         f"{flag}={value}"]
    )
    err = capsys.readouterr().err
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), err
    assert key in lines[0]
