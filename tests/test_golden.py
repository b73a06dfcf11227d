"""Golden metrics: a tiny fixed CLI run must keep producing these values.

The run is synth -> ingest -> compare on the acceptance gate's c10 config,
which trains all three model kinds, then a backtest of each kind. The
backtests use short indicator periods and a wide ATR band, because with
the defaults the 38-bar test split makes no trade and every backtest
value reads 0. The constants were recorded from this run; any change to
them is a change in behaviour.
"""

import os

import pytest

from quantrange.cli import main
from test_acceptance import ACCEPTANCE_CONFIG

BACKTEST_INDICATORS = """
[indicators]
rsi_period = 3
atr_period = 3
atr_low = 0.0001
atr_high = 1.0
"""

GOLDEN = {
    "backtest-futurequant.txt": {
        "cumulative_return": 1.7245182999614528e-05,
        "volatility": 3.149484538239475e-06,
        "max_drawdown": 7.586910598404947e-06,
        "num_drawdowns_over_0.001": 0.0,
        "num_trades": 3.0,
        "final_equity": 1000017.245183,
    },
    "backtest-quantile-linear.txt": {
        "cumulative_return": 1.7245182999614528e-05,
        "volatility": 3.149484538239475e-06,
        "max_drawdown": 7.586910598404947e-06,
        "num_drawdowns_over_0.001": 0.0,
        "num_trades": 3.0,
        "final_equity": 1000017.245183,
    },
    "backtest-quantile-mlp.txt": {
        "cumulative_return": 4.30245500049331e-06,
        "volatility": 3.17566710519366e-06,
        "max_drawdown": 8.90492528067232e-06,
        "num_drawdowns_over_0.001": 0.0,
        "num_trades": 1.0,
        "final_equity": 1000004.302455,
    },
    "metrics-futurequant.txt": {
        "n": 33,
        "picp": 0.8787878787878788,
        "pinaw": 0.7872456042415097,
        "cwc": 0.02701796635371418,
        "cwc_variant": "as-printed",
        "crossing_rate": 0.696969696969697,
        "delta_y": 10.099760000000003,
        "pinball_0.05": 0.3390185818442429,
        "pinball_0.1": 0.507538527961575,
        "pinball_0.5": 1.5267360994349772,
        "pinball_0.9": 0.6727486036687633,
        "pinball_0.95": 0.21815729374612003,
    },
    "metrics-quantile-linear.txt": {
        "n": 33,
        "picp": 0.8787878787878788,
        "pinaw": 0.8479053732370699,
        "cwc": 0.019314700849359878,
        "cwc_variant": "as-printed",
        "crossing_rate": 0.5151515151515151,
        "delta_y": 10.099760000000003,
        "pinball_0.05": 0.2959063552047642,
        "pinball_0.1": 0.5036938113709559,
        "pinball_0.5": 1.0243778698585075,
        "pinball_0.9": 0.41631084342116753,
        "pinball_0.95": 0.29486473475175057,
    },
    "metrics-quantile-mlp.txt": {
        "n": 33,
        "picp": 0.6666666666666666,
        "pinaw": 1.200089011861317,
        "cwc": -14.746518895735077,
        "cwc_variant": "as-printed",
        "crossing_rate": 1.0,
        "delta_y": 10.099760000000003,
        "pinball_0.05": 0.2941965616318353,
        "pinball_0.1": 1.0539623663140303,
        "pinball_0.5": 1.3882779641607437,
        "pinball_0.9": 0.9571312902819221,
        "pinball_0.95": 0.6928337149410513,
    },
}


def read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


def test_golden_metrics(tmp_path):
    out = str(tmp_path / "out")
    config = tmp_path / "run.ini"
    config.write_text(ACCEPTANCE_CONFIG)
    for command in ("synth", "ingest", "compare"):
        assert main([command, "--config", str(config), "--out", out]) == 0
    for kind in ("futurequant", "quantile-linear", "quantile-mlp"):
        kind_config = tmp_path / f"run-{kind}.ini"
        kind_config.write_text(
            ACCEPTANCE_CONFIG.replace("[model]\n", f"[model]\nkind = {kind}\n")
            + BACKTEST_INDICATORS)
        assert main(["backtest", "--config", str(kind_config),
                     "--out", out]) == 0

    for name, expected in GOLDEN.items():
        got = read_kv(os.path.join(out, name))
        assert set(got) == set(expected), name
        for key, value in expected.items():
            if isinstance(value, str):
                assert got[key] == value, (name, key)
            else:
                assert float(got[key]) == pytest.approx(value, rel=1e-9), \
                    (name, key)
