"""Every artifact of a small CLI run, locked bit for bit.

The run is the acceptance gate's c10 config with the golden test's
trading indicators: synth and ingest, then train, eval and backtest of
each model kind, and one compare in a copy of the ingested directory.
The golden test checks metrics to 1e-9; this checks the sha256 of every
file written, SVGs included, so a change meant to keep behaviour proves
it byte for byte. Like the training hashes in test_training.py, the
digests were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; on
another numpy/BLAS build re-record them.
"""

import hashlib
import shutil

from quantrange.cli import main
from test_acceptance import ACCEPTANCE_CONFIG
from test_golden import BACKTEST_INDICATORS

KINDS = ("futurequant", "quantile-linear", "quantile-mlp")

DIGESTS = {
    "compare/compare.tsv":
        "9ae494ce441f282bce177e5b89d79e3861215e467dd1bac342c1bd3cf3a79da8",
    "compare/forecast-futurequant.bin":
        "8c6ca353e7a09d43dbe7149180a199f64f942e7dbd5ca75767bbafdecf81b574",
    "compare/forecast-futurequant.tsv":
        "4a4b92256d734ebf13f286536ff63d492af04a5581a326407b0364c02dfa6226",
    "compare/forecast-quantile-linear.bin":
        "f7dcf4b94ead2c34d374f3c549ccdce057b430ffd132d812dbff5f4026bb0ab9",
    "compare/forecast-quantile-linear.tsv":
        "0d17bc15f7cd6a281ac990b40a0a702bbfbeeb6edc6efb631198ea64dd683907",
    "compare/forecast-quantile-mlp.bin":
        "76c407caea6acde952923374b39b74e0e94d4f6a831f4f282a1ed78b3de565b6",
    "compare/forecast-quantile-mlp.tsv":
        "68637e5d48dd34d912355e24026fa88996a37a5b583c6d30966d61063f8e35be",
    "compare/loss-futurequant.tsv":
        "667d7e40c6376b4cdfff9e1e753c26e53ebe18e52e42a9132df6d43065588f8b",
    "compare/loss-quantile-linear.tsv":
        "ce91aa6c02237ec3f10494e805e622e393c0b51dc236cb4120d237c74e183c07",
    "compare/loss-quantile-mlp.tsv":
        "ecd9188beaf6840f0125fde47a77f6845a212c1268748253ac681fe9c71558af",
    "compare/metrics-futurequant.txt":
        "18f4bc2d31d338ce93da7524f381564f42ca0813a1f6d9fbd33bddbb88b92479",
    "compare/metrics-quantile-linear.txt":
        "cd9240f39ad5e3ab6176ae7c67c3b8eb15eda94131fd913d60cf5e13cdf6c6d6",
    "compare/metrics-quantile-mlp.txt":
        "904f4d00dcf9ffcd11bafbd7546e2cb7c73587630dbc9adfc65994035c3c53a7",
    "compare/model-futurequant.ckpt":
        "5b8d1642c6eb134ead267d55761e893a2be13959c98c23d9951b8434df12407e",
    "compare/model-quantile-linear.ckpt":
        "4ffa18192f0de3391167ea482ba6337b9afb7ccbf50118c19c9c48478c6cfbbe",
    "compare/model-quantile-mlp.ckpt":
        "777c184afe65b1bc61cc4ecb0aac5a9340e4ca8c836d5206d46506395c7a042c",
    "compare/test.wds":
        "e320151129e1dfb3587dd0c294a9e57e3a8c8711cd2ef68c91d8c692d462c83e",
    "compare/train.wds":
        "cfaa4f6f84eff880ccf445ab803ab961ea187678564d90076dfc682486db4506",
    "pipeline/backtest-futurequant.txt":
        "6d37f842c62f0fdb8bf03ad490b453ebd479994b8a6f2d08ead30fa9a3a3f496",
    "pipeline/backtest-quantile-linear.txt":
        "6d37f842c62f0fdb8bf03ad490b453ebd479994b8a6f2d08ead30fa9a3a3f496",
    "pipeline/backtest-quantile-mlp.txt":
        "d3ae3ab00b25b0d1a30e16d75b0b95f692720dd6a35fa251d59c9c26df8b71fa",
    "pipeline/bars.tsv":
        "6a3174a70d847b98577e086724614081f39babaebf06faaee6d67811ef3b6990",
    "pipeline/drawdown-futurequant.tsv":
        "a62cbaa7e83f6cc33ad9c97c62d4192dcd140c5b5d008668c3741df5a0fd71f6",
    "pipeline/drawdown-quantile-linear.tsv":
        "a62cbaa7e83f6cc33ad9c97c62d4192dcd140c5b5d008668c3741df5a0fd71f6",
    "pipeline/drawdown-quantile-mlp.tsv":
        "5202583d96a95e5e1eb6874006d75234936c7e473fd3460a4b27aa2951b72dc3",
    "pipeline/equity-futurequant.svg":
        "0cb6adb1c2eb743aca6d450f17c0e87fc414f01dc8b7771734e972283448e0a2",
    "pipeline/equity-futurequant.tsv":
        "14129cf7e89fcc30b9d3183079d114b1079ca99d1d29b60d274d5cf86410e9bf",
    "pipeline/equity-quantile-linear.svg":
        "ceadcd56e2d35c5d796c74f32ef105b4973cbbea9d62977f9eb7dfd27cab17ac",
    "pipeline/equity-quantile-linear.tsv":
        "14129cf7e89fcc30b9d3183079d114b1079ca99d1d29b60d274d5cf86410e9bf",
    "pipeline/equity-quantile-mlp.svg":
        "438aa1fdf55039dffc78219e37ab0d4aaf20622306b7af4738febdcf5f7d9b0b",
    "pipeline/equity-quantile-mlp.tsv":
        "3456bb59965373abfe3871713acd04f188f55570099506005bb0d9afdabbc6b6",
    "pipeline/forecast-futurequant.bin":
        "8c6ca353e7a09d43dbe7149180a199f64f942e7dbd5ca75767bbafdecf81b574",
    "pipeline/forecast-quantile-linear.bin":
        "ee8136d10c4d6fd07e46ab6a1faf4d61e8d50b22f44446026f2e99b24ae1ca23",
    "pipeline/forecast-quantile-mlp.bin":
        "4c0b3f3a247762d59b79e00f6dc4057d3e66a74600aedf3801052835108fb892",
    "pipeline/forecast-futurequant.tsv":
        "4a4b92256d734ebf13f286536ff63d492af04a5581a326407b0364c02dfa6226",
    "pipeline/forecast-quantile-linear.tsv":
        "343ebfe51fc1e98cb56953d0300318efcf7dec9fa85695048feec0f288177b26",
    "pipeline/forecast-quantile-mlp.tsv":
        "5f44f791a0a94e978977a5a6c45e6fe494fc136714f0dfde686b7aea39d1030c",
    "pipeline/loss-futurequant.tsv":
        "667d7e40c6376b4cdfff9e1e753c26e53ebe18e52e42a9132df6d43065588f8b",
    "pipeline/loss-quantile-linear.tsv":
        "101e28eb3e7d5bc29c8aae43b2da1c1ab88c1aa4544ce52e9e87dc63de5230f4",
    "pipeline/loss-quantile-mlp.tsv":
        "aefd01d3f98d4fe5fac90405427423a1567a83aea7b13d1f519ad53d44db08bc",
    "pipeline/metrics-futurequant.txt":
        "18f4bc2d31d338ce93da7524f381564f42ca0813a1f6d9fbd33bddbb88b92479",
    "pipeline/metrics-quantile-linear.txt":
        "17802ca642e14d0ff9e4dfe60f8f87301a22e7d1b7d24bdae8a06ccf050d14c2",
    "pipeline/metrics-quantile-mlp.txt":
        "5944fab067a6a9b0835b95c8454ec138a38d72e0d019109b32f75e7ca789a085",
    "pipeline/model-futurequant.ckpt":
        "5b8d1642c6eb134ead267d55761e893a2be13959c98c23d9951b8434df12407e",
    "pipeline/model-quantile-linear.ckpt":
        "f71c1edfc6331f915d719b9964072c9760211f37f0c77840230dc349c4631e5c",
    "pipeline/model-quantile-mlp.ckpt":
        "3aaced4094cfcf4e960279f9032593af414779253ef94b0f5264be55cd40de4f",
    "pipeline/test.wds":
        "e320151129e1dfb3587dd0c294a9e57e3a8c8711cd2ef68c91d8c692d462c83e",
    "pipeline/ticks.csv":
        "3966ce8f872a2802ff01a2e01bf97475ac9b05a91435da9909668cb5dd7e3573",
    "pipeline/train.wds":
        "cfaa4f6f84eff880ccf445ab803ab961ea187678564d90076dfc682486db4506",
    "pipeline/val.wds":
        "69bbbf9a1d45dad269d195e8d73c4dd2c3cd7d7c43edfbf60bcef53822428956",
}


def run(command, config, out):
    assert main([command, "--config", str(config), "--out", str(out)]) == 0, \
        command


def test_artifact_digests(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(ACCEPTANCE_CONFIG)
    pipeline, compare = tmp_path / "pipeline", tmp_path / "compare"
    for command in ("synth", "ingest"):
        run(command, config, pipeline)
    compare.mkdir()
    for name in ("train.wds", "test.wds"):     # what compare reads
        shutil.copy(pipeline / name, compare / name)
    run("compare", config, compare)
    for kind in KINDS:
        kind_config = tmp_path / f"run-{kind}.ini"
        kind_config.write_text(
            ACCEPTANCE_CONFIG.replace("[model]\n", f"[model]\nkind = {kind}\n")
            + BACKTEST_INDICATORS)
        for command in ("train", "eval", "backtest"):
            run(command, kind_config, pipeline)

    got = {f"{path.parent.name}/{path.name}":
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.glob("*/*"))}
    assert got == DIGESTS
